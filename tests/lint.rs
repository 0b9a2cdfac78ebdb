//! Repo lints over the workspace sources.
//!
//! - No ad-hoc seed derivation anywhere in `crates/`: every stochastic
//!   stream must derive its seed through `drive_seed::SeedTree`;
//!   xor-a-magic-constant expressions like the old `seed ^ 0x5f5f` collide
//!   silently and are impossible to audit.
//! - Every public item in `crates/*/src` has a user in non-test code
//!   (the crates' sources and examples, the root crate and the repo
//!   benchmark; tests and benches do not count), or an entry with a
//!   reason in [`UNCALLED_ALLOWED`]. Test-only hooks belong under
//!   `#[cfg(test)]`; code that nothing runs belongs deleted. Names are
//!   matched by the syntax of each mention, without type inference:
//!   - a `use` or `pub use` item is not a user;
//!   - a method taking `self` is called only through `.name(` (turbofish
//!     included) or a `::name` path, an associated fn without `self` only
//!     through `::name`, a free fn through a call, a path or use as a
//!     value; so a field, local or parameter of the same name calls no
//!     method;
//!   - a `pub` struct, enum, trait, type alias, const or static is dead
//!     when nothing names it outside its own declaration, its own `impl`
//!     blocks and `use` items; a `{NAME}` capture in a format string
//!     names it. A dead type's `impl` blocks stop counting as users, so
//!     what only they used is flagged too.
//!
//!   Methods of different types that share a name are one name here;
//!   enum variants and fields are not linted.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn no_magic_constant_seed_xors_in_crates() {
    let root = repo_root().join("crates");
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    assert!(
        sources.len() > 10,
        "expected a populated crates/ tree, found {} files",
        sources.len()
    );

    let mut offenders = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            // Doc comments may mention the outlawed idiom by name; only
            // code counts.
            let code = line.split("//").next().unwrap_or("");
            if code.contains("seed ^ 0x") || code.contains("seed^0x") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "magic-constant seed derivations found (use drive_seed::SeedTree):\n{}",
        offenders.join("\n")
    );
}

/// `pub fn`s that no non-test code calls but that stay public, keyed
/// `<module>::<name>` (the module is the file stem, or the directory name
/// for `lib.rs` / `mod.rs`).
const UNCALLED_ALLOWED: &[(&str, &str)] = &[
    (
        "gaussian::mean_action",
        "deterministic batch action: the test and inspection API across crates",
    ),
    (
        "pnn::mean_action",
        "deterministic batch action: the test and inspection API across crates",
    ),
    (
        "bc::sample_batch",
        "the reference the fast BC batch path is tested against, across crates",
    ),
    (
        "shutdown::trigger",
        "latches the SIGTERM flag without a signal, for the drain tests",
    ),
    (
        "shutdown::clear_for_test",
        "resets the SIGTERM latch between the drain tests of other crates",
    ),
    (
        "merge::verify_shard",
        "the merge's verification half on its own, timed by the merge perf row",
    ),
    (
        "histo::bucket_bounds",
        "states 'within one bucket' for the histogram property tests",
    ),
    (
        "geometry::local_to_world",
        "inverse of world_to_local; the pose round-trip property tests the pair",
    ),
    (
        "scenario::on_ramp_merge",
        "the on-ramp fixture the sim and harness tests drive",
    ),
    (
        "env::rollout",
        "rolls out one episode for the environment tests of drive-rl and drive-agents",
    ),
];

/// `src` with comments, string and char literals and every
/// `#[cfg(test)]` item blanked to spaces. A `{name}` or `{name:spec}`
/// capture in a string survives as the bare name, since a format string
/// uses what it captures. Newlines survive, so line numbers still match
/// the original text.
fn strip_non_code(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(chars.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        // `br"..."` is a raw string too: a lone `b` prefix does not make
        // the `r` part of an identifier.
        let byte_prefix = i > 0 && chars[i - 1] == 'b' && (i < 2 || !is_ident(chars[i - 2]));
        let prev_ident = i > 0 && is_ident(chars[i - 1]) && !byte_prefix;
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.extend([' ', ' ']);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.extend([' ', ' ']);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && !prev_ident && matches!(next, Some('"') | Some('#')) && {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            chars.get(i + 1 + hashes) == Some(&'"')
        } {
            // Raw string: r"..." or r#"..."#, closed by `"` plus as many `#`.
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            let body = i + 2 + hashes;
            let mut end = body;
            while end < chars.len() {
                if chars[end] == '"'
                    && chars[end + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
                {
                    break;
                }
                end += 1;
            }
            let stop = (end + 1 + hashes).min(chars.len());
            out.extend(chars[i..stop].iter().map(|&ch| blank(ch)));
            keep_captures(&chars[i..stop], &mut out[i..stop]);
            i = stop;
        } else if c == '"' {
            let start = i;
            out.push(' ');
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            if i < chars.len() {
                out.push(' ');
                i += 1;
            }
            keep_captures(&chars[start..i], &mut out[start..i]);
        } else if c == '\'' && next == Some('\\') {
            // Escaped char literal: '\n', '\'', '\u{..}'.
            out.extend([' ', ' ', ' ']);
            i += 3;
            while i < chars.len() && chars[i] != '\'' {
                out.push(' ');
                i += 1;
            }
            if i < chars.len() {
                out.push(' ');
                i += 1;
            }
        } else if c == '\'' && chars.get(i + 2) == Some(&'\'') {
            out.extend([' ', ' ', ' ']);
            i += 3;
        } else {
            // Code, including lifetimes like 'a.
            out.push(c);
            i += 1;
        }
    }
    blank_cfg_test_items(&mut out);
    out.into_iter().collect()
}

/// Copies back into the blanked `out` each name that the string literal
/// `lit` captures as `{name}` or `{name:spec}`; `{{` is an escaped brace.
fn keep_captures(lit: &[char], out: &mut [char]) {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut j = 0;
    while j < lit.len() {
        if lit[j] != '{' {
            j += 1;
        } else if lit.get(j + 1) == Some(&'{') {
            j += 2;
        } else {
            let start = j + 1;
            let end = start + lit[start..].iter().take_while(|&&c| is_ident(c)).count();
            let named = end > start && !lit[start].is_ascii_digit();
            if named && matches!(lit.get(end), Some('}') | Some(':')) {
                out[start..end].copy_from_slice(&lit[start..end]);
            }
            j = end;
        }
    }
}

/// Blanks each item that follows a `#[cfg(test)]` attribute: through
/// its matching closing brace, or through its `;` for a brace-less item.
fn blank_cfg_test_items(code: &mut [char]) {
    const ATTR: &str = "#[cfg(test)]";
    let attr: Vec<char> = ATTR.chars().collect();
    let mut i = 0;
    while i + attr.len() <= code.len() {
        if code[i..i + attr.len()] != attr[..] {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + attr.len();
        let mut depth = 0usize;
        while j < code.len() {
            match code[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(code.len());
        for ch in &mut code[start..end] {
            if *ch != '\n' {
                *ch = ' ';
            }
        }
        i = end;
    }
}

/// Tokens of stripped code with their byte offsets: identifiers, the
/// pairs `::`, `->` and `=>`, and single punctuation characters.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut chars = code.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if is_ident(c) {
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek().filter(|&&(_, d)| is_ident(d)) {
                end = j + d.len_utf8();
                chars.next();
            }
            out.push((i, &code[i..end]));
        } else if !c.is_whitespace() {
            let next = chars.peek().map(|&(_, d)| d);
            let pair = matches!(
                (c, next),
                (':', Some(':')) | ('-', Some('>')) | ('=', Some('>'))
            );
            if pair {
                chars.next();
            }
            out.push((i, &code[i..i + if pair { 2 } else { c.len_utf8() }]));
        }
    }
    out
}

fn is_name(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_alphanumeric() || c == '_')
}

/// How a `pub fn` can be called, which decides the syntax that counts as
/// a call of it.
#[derive(Clone, Copy)]
enum FnKind {
    /// Outside any `impl`: called, named by a path or used as a value.
    Free,
    /// In an `impl`, taking `self`: `.name(`, `.name::<` or `::name`.
    Method,
    /// In an `impl`, without `self`: `::name` only.
    Assoc,
}

struct PubFn {
    name: String,
    line: usize,
    /// Token index of the name.
    at: usize,
    kind: FnKind,
}

/// A `pub` struct, enum, trait, type alias, const or static, with the
/// token span of its whole declaration.
struct Item {
    name: String,
    line: usize,
    span: (usize, usize),
}

/// An `impl` block: the last name of its self type and of its trait, and
/// its token span from the `impl` keyword through the closing brace.
struct ImplBlock {
    self_ty: String,
    trait_: Option<String>,
    span: (usize, usize),
}

/// What the caller lint reads from one stripped source.
struct Parsed<'a> {
    toks: Vec<(usize, &'a str)>,
    /// Whether each token lies in a `use` item.
    in_use: Vec<bool>,
    fns: Vec<PubFn>,
    items: Vec<Item>,
    impls: Vec<ImplBlock>,
}

impl Parsed<'_> {
    /// Whether token `k`, which reads `name`, lies in the declaration of
    /// an item so named or in one of that item's `impl` blocks.
    fn own(&self, name: &str, k: usize) -> bool {
        let inside = |(a, b): (usize, usize)| a <= k && k <= b;
        self.items.iter().any(|i| i.name == name && inside(i.span))
            || self
                .impls
                .iter()
                .any(|b| (b.self_ty == name || b.trait_.as_deref() == Some(name)) && inside(b.span))
    }
}

/// Index just past the `<...>` that opens at `toks[k]`, or `k` if none does.
fn skip_generics(toks: &[(usize, &str)], k: usize) -> usize {
    if toks.get(k).map(|t| t.1) != Some("<") {
        return k;
    }
    let mut depth = 0;
    for (j, &(_, t)) in toks.iter().enumerate().skip(k) {
        match t {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Index of the token that ends the item starting at `toks[k]`: its `;`,
/// or, for a `braced` item, the `}` that closes its body.
fn item_end(toks: &[(usize, &str)], k: usize, braced: bool) -> usize {
    let mut depth = 0i32;
    for (j, &(_, t)) in toks.iter().enumerate().skip(k) {
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if (braced && depth == 0) || depth < 0 {
                    return j;
                }
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len() - 1
}

/// Whether the parameter list at `toks[k..]` (after any generics) starts
/// with a `self` receiver.
fn takes_self(toks: &[(usize, &str)], k: usize) -> bool {
    let k = skip_generics(toks, k);
    if toks.get(k).map(|t| t.1) != Some("(") {
        return false;
    }
    let mut depth = 0;
    for &(_, t) in &toks[k + 1..] {
        match t {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" if depth > 0 => depth -= 1,
            ")" | "," if depth == 0 => return false,
            "self" => return true,
            _ => {}
        }
    }
    false
}

/// `(self type, trait)` of an `impl` header (the tokens between `impl`
/// and `{`), each as the last name of its path.
fn impl_header(h: &[(usize, &str)]) -> (String, Option<String>) {
    let h = &h[skip_generics(h, 0)..];
    let h = &h[..h.iter().position(|t| t.1 == "where").unwrap_or(h.len())];
    let last_name = |part: &[(usize, &str)]| {
        let mut angle = 0;
        let mut name = "";
        for &(_, t) in part {
            match t {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ if angle == 0 && is_name(t) && !matches!(t, "dyn" | "mut") => name = t,
                _ => {}
            }
        }
        name.to_string()
    };
    let mut angle = 0;
    let split = h.iter().position(|&(_, t)| {
        match t {
            "<" => angle += 1,
            ">" => angle -= 1,
            _ => {}
        }
        angle == 0 && t == "for"
    });
    match split {
        Some(f) => (last_name(&h[f + 1..]), Some(last_name(&h[..f]))),
        None => (last_name(h), None),
    }
}

/// Reads the `use` items, `pub fn`s, type-like items and `impl` blocks of
/// stripped code.
fn parse(code: &str) -> Parsed<'_> {
    let toks = tokens(code);
    let word = |k: usize| toks.get(k).map_or("", |t| t.1);
    let line = |k: usize| code[..toks[k].0].matches('\n').count() + 1;
    let mut in_use = vec![false; toks.len()];
    let (mut fns, mut items, mut impls) = (Vec::new(), Vec::new(), Vec::new());
    // One entry per open `{`: for an `impl` body, its self type, trait
    // and `impl` keyword; `None` for any other block.
    let mut open: Vec<Option<(String, Option<String>, usize)>> = Vec::new();
    let mut pending_impl = None;
    // Between `fn name` and its body: an `impl` there is `impl Trait`.
    let mut in_sig = false;
    let mut depth = 0; // `(` and `[` nesting
    let mut k = 0;
    while k < toks.len() {
        let prev = if k > 0 { word(k - 1) } else { ";" };
        match word(k) {
            "use" if prev != "+" => {
                let end = item_end(&toks, k, false);
                in_use[k..=end].fill(true);
                k = end + 1;
                continue;
            }
            "fn" if is_name(word(k + 1)) => {
                in_sig = true;
                let mut j = k.saturating_sub(1);
                while j > 0 && matches!(word(j), "const" | "unsafe" | "async" | "extern") {
                    j -= 1;
                }
                // `pub(crate)` puts a `(` after `pub`.
                if word(j) == "pub" && word(j + 1) != "(" {
                    let kind = match open.last() {
                        Some(Some(_)) if takes_self(&toks, k + 2) => FnKind::Method,
                        Some(Some(_)) => FnKind::Assoc,
                        _ => FnKind::Free,
                    };
                    let name = word(k + 1).to_string();
                    fns.push(PubFn {
                        name,
                        line: line(k + 1),
                        at: k + 1,
                        kind,
                    });
                }
            }
            "impl" if !in_sig => {
                let body = (k..toks.len())
                    .find(|&j| word(j) == "{")
                    .unwrap_or(toks.len());
                let (self_ty, trait_) = impl_header(&toks[k + 1..body]);
                pending_impl = Some((self_ty, trait_, k));
            }
            kw @ ("struct" | "enum" | "trait" | "type" | "const" | "static")
                if prev == "pub" && !matches!(word(k + 1), "fn" | "unsafe") =>
            {
                let n = if word(k + 1) == "mut" { k + 2 } else { k + 1 };
                if is_name(word(n)) && word(n) != "_" {
                    let braced = matches!(kw, "struct" | "enum" | "trait");
                    items.push(Item {
                        name: word(n).to_string(),
                        line: line(n),
                        span: (k, item_end(&toks, k, braced)),
                    });
                }
            }
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => {
                in_sig = false;
                pending_impl = None;
            }
            "{" => {
                in_sig = false;
                open.push(pending_impl.take());
            }
            "}" => {
                if let Some(Some((self_ty, trait_, start))) = open.pop() {
                    impls.push(ImplBlock {
                        self_ty,
                        trait_,
                        span: (start, k),
                    });
                }
            }
            _ => {}
        }
        k += 1;
    }
    Parsed {
        toks,
        in_use,
        fns,
        items,
        impls,
    }
}

/// One source the caller lint reads: its stripped code, and whether its
/// public items are linted (`crates/*/src`) or it only uses them.
struct Source {
    path: PathBuf,
    code: String,
    declares: bool,
}

/// Why the lint flags an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    /// A `pub fn` that no code names.
    NoCaller,
    /// A `pub fn` that only `use` and `pub use` items name.
    ReExportOnly,
    /// A `pub fn` named only with syntax that cannot call it: a field, a
    /// local or a parameter of that name, or a call of the wrong kind.
    NoCallSyntaxUse,
    /// A type, trait, const or static that nothing names outside its own
    /// declaration, its own `impl` blocks and `use` items.
    DeadType,
}

impl Rule {
    fn label(self) -> &'static str {
        match self {
            Rule::NoCaller => "no caller",
            Rule::ReExportOnly => "re-export only",
            Rule::NoCallSyntaxUse => "no call-syntax use",
            Rule::DeadType => "dead type",
        }
    }
}

/// An item the lint flags: where it is declared, its allowlist key and
/// the rule that flagged it.
#[derive(Debug)]
struct Flagged {
    path: PathBuf,
    line: usize,
    key: String,
    rule: Rule,
}

/// Every public item of the declaring `sources` that no source uses,
/// minus the allowlist, in source order.
///
/// Dead types go first, round by round: a dead type's declaration and
/// `impl` blocks stop counting as users, which can leave another type or
/// a `pub fn` with none.
fn uncalled(sources: &[Source], allowed: &[(&str, &str)]) -> Vec<Flagged> {
    let parsed: Vec<Parsed> = sources.iter().map(|s| parse(&s.code)).collect();
    let mut dead: Vec<Vec<bool>> = parsed.iter().map(|p| vec![false; p.toks.len()]).collect();
    let is_allowed = |key: &str| allowed.iter().any(|(k, _)| *k == key);
    let mut out = Vec::new();

    let public: HashSet<&str> = parsed
        .iter()
        .flat_map(|p| p.items.iter().map(|i| i.name.as_str()))
        .collect();
    loop {
        let mut named = HashSet::new();
        for (p, d) in parsed.iter().zip(&dead) {
            for (k, &(_, w)) in p.toks.iter().enumerate() {
                if public.contains(w) && !d[k] && !p.in_use[k] && !p.own(w, k) {
                    named.insert(w);
                }
            }
        }
        let mut newly = Vec::new();
        for (s, (src, p)) in sources.iter().zip(&parsed).enumerate() {
            for item in &p.items {
                if !src.declares || dead[s][item.span.0] {
                    continue;
                }
                let key = allow_key(&src.path, &item.name);
                if !named.contains(item.name.as_str()) && !is_allowed(&key) {
                    let (path, line) = (src.path.clone(), item.line);
                    out.push(Flagged {
                        path,
                        line,
                        key,
                        rule: Rule::DeadType,
                    });
                    newly.push(item.name.as_str());
                }
            }
        }
        if newly.is_empty() {
            break;
        }
        for ((src, p), d) in sources.iter().zip(&parsed).zip(&mut dead) {
            if !src.declares {
                continue;
            }
            let decls = p.items.iter().filter(|i| newly.contains(&i.name.as_str()));
            let impls = p.impls.iter().filter(|b| {
                newly.contains(&b.self_ty.as_str())
                    || b.trait_.as_deref().is_some_and(|t| newly.contains(&t))
            });
            for (a, b) in decls.map(|i| i.span).chain(impls.map(|b| b.span)) {
                d[a..=b].fill(true);
            }
        }
    }

    // Live names by the syntax that mentions them, outside `use` items.
    let (mut calls, mut paths, mut values) = (HashSet::new(), HashSet::new(), HashSet::new());
    let (mut in_code, mut in_uses) = (HashSet::new(), HashSet::new());
    for (p, d) in parsed.iter().zip(&dead) {
        let word = |k: usize| p.toks.get(k).map_or("", |t| t.1);
        for (k, &(_, w)) in p.toks.iter().enumerate() {
            let prev = if k > 0 { word(k - 1) } else { "" };
            if d[k] || prev == "fn" {
                continue;
            }
            if p.in_use[k] {
                in_uses.insert(w);
                continue;
            }
            in_code.insert(w);
            let next = word(k + 1);
            match prev {
                "." if next == "(" || (next == "::" && word(k + 2) == "<") => calls.insert(w),
                "." => false,
                "::" => paths.insert(w),
                // `name:` declares a field or a parameter, or sets a field.
                _ if next != ":" => values.insert(w),
                _ => false,
            };
        }
    }
    for ((src, p), d) in sources.iter().zip(&parsed).zip(&dead) {
        if !src.declares {
            continue;
        }
        for f in p.fns.iter().filter(|f| !d[f.at]) {
            let n = f.name.as_str();
            let called = match f.kind {
                FnKind::Free => paths.contains(n) || values.contains(n),
                FnKind::Method => paths.contains(n) || calls.contains(n),
                FnKind::Assoc => paths.contains(n),
            };
            let key = allow_key(&src.path, n);
            if called || is_allowed(&key) {
                continue;
            }
            let rule = if in_code.contains(n) {
                Rule::NoCallSyntaxUse
            } else if in_uses.contains(n) {
                Rule::ReExportOnly
            } else {
                Rule::NoCaller
            };
            out.push(Flagged {
                path: src.path.clone(),
                line: f.line,
                key,
                rule,
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// `<module>::<name>` key of a public item declared in `path`.
fn allow_key(path: &Path, name: &str) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = match stem {
        "lib" => path.parent().and_then(Path::parent),
        "mod" => path.parent(),
        _ => None,
    };
    let module = dir
        .and_then(|d| d.file_name())
        .and_then(|s| s.to_str())
        .unwrap_or(stem);
    format!("{module}::{name}")
}

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    let root = repo_root();
    let mut decl_files = Vec::new();
    let mut other_callers = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("dir entry").path();
        rust_sources(&krate.join("src"), &mut decl_files);
        rust_sources(&krate.join("examples"), &mut other_callers);
    }
    assert!(decl_files.len() > 10, "expected a populated crates/ tree");
    for dir in ["src", "examples", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut other_callers);
    }
    let source = |path: &PathBuf, declares: bool| Source {
        path: path.clone(),
        code: strip_non_code(&fs::read_to_string(path).expect("readable source")),
        declares,
    };
    let sources: Vec<Source> = decl_files
        .iter()
        .map(|p| source(p, true))
        .chain(other_callers.iter().map(|p| source(p, false)))
        .collect();

    let missing = uncalled(&sources, UNCALLED_ALLOWED);
    let listed: Vec<String> = missing
        .iter()
        .map(|f| {
            let rel = f.path.strip_prefix(&root).unwrap_or(&f.path);
            format!(
                "{}:{}: {} [{}]",
                rel.display(),
                f.line,
                f.key,
                f.rule.label()
            )
        })
        .collect();
    assert!(
        missing.is_empty(),
        "{} public item(s) have no user outside tests and benches; delete them, move them \
         under #[cfg(test)], or allowlist them with a reason. The rule in brackets:\n\
         - no caller: nothing names the fn;\n\
         - re-export only: only `use` / `pub use` items name the fn;\n\
         - no call-syntax use: the name appears, but not as a call of this kind of fn \
         (a field, local or parameter; `.name(` for a method; `::name` for an associated fn);\n\
         - dead type: nothing names the type, trait, const or static outside its own \
         declaration, its own impl blocks and use items (its methods go with it).\n{}",
        missing.len(),
        listed.join("\n")
    );

    // Every allowlist entry must still name an item the lint would flag.
    let all = uncalled(&sources, &[]);
    let stale: Vec<&str> = UNCALLED_ALLOWED
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| !all.iter().any(|f| f.key == *k))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries that are used or gone: {stale:?}"
    );
}

/// The scanner flags planted uncalled `pub fn`s, and a call that sits in
/// a `#[cfg(test)]` item, a comment or a string literal does not count.
#[test]
fn caller_scanner_ignores_tests_comments_and_strings() {
    let lib = r##"
pub fn used() {}
pub fn planted() {}
pub const fn also_planted() -> u8 { 0 }
pub(crate) fn narrow() {}
pub fn called_in_test_only() {}
pub fn called_in_comment_only() {}
pub fn called_in_string_only() {}
pub fn called_in_raw_string_only() {}

/// Calls `called_in_comment_only()` in a doc comment.
fn caller<'a>(x: &'a str) -> &'a str {
    used();
    // called_in_comment_only();
    /* called_in_comment_only(); /* nested */ called_in_comment_only(); */
    let _ = "called_in_string_only() \" still one string";
    let _ = r#"called_in_raw_string_only() " still raw"#;
    let _ = br"called_in_raw_string_only()";
    let _ = ('"', '\'', '\u{7b}');
    x
}

#[cfg(test)]
mod tests {
    fn t() {
        super::called_in_test_only();
    }
}

#[cfg(test)]
fn test_helper() {
    called_in_test_only();
}
"##;
    let code = strip_non_code(lib);
    assert_eq!(code.lines().count(), lib.lines().count(), "lines survive");
    let keys = |allowed: &[(&str, &str)]| -> Vec<String> {
        fixture_flags(lib, &[], allowed)
            .into_iter()
            .map(|f| f.key)
            .collect()
    };
    assert_eq!(
        keys(&[]),
        [
            "fixture::planted",
            "fixture::also_planted",
            "fixture::called_in_test_only",
            "fixture::called_in_comment_only",
            "fixture::called_in_string_only",
            "fixture::called_in_raw_string_only",
        ]
    );
    // The line of a flagged declaration is reported.
    let flagged = fixture_flags(lib, &[], &[]);
    assert_eq!(flagged[0].line, 3, "`planted` is on line 3");
    assert!(flagged.iter().all(|f| f.rule == Rule::NoCaller));
    // An allowlist entry lifts exactly its own key.
    assert!(!keys(&[("fixture::planted", "reason")]).contains(&"fixture::planted".to_string()));
    assert_eq!(keys(&[("fixture::planted", "reason")]).len(), 5);
    // A real call elsewhere makes the name called.
    let with_caller = fixture_flags(lib, &["fn main() { demo::planted(); }"], &[]);
    assert!(with_caller.iter().all(|f| f.key != "fixture::planted"));
}

/// Flags of the lint over `lib` as `crates/demo/src/fixture.rs`, with
/// `callers` as further non-declaring sources.
fn fixture_flags(lib: &str, callers: &[&str], allowed: &[(&str, &str)]) -> Vec<Flagged> {
    let source = |path: &str, code: &str, declares: bool| Source {
        path: PathBuf::from(path),
        code: strip_non_code(code),
        declares,
    };
    let mut sources = vec![source("crates/demo/src/fixture.rs", lib, true)];
    sources.extend(callers.iter().map(|c| source("src/main.rs", c, false)));
    uncalled(&sources, allowed)
}

/// One planted case per blind spot of a scan by name alone: a fn named
/// only in a `pub use`, methods whose only namesakes are a field, a local
/// and a method call, and a type named only in its own `impl`, which
/// takes the fn that only that `impl` calls with it. A const that a
/// format string captures is used; one inside an escaped `{{...}}` is not.
#[test]
fn caller_scanner_reads_use_items_call_syntax_and_types() {
    let lib = r##"
pub mod prelude {
    pub use super::re_exported_only;
}
pub fn re_exported_only() {}

pub struct Holder {
    pub field_namesake: u8,
}

impl Holder {
    pub fn new() -> Self {
        Holder { field_namesake: 0 }
    }
    pub fn field_namesake(&self) -> u8 {
        self.field_namesake
    }
    pub fn local_namesake(&self, n: u8) -> u8 {
        let local_namesake = n;
        local_namesake
    }
    pub fn method_called(&self) -> u8 {
        1
    }
    pub fn assoc_by_path() -> u8 {
        2
    }
}

pub fn free_as_value(x: u8) -> u8 {
    x
}
pub fn free_named_as_method() {}

pub struct OnlyInOwnImpl;

impl OnlyInOwnImpl {
    pub fn build() -> OnlyInOwnImpl {
        only_the_dead_type_calls();
        OnlyInOwnImpl
    }
}

pub fn only_the_dead_type_calls() {}

pub const SHOWN_IN_FORMAT: &str = "shown";
pub const ESCAPED_ONLY: u8 = 0;

fn caller() -> String {
    let h = Holder::new();
    let _ = [h.method_called(), Holder::assoc_by_path()].map(free_as_value);
    h.free_named_as_method();
    format!("{SHOWN_IN_FORMAT:>8} {{ESCAPED_ONLY}}")
}
"##;
    let flagged: Vec<(String, &str)> = fixture_flags(lib, &[], &[])
        .into_iter()
        .map(|f| (f.key, f.rule.label()))
        .collect();
    let expect = [
        ("fixture::re_exported_only", "re-export only"),
        ("fixture::field_namesake", "no call-syntax use"),
        ("fixture::local_namesake", "no call-syntax use"),
        ("fixture::free_named_as_method", "no call-syntax use"),
        ("fixture::OnlyInOwnImpl", "dead type"),
        ("fixture::only_the_dead_type_calls", "no caller"),
        ("fixture::ESCAPED_ONLY", "dead type"),
    ];
    let expect: Vec<(String, &str)> = expect.iter().map(|&(k, r)| (k.to_string(), r)).collect();
    assert_eq!(flagged, expect);
}
