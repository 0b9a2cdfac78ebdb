//! Repo lints over the workspace sources.
//!
//! - No ad-hoc seed derivation anywhere in `crates/`: every stochastic
//!   stream must derive its seed through `drive_seed::SeedTree`;
//!   xor-a-magic-constant expressions like the old `seed ^ 0x5f5f` collide
//!   silently and are impossible to audit.
//! - Every `pub fn` in `crates/*/src` has a caller in non-test code, or an
//!   entry with a reason in [`UNCALLED_ALLOWED`]. Test-only hooks belong
//!   under `#[cfg(test)]`; code that nothing runs belongs deleted.

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
];

/// `src` with comments, string and char literals and every
/// `#[cfg(test)]` item blanked to spaces. Newlines survive, so line
/// numbers still match the original text.
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
            i = stop;
        } else if c == '"' {
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

/// Identifier tokens of stripped code with their byte offsets.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices() {
        let ident = c.is_alphanumeric() || c == '_';
        match (ident, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push((s, &code[s..i]));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, &code[s..]));
    }
    out
}

/// `(line, name)` of every `pub fn` (also `pub const fn`, `pub unsafe fn`)
/// declared in stripped code. `pub(crate)` and narrower do not count.
fn pub_fns(code: &str) -> Vec<(usize, String)> {
    let toks = idents(code);
    let mut out = Vec::new();
    for k in 1..toks.len().saturating_sub(1) {
        if toks[k].1 != "fn" {
            continue;
        }
        let mut j = k - 1;
        while j > 0 && matches!(toks[j].1, "const" | "unsafe") {
            j -= 1;
        }
        let (at, word) = toks[j];
        // `pub(crate)` puts a `(` between `pub` and the next token.
        let bare = code[at + word.len()..toks[j + 1].0]
            .chars()
            .all(char::is_whitespace);
        if word == "pub" && bare {
            let line = code[..at].matches('\n').count() + 1;
            out.push((line, toks[k + 1].1.to_string()));
        }
    }
    out
}

/// Every identifier in stripped code that is not the name of a `fn`
/// definition: a call, a path, a method or a function value.
fn used_names(code: &str, into: &mut HashSet<String>) {
    let toks = idents(code);
    for (k, &(_, name)) in toks.iter().enumerate() {
        if k > 0 && toks[k - 1].1 == "fn" {
            continue;
        }
        into.insert(name.to_string());
    }
}

/// `<module>::<name>` key of a `pub fn` declared in `path`.
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

/// Declarations with no caller: `(path, line, key)` for every `pub fn`
/// in `decls` whose name no caller text uses, minus the allowlist.
fn uncalled(
    decls: &[(PathBuf, String)],
    callers: &[String],
    allowed: &[(&str, &str)],
) -> Vec<(PathBuf, usize, String)> {
    let mut used = HashSet::new();
    for code in callers {
        used_names(code, &mut used);
    }
    let mut out = Vec::new();
    for (path, code) in decls {
        for (line, name) in pub_fns(code) {
            let key = allow_key(path, &name);
            if !used.contains(&name) && !allowed.iter().any(|(k, _)| *k == key) {
                out.push((path.clone(), line, key));
            }
        }
    }
    out
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
    let caller_files = decl_files.iter().chain(&other_callers);
    let read = |p: &PathBuf| strip_non_code(&fs::read_to_string(p).expect("readable source"));
    let decls: Vec<(PathBuf, String)> = decl_files.iter().map(|p| (p.clone(), read(p))).collect();
    let callers: Vec<String> = caller_files.map(read).collect();

    let missing = uncalled(&decls, &callers, UNCALLED_ALLOWED);
    let listed: Vec<String> = missing
        .iter()
        .map(|(p, line, key)| {
            let rel = p.strip_prefix(&root).unwrap_or(p);
            format!("{}:{line}: {key}", rel.display())
        })
        .collect();
    assert!(
        missing.is_empty(),
        "{} pub fn(s) have no caller outside tests and benches; delete them, move them \
         under #[cfg(test)], or allowlist them with a reason:\n{}",
        missing.len(),
        listed.join("\n")
    );

    // Every allowlist entry must still name an uncalled pub fn.
    let all = uncalled(&decls, &callers, &[]);
    let stale: Vec<&str> = UNCALLED_ALLOWED
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| !all.iter().any(|(_, _, key)| key == k))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries that are called or gone: {stale:?}"
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
    let path = PathBuf::from("crates/demo/src/fixture.rs");
    let code = strip_non_code(lib);
    assert_eq!(code.lines().count(), lib.lines().count(), "lines survive");
    let decls = vec![(path.clone(), code.clone())];
    let keys = |allowed: &[(&str, &str)]| -> Vec<String> {
        uncalled(&decls, std::slice::from_ref(&code), allowed)
            .into_iter()
            .map(|(_, _, key)| key)
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
    let flagged = uncalled(&decls, std::slice::from_ref(&code), &[]);
    assert_eq!(flagged[0].1, 3, "`planted` is on line 3");
    // An allowlist entry lifts exactly its own key.
    assert!(!keys(&[("fixture::planted", "reason")]).contains(&"fixture::planted".to_string()));
    assert_eq!(keys(&[("fixture::planted", "reason")]).len(), 5);
    // A real call elsewhere makes the name called.
    let other = strip_non_code("fn main() { demo::planted(); }");
    let with_caller = uncalled(&decls, &[code.clone(), other], &[]);
    assert!(with_caller.iter().all(|(_, _, k)| k != "fixture::planted"));
}
