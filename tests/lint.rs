//! Repo lints over the workspace sources.
//!
//! - No ad-hoc seed derivation anywhere in `crates/`: every stochastic
//!   stream must derive its seed through `drive_seed::SeedTree`;
//!   xor-a-magic-constant expressions like the old `seed ^ 0x5f5f` collide
//!   silently and are impossible to audit.
//! - Every public item in `crates/*/src` has a user in non-test code
//!   (the crates' libraries, binaries and examples, the root crate and
//!   the repo benchmark; tests and benches do not count), or an entry
//!   with a reason in [`UNCALLED_ALLOWED`]. Test-only hooks belong under
//!   `#[cfg(test)]`; code that nothing runs belongs deleted.
//!
//!   rustc finds the users. The lint copies the workspace under
//!   `CARGO_TARGET_TMPDIR` and puts `#[deprecated(note = "lint#<id>")]` on
//!   every `pub` fn, method, struct, enum, trait, type alias, const,
//!   static, named field and enum variant of `crates/*/src` outside
//!   `#[cfg(test)]` items. It runs `cargo check` over the users and reads
//!   each item's uses from the `use of deprecated` warnings. So every use
//!   is resolved by type: a same-named method of another type, a field or
//!   a local uses nothing, and tests, comments and strings are never
//!   compiled. Then:
//!   - a `use` or `pub use` item is not a use;
//!   - a field is used only where it is read: a struct-literal
//!     initializer or an assignment only writes it, and derived impls
//!     (`Debug` too) report no use;
//!   - a type or trait is not used by its own `impl` blocks; naming a
//!     variant uses its enum;
//!   - uses inside a flagged item, or inside the `impl` blocks of a
//!     flagged type or trait, do not count, round by round, so what only
//!     dead code uses is flagged too.
//!
//!   Items are found line by line, so the sources must be
//!   `rustfmt`-formatted, as `cargo fmt --check` keeps them.

use std::collections::HashSet;
use std::fs;
use std::path::{Component, Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

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

/// Public items that no non-test code uses but that stay public, keyed
/// `<module>::<name>`, or `<module>::<Type>::<name>` for a method,
/// associated const, field or variant (the module is the file stem, or
/// the directory name for `lib.rs` / `mod.rs`).
const UNCALLED_ALLOWED: &[(&str, &str)] = &[
    (
        "gaussian::GaussianPolicy::mean_action",
        "deterministic batch action: the test and inspection API across crates",
    ),
    (
        "bc::Demonstrations::sample_batch",
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
        "geometry::Pose::local_to_world",
        "inverse of world_to_local; the pose round-trip property tests the pair",
    ),
    (
        "scenario::ScenarioSpec::on_ramp_merge",
        "the on-ramp fixture the sim and harness tests drive",
    ),
    (
        "scenario::ScenarioSpec::lane_drop",
        "the lane-drop fixture the sim tests and the scenario digest pins drive",
    ),
    (
        "faults::FaultInjector::new",
        "the schedule-seeded injector the fault tests of four crates build",
    ),
    (
        "generate::SpeedMix::ALL",
        "the speed-mix sweep the generator property test and the scenario perf row walk",
    ),
    (
        "road::RoadTopology::label",
        "names a road in the generator property test and the scenario-matrix tests",
    ),
    (
        "export::Csv::len",
        "the row count the experiments' tests in repro-bench assert on",
    ),
    (
        "export::Csv::is_empty",
        "the emptiness check the experiments' tests in repro-bench assert on",
    ),
    (
        "replay::Batch::is_empty",
        "clippy's len_without_is_empty pairs it with the used `len`",
    ),
    (
        "waypoints::PathProjection::heading_error",
        "the heading term of the steering law in the drive-agents planner tests",
    ),
    (
        "road::Road::barrier_thickness",
        "feeds a `Debug`-hashed digest; waits for ROADMAP item 3's re-record",
    ),
    (
        "env::rollout",
        "rolls out one episode for the environment tests of drive-rl and drive-agents",
    ),
];

/// What a marked item is, which decides what counts as its use.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A fn, method, type, trait, const or static.
    Item,
    Field,
    Variant,
}

/// A marked public item.
struct Item {
    file: usize,
    /// First and last line of its declaration (1-based).
    lines: (usize, usize),
    name: String,
    key: String,
    kind: Kind,
    /// The enum of a variant.
    parent: Option<usize>,
}

/// An `impl` block: its lines, the line its header ends on, and the last
/// path segment of its self type and of its trait.
struct ImplBlock {
    file: usize,
    lines: (usize, usize),
    header_end: usize,
    names: Vec<String>,
}

/// A struct, enum or `impl` body that is open at a line of its source.
struct Open {
    /// Its last line (1-based).
    last: usize,
    indent: usize,
    /// The struct's or enum's name, or the `impl`'s self type.
    name: String,
    /// The struct or enum item.
    item: Option<usize>,
}

/// A `use of deprecated` warning: where, and of which item.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Use {
    file: usize,
    line: usize,
    col: usize,
    item: usize,
}

/// A marked copy of a workspace and the uses rustc reported in it.
#[derive(Default)]
struct Model {
    /// Each copied source, relative to the copy's root, with its text.
    files: Vec<(PathBuf, String)>,
    items: Vec<Item>,
    impls: Vec<ImplBlock>,
    uses: Vec<Use>,
}

/// An item the lint flags.
#[derive(Debug)]
struct Flagged {
    path: PathBuf,
    line: usize,
    key: String,
    why: &'static str,
}

impl Model {
    /// Copies the workspace at `src` to `work/src`, marking `crates/*/src`,
    /// and runs `cargo check` for each `(manifest dir, arguments)` of
    /// `checks` with `work/target` as target directory. A file whose text
    /// is unchanged is not rewritten, so a repeated run checks nothing
    /// anew.
    fn check(src: &Path, work: &Path, checks: &[(&str, &[&str])]) -> Model {
        let copy = work.join("src");
        let mut m = Model::default();
        m.copy(src, &copy, PathBuf::new());
        let copied: HashSet<&Path> = m.files.iter().map(|(p, _)| p.as_path()).collect();
        prune(&copy, Path::new(""), &copied);
        for (dir, args) in checks {
            let dir = copy.join(dir);
            let out = Command::new(env!("CARGO"))
                .current_dir(&dir)
                .args([
                    "check",
                    "--offline",
                    "--message-format=short",
                    "--target-dir",
                ])
                .arg(work.join("target"))
                .args(*args)
                .output()
                .expect("cargo runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "cargo check failed:\n{stderr}");
            for line in stderr.lines() {
                let Some((at, id)) = line
                    .split_once(": warning: use of deprecated ")
                    .and_then(|(at, rest)| Some((at, rest.rsplit_once("`: lint#")?.1)))
                else {
                    continue;
                };
                let mut at = at.rsplitn(3, ':');
                let col = at.next().and_then(|c| c.parse().ok()).expect("column");
                let line = at.next().and_then(|l| l.parse().ok()).expect("line");
                let path = normalize(&dir.join(at.next().expect("path")));
                let rel = path.strip_prefix(&copy).expect("a copied source");
                let file = m.files.iter().position(|(p, _)| p == rel);
                let file = file.expect("a copied source");
                let item = id.parse().expect("marker id");
                m.uses.push(Use {
                    file,
                    line,
                    col,
                    item,
                });
            }
        }
        m.uses.sort();
        m.uses.dedup();
        m
    }

    fn copy(&mut self, src: &Path, dst: &Path, rel: PathBuf) {
        let mut entries: Vec<_> = fs::read_dir(src.join(&rel))
            .expect("readable dir")
            .map(|e| e.expect("dir entry"))
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = rel.join(&name);
            if entry.file_type().expect("file type").is_dir() {
                if name != "target" && (!name.starts_with('.') || name == ".cargo") {
                    self.copy(src, dst, rel);
                }
                continue;
            }
            let text = match rel.extension().and_then(|e| e.to_str()) {
                Some("rs") => fs::read_to_string(src.join(&rel)).expect("readable source"),
                Some("toml" | "lock") => {
                    write_if_changed(&dst.join(&rel), &fs::read(src.join(&rel)).expect("file"));
                    continue;
                }
                _ => continue,
            };
            let parts: Vec<_> = rel.components().collect();
            let declares = parts.len() > 3
                && parts[0].as_os_str() == "crates"
                && parts[2].as_os_str() == "src";
            let marked = self.mark(&text, declares, &module(&rel));
            write_if_changed(&dst.join(&rel), marked.as_bytes());
            self.files.push((rel, marked));
        }
    }

    /// Marks the public items of a declaring source and lets every `use`
    /// item name deprecated items silently. The text keeps its lines.
    fn mark(&mut self, text: &str, declares: bool, module: &str) -> String {
        let file = self.files.len();
        let lines: Vec<&str> = text.lines().collect();
        let mut out = String::with_capacity(text.len() * 2);
        let mut open: Vec<Open> = Vec::new();
        let mut skip_to = 0;
        for (i, &line) in lines.iter().enumerate() {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            open.retain(|o| o.last > i);
            let mut attr = String::new();
            if i < skip_to {
            } else if code == "#[cfg(test)]" {
                let start = (i + 1..lines.len())
                    .find(|&j| !lines[j].trim_start().starts_with(['#', '/']))
                    .unwrap_or(i);
                skip_to = item_end(&lines, start) + 1;
            } else if is_use(code) {
                attr = "#[allow(deprecated)] ".into();
            } else if !declares {
            } else if let Some((names, header_end)) = impl_names(&lines, i) {
                let end = item_end(&lines, header_end);
                open.push(Open {
                    last: end + 1,
                    indent,
                    name: names[0].clone(),
                    item: None,
                });
                let lines = (i + 1, end + 1);
                let header_end = header_end + 1;
                self.impls.push(ImplBlock {
                    file,
                    lines,
                    header_end,
                    names,
                });
            } else if let Some((kind, name)) = declared(code, open.last(), indent) {
                let id = self.items.len();
                let end = item_end(&lines, i);
                let member = open.last().filter(|o| o.indent + 4 == indent);
                let key = match member {
                    Some(o) => format!("{module}::{}::{name}", o.name),
                    None => format!("{module}::{name}"),
                };
                let parent = member
                    .and_then(|o| o.item)
                    .filter(|_| kind == Kind::Variant);
                let body = code.starts_with("pub struct ") || code.starts_with("pub enum ");
                if body && end > i && !code.contains('(') {
                    open.push(Open {
                        last: end + 1,
                        indent,
                        name: name.clone(),
                        item: Some(id),
                    });
                }
                self.items.push(Item {
                    file,
                    lines: (i + 1, end + 1),
                    name,
                    key,
                    kind,
                    parent,
                });
                attr = format!("#[deprecated(note = \"lint#{id}\")] ");
            }
            out.push_str(&line[..indent]);
            out.push_str(&attr);
            out.push_str(code);
            out.push('\n');
        }
        out
    }

    /// Whether use `u` writes the field it names without reading it: the
    /// span starts at the field's name (a struct-literal initializer), or
    /// the `.field` it reaches is assigned with `=`.
    fn writes<'a>(&'a self, u: &Use) -> bool {
        let text = &self.files[u.file].1;
        let start: usize = text
            .split_inclusive('\n')
            .take(u.line - 1)
            .map(str::len)
            .sum();
        let line = &text[start..];
        let col = line.char_indices().nth(u.col - 1).map_or(0, |(b, _)| b);
        let rest = &line[col..];
        let name = &self.items[u.item].name;
        let after = |s: &'a str| -> Option<&'a str> {
            let s = s.strip_prefix(name.as_str())?;
            (!s.starts_with(is_ident)).then_some(s.trim_start())
        };
        if let Some(s) = after(rest) {
            if !s.starts_with(['.', '[', '(']) && !s.starts_with("::") {
                // A struct literal's initializer writes; a pattern binds.
                return !in_pattern(rest);
            }
        }
        let mut dots = rest.match_indices('.');
        let field = dots.find_map(|(i, _)| after(rest[i + 1..].trim_start()));
        field.is_some_and(|s| s.starts_with('=') && !s[1..].starts_with(['=', '>']))
    }

    /// The items that no counted use reaches, minus `allowed`, and the
    /// allowlist keys that name no such item.
    fn flag(&self, allowed: &[(&str, &str)]) -> (Vec<Flagged>, Vec<String>) {
        let is_allowed = |i: usize| allowed.iter().any(|(k, _)| *k == self.items[i].key);
        let within = |lines: (usize, usize), line: usize| lines.0 <= line && line <= lines.1;
        let reads: Vec<&Use> = self
            .uses
            .iter()
            .filter(|u| self.items[u.item].kind != Kind::Field || !self.writes(u))
            .collect();
        // The items each `impl` block belongs to: the self type and trait
        // its header names.
        let owners: Vec<Vec<usize>> = self
            .impls
            .iter()
            .map(|b| {
                let header = self
                    .uses
                    .iter()
                    .filter(|u| u.file == b.file && within((b.lines.0, b.header_end), u.line));
                header
                    .map(|u| u.item)
                    .filter(|&i| b.names.contains(&self.items[i].name))
                    .collect()
            })
            .collect();
        let mut dead = vec![false; self.items.len()];
        let live = loop {
            let mut live = vec![false; self.items.len()];
            let dead_items: Vec<&Item> = (self.items.iter().zip(&dead))
                .filter_map(|(it, &d)| d.then_some(it))
                .collect();
            for u in &reads {
                let in_dead =
                    (dead_items.iter()).any(|it| it.file == u.file && within(it.lines, u.line));
                let impls: Vec<&Vec<usize>> = (self.impls.iter().zip(&owners))
                    .filter(|(b, _)| b.file == u.file && within(b.lines, u.line))
                    .map(|(_, o)| o)
                    .collect();
                if in_dead || impls.iter().any(|o| o.iter().any(|&i| dead[i])) {
                    continue;
                }
                for i in [Some(u.item), self.items[u.item].parent]
                    .into_iter()
                    .flatten()
                {
                    if !impls.iter().any(|o| o.contains(&i)) {
                        live[i] = true;
                    }
                }
            }
            let newly: Vec<usize> = (0..self.items.len())
                .filter(|&i| !live[i] && !dead[i] && !is_allowed(i))
                .collect();
            if newly.is_empty() {
                break live;
            }
            for i in newly {
                dead[i] = true;
            }
        };
        let flagged = (0..self.items.len()).filter(|&i| dead[i]).map(|i| {
            let it = &self.items[i];
            let why = if !self.uses.iter().any(|u| u.item == i) {
                "no use"
            } else if !reads.iter().any(|u| u.item == i) {
                "written, never read"
            } else {
                "used only by its own impls or flagged code"
            };
            Flagged {
                path: self.files[it.file].0.clone(),
                line: it.lines.0,
                key: it.key.clone(),
                why,
            }
        });
        let needed = |k: &str| (0..self.items.len()).any(|i| self.items[i].key == k && !live[i]);
        let stale = allowed.iter().map(|(k, _)| *k).filter(|k| !needed(k));
        (flagged.collect(), stale.map(String::from).collect())
    }
}

/// Whether `code` starts a `use` item, of any visibility.
fn is_use(code: &str) -> bool {
    let vis = code.split_once("use ").map(|(vis, _)| vis);
    matches!(vis, Some("" | "pub "))
        || vis.is_some_and(|v| v.starts_with("pub(") && v.ends_with(") "))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether the struct body around the start of `rest` is a pattern: the
/// brace that closes it is followed, past any `)`, by `=`, `=>`, `|`,
/// `:`, `if` or `in`.
fn in_pattern(rest: &str) -> bool {
    let mut depth = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth > 0 => depth -= 1,
            '}' => {
                let tail =
                    rest[i + 1..].trim_start_matches(|c: char| c.is_whitespace() || c == ')');
                return (tail.starts_with('=') && !tail.starts_with("=="))
                    || tail.starts_with(['|', ':'])
                    || tail.starts_with("if ")
                    || tail.starts_with("in ");
            }
            _ => {}
        }
    }
    false
}

/// `<module>` of an allowlist key for a source at `rel`.
fn module(rel: &Path) -> String {
    let stem = rel.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = match stem {
        "lib" => rel.parent().and_then(Path::parent),
        "mod" => rel.parent(),
        _ => None,
    };
    let name = dir.and_then(|d| d.file_name()).and_then(|s| s.to_str());
    name.unwrap_or(stem).to_string()
}

/// `line` without a trailing `//` comment, and without trailing blanks.
fn code_of(line: &str) -> &str {
    let mut quotes = 0;
    for (i, c) in line.char_indices() {
        match c {
            '"' => quotes += 1,
            '/' if quotes % 2 == 0 && line[i + 1..].starts_with('/') => {
                return line[..i].trim_end()
            }
            _ => {}
        }
    }
    line.trim_end()
}

/// Index of the last line of the item whose first line is `lines[start]`:
/// the same line when it ends the item, the first line ending in `;`
/// for a wrapped `=`, else the next line at the same indent that closes.
fn item_end(lines: &[&str], start: usize) -> usize {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let closes = |l: &str| code_of(l).ends_with([';', '}', ',']);
    let first = code_of(lines[start]);
    if closes(first) {
        return start;
    }
    let wrapped = first.ends_with('=');
    (start + 1..lines.len())
        .find(|&j| {
            let at_indent = !lines[j].trim().is_empty() && indent(lines[j]) == indent(first);
            (wrapped && code_of(lines[j]).ends_with(';'))
                || (!wrapped && at_indent && closes(lines[j]))
        })
        .unwrap_or(lines.len() - 1)
}

/// The self type's and the trait's last path segment of the `impl`
/// header that starts at `lines[i]`, and the index of its `{` line.
fn impl_names(lines: &[&str], i: usize) -> Option<(Vec<String>, usize)> {
    let code = lines[i].trim_start();
    let code = code.strip_prefix("unsafe ").unwrap_or(code);
    if !(code.starts_with("impl ") || code.starts_with("impl<")) {
        return None;
    }
    let end = (i..lines.len()).find(|&j| lines[j].contains('{'))?;
    let header: Vec<&str> = lines[i..=end].iter().map(|l| code_of(l)).collect();
    let header = header.join(" ");
    let header = header.split('{').next()?.split(" where").next()?;
    let mut depth = 0;
    let mut words = Vec::new();
    let mut word = String::new();
    for c in header[header.find("impl")? + 4..].chars() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ if depth == 0 && is_ident(c) => word.push(c),
            _ => {}
        }
        if !is_ident(c) && !word.is_empty() {
            words.push(std::mem::take(&mut word));
        }
    }
    words.push(word);
    words.retain(|w| !w.is_empty() && !matches!(w.as_str(), "dyn" | "mut"));
    let names = match words.iter().position(|w| w == "for") {
        Some(f) => vec![words.last()?.clone(), words[f - 1].clone()],
        None => vec![words.last()?.clone()],
    };
    Some((names, end))
}

/// The kind and name of the public item declared by a line, `code`,
/// indented by `indent` in the innermost open struct, enum or impl.
fn declared(code: &str, open: Option<&Open>, indent: usize) -> Option<(Kind, String)> {
    let ident = |s: &str| s.chars().take_while(|&c| is_ident(c)).collect::<String>();
    let body = open.filter(|o| o.indent + 4 == indent).and_then(|o| o.item);
    if body.is_some() && code.starts_with(|c: char| c.is_ascii_uppercase()) {
        return Some((Kind::Variant, ident(code)));
    }
    let rest = code.strip_prefix("pub ")?;
    let name = ident(rest);
    let after = &rest[name.len()..];
    if body.is_some() && after.starts_with(':') && !after.starts_with("::") {
        return Some((Kind::Field, name));
    }
    let mut words = rest.split_whitespace().peekable();
    let mut kw = words.next()?;
    while matches!(kw, "unsafe" | "async" | "extern" | "\"C\"")
        || (kw == "const" && matches!(words.peek(), Some(&"fn" | &"unsafe")))
    {
        kw = words.next()?;
    }
    let mut name = words.next()?;
    if name == "mut" {
        name = words.next()?;
    }
    let item = matches!(
        kw,
        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
    );
    item.then(|| (Kind::Item, ident(name)))
}

fn normalize(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in path.components() {
        match c {
            Component::ParentDir => {
                out.pop();
            }
            Component::CurDir => {}
            c => out.push(c),
        }
    }
    out
}

fn write_if_changed(path: &Path, bytes: &[u8]) {
    if fs::read(path).ok().as_deref() != Some(bytes) {
        fs::create_dir_all(path.parent().expect("parent")).expect("copy dir");
        fs::write(path, bytes).expect("copy written");
    }
}

/// Removes the sources and manifests under `root` that this run did not
/// copy, so a deleted file cannot keep an item alive.
fn prune(root: &Path, rel: &Path, copied: &HashSet<&Path>) {
    for entry in fs::read_dir(root.join(rel)).expect("copy dir") {
        let entry = entry.expect("dir entry");
        let rel = rel.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            prune(root, &rel, copied);
        } else if rel.extension().is_some_and(|e| e == "rs") && !copied.contains(rel.as_path()) {
            fs::remove_file(root.join(&rel)).expect("stale copy removed");
        }
    }
}

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("caller-lint");
    let checks: [(&str, &[&str]); 2] = [
        (".", &["--workspace", "--lib", "--bins", "--examples"]),
        ("benchmark", &["--bins"]),
    ];
    let model = Model::check(&repo_root(), &work, &checks);
    assert!(model.items.len() > 500, "expected a populated crates/ tree");
    let (flagged, stale) = model.flag(UNCALLED_ALLOWED);
    let listed: Vec<String> = flagged
        .iter()
        .map(|f| format!("{}:{}: {} [{}]", f.path.display(), f.line, f.key, f.why))
        .collect();
    assert!(
        flagged.is_empty(),
        "{} public item(s) have no user outside tests and benches; delete them, move them \
         under #[cfg(test)], or allowlist them with a reason:\n{}",
        flagged.len(),
        listed.join("\n")
    );
    assert!(
        stale.is_empty(),
        "allowlist entries that are used or gone: {stale:?}"
    );
}

const FIXTURE_LIB: &str = r##"
pub fn used() {}
pub fn planted() {}
pub const fn also_planted() -> u8 {
    0
}
pub(crate) fn narrow() {}
pub fn called_in_test_only() {}
pub fn called_in_comment_only() {}
pub fn called_in_string_only() {}
pub fn called_by_user() {}

pub mod prelude {
    pub use super::re_exported_only;
}
pub fn re_exported_only() {}

#[derive(Debug)]
pub struct Holder {
    pub field_namesake: u8,
    pub written_only: u8,
}

impl Holder {
    pub fn new() -> Self {
        Holder {
            field_namesake: 0,
            written_only: 1,
        }
    }
    pub fn field_namesake(&self) -> u8 {
        2
    }
    pub fn local_namesake(&self, n: u8) -> u8 {
        let local_namesake = n;
        local_namesake
    }
    pub fn same_name(&self) -> u8 {
        3
    }
    pub fn assoc_by_path() -> u8 {
        4
    }
}

pub struct Other;

impl Other {
    pub fn same_name(&self) -> u8 {
        5
    }
}

pub fn free_as_value(x: u8) -> u8 {
    x
}

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

pub enum Mode {
    Named,
    Unnamed,
}

pub trait Shape {
    fn area(&self) -> u8;
}

pub struct Square;

impl Square {
    pub fn area(&self) -> u8 {
        4
    }
}

impl Shape for Square {
    fn area(&self) -> u8 {
        self.area()
    }
}

fn total(shape: &dyn Shape) -> u8 {
    shape.area()
}

/// Calls `called_in_comment_only()` in a doc comment.
fn caller() -> String {
    used();
    // called_in_comment_only();
    /* called_in_comment_only(); */
    let _ = "called_in_string_only()";
    let _ = r#"called_in_string_only()"#;
    let mut h = Holder::new();
    h.written_only = h.field_namesake;
    let _ = [h.same_name(), Holder::assoc_by_path(), total(&Square)].map(free_as_value);
    let _ = (Mode::Named, h);
    format!("{SHOWN_IN_FORMAT:>8} {{ESCAPED_ONLY}}")
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {
        super::called_in_test_only();
    }
}

#[cfg(test)]
pub fn cfg_test_helper() {
    called_in_test_only();
}
"##;

/// What the lint flags in the fixture that a scan by name alone already
/// catches: calls only in `#[cfg(test)]` items, comments and strings.
const FLAGGED_PAST_NON_CODE: [(&str, &str); 5] = [
    ("demo::planted", NO_USE),
    ("demo::also_planted", NO_USE),
    ("demo::called_in_test_only", NO_USE),
    ("demo::called_in_comment_only", NO_USE),
    ("demo::called_in_string_only", NO_USE),
];

/// What the lint flags in the fixture by reading `use` items, call
/// syntax and types, in source order after [`FLAGGED_PAST_NON_CODE`].
const FLAGGED_BY_RESOLUTION: [(&str, &str); 10] = [
    ("demo::re_exported_only", NO_USE),
    ("demo::Holder::written_only", "written, never read"),
    ("demo::Holder::field_namesake", NO_USE),
    ("demo::Holder::local_namesake", NO_USE),
    ("demo::Other::same_name", NO_USE),
    ("demo::OnlyInOwnImpl", DEAD),
    ("demo::OnlyInOwnImpl::build", NO_USE),
    ("demo::only_the_dead_type_calls", DEAD),
    ("demo::ESCAPED_ONLY", NO_USE),
    ("demo::Mode::Unnamed", NO_USE),
];

const NO_USE: &str = "no use";
const DEAD: &str = "used only by its own impls or flagged code";

/// The lint's model of a planted two-crate workspace: the library
/// [`FIXTURE_LIB`] and a binary that uses it. Built once per test run.
fn planted_fixture() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| {
        let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("caller-lint-fixture");
        let src = tmp.join("tree");
        let package = |name: &str, deps: &str| {
            format!(
                "[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n{deps}"
            )
        };
        let files = [
            (
                "Cargo.toml",
                "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n".into(),
            ),
            ("crates/demo/Cargo.toml", package("demo", "")),
            ("crates/demo/src/lib.rs", FIXTURE_LIB.into()),
            (
                "crates/user/Cargo.toml",
                package("user", "[dependencies]\ndemo = { path = \"../demo\" }\n"),
            ),
            (
                "crates/user/src/main.rs",
                "fn main() {\n    demo::called_by_user();\n    let _: Option<demo::Other> = None;\n}\n"
                    .into(),
            ),
        ];
        for (path, text) in &files {
            write_if_changed(&src.join(path), text.as_bytes());
        }
        Model::check(&src, &tmp, &[(".", &["--workspace", "--lib", "--bins"])])
    })
}

/// The `(key, why)` of each item the lint flags in the fixture under
/// `allowed`, checked to be planted in one of the two expected lists.
fn fixture_flags(allowed: &[(&str, &str)]) -> Vec<(String, &'static str)> {
    let flagged = planted_fixture().flag(allowed).0;
    let flagged: Vec<(String, &str)> = flagged.into_iter().map(|f| (f.key, f.why)).collect();
    let planted = |key: &str| {
        (FLAGGED_PAST_NON_CODE.iter())
            .chain(&FLAGGED_BY_RESOLUTION)
            .any(|&(k, _)| k == key)
    };
    let unplanted: Vec<&String> = flagged
        .iter()
        .map(|(k, _)| k)
        .filter(|k| !planted(k))
        .collect();
    assert!(unplanted.is_empty(), "flagged used items: {unplanted:?}");
    flagged
}

/// `expected`, with owned keys, for comparison with [`fixture_flags`].
fn owned(expected: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    expected.iter().map(|&(k, w)| (k.to_string(), w)).collect()
}

/// The lint flags planted unused `pub` items, and a call that sits in a
/// `#[cfg(test)]` item, a comment or a string literal does not count;
/// `pub(crate)` items are not checked, and a call from another crate of
/// the workspace counts.
#[test]
fn caller_scanner_ignores_tests_comments_and_strings() {
    let flagged = fixture_flags(&[]);
    assert_eq!(
        flagged[..FLAGGED_PAST_NON_CODE.len()],
        owned(&FLAGGED_PAST_NON_CODE)
    );
    for used in ["demo::used", "demo::narrow", "demo::called_by_user"] {
        assert!(flagged.iter().all(|(k, _)| k != used), "{used} is flagged");
    }

    // The line of a flagged declaration is reported.
    let (flagged, _) = planted_fixture().flag(&[]);
    assert_eq!(flagged[0].path, Path::new("crates/demo/src/lib.rs"));
    assert_eq!(flagged[0].line, 3, "`planted` is on line 3");
    // An allowlist entry lifts exactly its own key; one that names a used
    // item is stale.
    let allowed = [("demo::planted", "reason"), ("demo::used", "reason")];
    let expect = [&FLAGGED_PAST_NON_CODE[1..], &FLAGGED_BY_RESOLUTION].concat();
    assert_eq!(fixture_flags(&allowed), owned(&expect));
    assert_eq!(planted_fixture().flag(&allowed).1, ["demo::used"]);
}

/// What only resolution tells apart: a fn named only in a `pub use`;
/// methods whose only namesakes are a field, a local, or the called
/// same-named method of another type; a field that is written but never
/// read (its struct derives `Debug`); a type named only in its own
/// `impl`, with the fn only that `impl` calls; a const inside an escaped
/// `{{...}}` while one a format string captures is used; a variant
/// nothing names. An inherent method reached only through a forwarding
/// trait impl is not flagged.
#[test]
fn caller_scanner_reads_use_items_call_syntax_and_types() {
    let flagged = fixture_flags(&[]);
    assert_eq!(
        flagged[FLAGGED_PAST_NON_CODE.len()..],
        owned(&FLAGGED_BY_RESOLUTION)
    );
    for used in [
        "demo::Holder::same_name",
        "demo::Holder::assoc_by_path",
        "demo::free_as_value",
        "demo::SHOWN_IN_FORMAT",
        "demo::Mode::Named",
        "demo::Square::area",
        "demo::Shape",
    ] {
        assert!(flagged.iter().all(|(k, _)| k != used), "{used} is flagged");
    }
}
