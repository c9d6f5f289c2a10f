//! Guards against dead public surface, std only.
//!
//! 1. Caller-less modules: every `crates/*/src/<module>.rs` must be
//!    mentioned — by one of its top-level `pub` item names or as
//!    `<module>::` — in the non-test, non-comment, non-`pub use` code of
//!    some *other* source file. A re-export alone does not count: three
//!    whole modules once lived behind nothing but their `pub use` line.
//! 2. Caller-less items: every `pub fn`/`struct`/`enum`/`trait`/`type`/
//!    `const`/`static` under `crates/*/src` must be used in its own
//!    file's non-test code or named, as a whole identifier, in the code
//!    of some other file: `crates/*/{src,tests,examples}`, `src`,
//!    `examples`, `tests` or `benchmark/src`. A `fn` is named only in
//!    call syntax, so a field or a local that shares its name does not
//!    keep it alive. The failure lists one `file: [Owner::]name` per
//!    line; matching is by name, not type, so deleting one item can
//!    expose another that only shared its name.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Modules reached only by an integration test that demonstrates a
/// paper section; wiring them into a bed is parked feature work.
const ALLOW: &[(&str, &str)] = &[
    ("rdmasim/src/ud.rs", "tests/ud_backup_ring.rs, §5 UD rings"),
    ("iommu/src/nested.rs", "tests/nested_translation.rs, §2.4"),
];

/// `(file, item, reason)`: public items kept without a caller.
const ALLOW_ITEMS: &[(&str, &str, &str)] = &[(
    "tcpsim/src/conn.rs",
    "TcpConnection::close",
    "the orderly-close half of the TCP state machine (FIN_WAIT, CLOSE_WAIT, \
     LAST_ACK), pinned by conn.rs tests; no bed closes a connection before its \
     run ends, and deleting it means deleting four states, not one method",
)];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's code without `//` comments (doc comments and doctests
/// included) and without `pub use` statements. Unless `with_tests`, a
/// `#[cfg(test)] mod` ends the code and a lone `#[cfg(test)]` item is
/// skipped.
fn code(path: &Path, with_tests: bool) -> String {
    let text = fs::read_to_string(path).expect("readable source");
    let lines: Vec<&str> = text.lines().collect();
    let mut code = String::new();
    let (mut i, mut in_pub_use) = (0, false);
    while i < lines.len() {
        if !with_tests && lines[i] == "#[cfg(test)]" {
            let attrs = |l: &&&str| l.starts_with("//") || l.starts_with("#[");
            let item = i + 1 + lines[i + 1..].iter().take_while(attrs).count();
            match lines.get(item) {
                None => break,
                Some(l) if l.starts_with("mod ") => break,
                Some(l) if l.ends_with(';') => i = item + 1,
                Some(_) => i = item + lines[item..].iter().take_while(|&&l| l != "}").count() + 1,
            }
            continue;
        }
        let line = lines[i].split("//").next().unwrap_or("");
        in_pub_use |= line.trim_start().starts_with("pub use ");
        if !in_pub_use {
            code.push_str(line);
            code.push('\n');
        }
        in_pub_use &= !line.contains(';');
        i += 1;
    }
    code
}

/// The file's non-test code.
fn live_code(path: &Path) -> String {
    code(path, false)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `word` occurs in `code` as a whole identifier, or — for a
/// `module::` handle — as the start of a path.
fn mentions(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(i, _)| {
        let open_end = word.ends_with("::") || !code[i + word.len()..].starts_with(is_ident);
        open_end && !code[..i].ends_with(is_ident)
    })
}

/// The `pub` items of the given `kinds` that `code` defines, as
/// `(owner, kind, name)`: `owner` is `None` at top level, else the type
/// of the enclosing `impl` block (empty inside any other block).
fn pub_items<'a>(code: &'a str, kinds: &[&str]) -> Vec<(Option<String>, &'a str, String)> {
    let (mut owner, mut items) = (String::new(), Vec::new());
    for line in code.lines() {
        let nested = line.starts_with(char::is_whitespace);
        if !nested && !line.is_empty() {
            let head = line.strip_prefix("impl").unwrap_or("");
            let head = head.split('{').next().unwrap_or("");
            let ty = head.rsplit(" for ").next().unwrap_or(head);
            let ty = ty.split_whitespace().last().unwrap_or("");
            owner = ty.chars().take_while(|&c| is_ident(c)).collect();
        }
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let rest = rest
            .strip_prefix("const ")
            .filter(|r| r.starts_with("fn "))
            .unwrap_or(rest);
        let mut words = rest.split_whitespace();
        if let Some(kind) = words.next().filter(|w| kinds.contains(w)) {
            let name: String = words
                .next()
                .unwrap_or("")
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            if !name.is_empty() {
                items.push((nested.then(|| owner.clone()), kind, name));
            }
        }
    }
    items
}

/// `<module>::` plus the names of the file's top-level `pub` items.
fn handles(module: &Path) -> Vec<String> {
    let stem = module.file_stem().expect("file name").to_string_lossy();
    let kinds = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let code = live_code(module);
    let items = pub_items(&code, &kinds).into_iter();
    let top_level = items
        .filter(|(owner, ..)| owner.is_none())
        .map(|(.., name)| name);
    std::iter::once(format!("{stem}::"))
        .chain(top_level)
        .collect()
}

/// The `.rs` files of `crates/*/src` and every file that may call them.
fn workspace(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let (mut defining, mut callers) = (Vec::new(), Vec::new());
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    for krate in crates.flatten().map(|k| k.path()) {
        rust_files(&krate.join("src"), &mut defining);
        for dir in ["tests", "examples"] {
            rust_files(&krate.join(dir), &mut callers);
        }
    }
    for dir in ["src", "examples", "tests", "benchmark/src"] {
        rust_files(&root.join(dir), &mut callers);
    }
    callers.extend(defining.iter().cloned());
    (defining, callers)
}

#[test]
fn every_module_has_a_caller_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, _) = workspace(root);
    let mut sources = defining.clone();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let sources: Vec<(String, PathBuf)> = sources.into_iter().map(|p| (live_code(&p), p)).collect();
    let mut orphans: Vec<&Path> = defining
        .iter()
        .filter(|m| m.parent().is_some_and(|dir| dir.ends_with("src")))
        .filter(|m| !m.ends_with("lib.rs") && !ALLOW.iter().any(|(path, _)| m.ends_with(path)))
        .filter(|&m| {
            let handles = handles(m);
            !sources
                .iter()
                .any(|(code, p)| p != m && handles.iter().any(|h| mentions(code, h)))
        })
        .map(|m| m.strip_prefix(root).expect("under root"))
        .collect();
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "caller-less modules (wire in, delete, or allow-list with a reason): {orphans:?}"
    );
}

/// How often `code` names each identifier: `(in any form, in call syntax)`.
/// Call syntax is `name(`, `.name(`, `name::<` or a `::name` path, but
/// not `fn name(`: a field or a local of the same name does not call a
/// method.
fn identifiers(code: &str) -> HashMap<&str, (usize, usize)> {
    let mut ids: HashMap<&str, (usize, usize)> = HashMap::new();
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (is_ident(c), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                let (before, after) = (&code[..s], &code[i..]);
                let call = after.starts_with('(') || after.starts_with("::<");
                let call = before.ends_with("::") || (call && !before.ends_with("fn "));
                let n = ids.entry(&code[s..i]).or_default();
                *n = (n.0 + 1, n.1 + usize::from(call));
                start = None;
            }
            _ => {}
        }
    }
    ids
}

#[test]
fn every_pub_item_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, callers) = workspace(root);
    let texts: Vec<String> = callers.iter().map(|p| code(p, true)).collect();
    // Per identifier, the files that name it: `.0` in any form, `.1` in call syntax.
    let mut named: HashMap<&str, (HashSet<&Path>, HashSet<&Path>)> = HashMap::new();
    for (text, path) in texts.iter().zip(&callers) {
        for (word, (_, calls)) in identifiers(text) {
            let files = named.entry(word).or_default();
            files.0.insert(path);
            if calls > 0 {
                files.1.insert(path);
            }
        }
    }
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    let mut orphans = Vec::new();
    for file in &defining {
        let own = live_code(file);
        let own_ids = identifiers(&own);
        let rel = file
            .strip_prefix(root.join("crates"))
            .expect("under crates/");
        for (owner, kind, name) in pub_items(&own, &kinds) {
            let item = owner
                .filter(|o| !o.is_empty())
                .map_or_else(|| name.clone(), |o| format!("{o}::{name}"));
            // A fn counts only where it is called; the definition itself is one mention.
            let is_fn = kind == "fn";
            let (any, calls) = own_ids.get(name.as_str()).copied().unwrap_or_default();
            let used_here = if is_fn { calls > 0 } else { any > 1 };
            let used_elsewhere = named.get(name.as_str()).is_some_and(|(any, called)| {
                let files = if is_fn { called } else { any };
                files.iter().any(|f| f != file)
            });
            let allowed = ALLOW_ITEMS
                .iter()
                .any(|(f, i, _)| rel.ends_with(f) && *i == item);
            if !used_here && !used_elsewhere && !allowed {
                orphans.push(format!("{}: {item}", rel.display()));
            }
        }
    }
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "{} caller-less pub items, each `file: [Owner::]name` (call it from a bed, bin, test or \
         example, delete it, or allow-list it with a reason):\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}
