//! Guard against caller-less modules: every `crates/*/src/<module>.rs`
//! must be mentioned — by one of its top-level `pub` item names or as
//! `<module>::` — in the non-test, non-comment, non-`pub use` code of
//! some *other* source file. A re-export alone does not count: three
//! whole modules once lived behind nothing but their `pub use` line.

use std::fs;
use std::path::{Path, PathBuf};

/// Modules reached only by an integration test that demonstrates a
/// paper section; wiring them into a bed is parked feature work.
const ALLOW: &[(&str, &str)] = &[
    ("rdmasim/src/ud.rs", "tests/ud_backup_ring.rs, §5 UD rings"),
    ("iommu/src/nested.rs", "tests/nested_translation.rs, §2.4"),
];

fn rust_files(dir: &Path, recurse: bool, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.is_dir() && recurse {
            rust_files(&path, true, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's code before its first `#[cfg(test)]`, without `//`
/// comments and without `pub use` statements.
fn live_code(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("readable source");
    let mut code = String::new();
    let mut in_pub_use = false;
    for line in text.split("#[cfg(test)]").next().unwrap_or("").lines() {
        let line = line.split("//").next().unwrap_or("");
        in_pub_use |= line.trim_start().starts_with("pub use ");
        if !in_pub_use {
            code.push_str(line);
            code.push('\n');
        }
        in_pub_use &= !line.contains(';');
    }
    code
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

/// `<module>::` plus the names of the file's top-level `pub` items.
fn handles(module: &Path) -> Vec<String> {
    let stem = module.file_stem().expect("file name").to_string_lossy();
    let mut names = vec![format!("{stem}::")];
    for line in live_code(module).lines() {
        let mut words = line.strip_prefix("pub ").unwrap_or("").split_whitespace();
        let kinds = "fn struct enum trait type const static mod";
        if words
            .next()
            .is_some_and(|w| kinds.split(' ').any(|k| k == w))
        {
            let name = words.next().unwrap_or("");
            names.push(name.chars().take_while(|&c| is_ident(c)).collect());
        }
    }
    names.retain(|n| !n.is_empty());
    names
}

#[test]
fn every_module_has_a_caller_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut modules, mut sources) = (Vec::new(), Vec::new());
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    for src in crates.flatten().map(|krate| krate.path().join("src")) {
        rust_files(&src, false, &mut modules);
        rust_files(&src, true, &mut sources);
    }
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), true, &mut sources);
    }
    let sources: Vec<(String, PathBuf)> = sources.into_iter().map(|p| (live_code(&p), p)).collect();
    let mut orphans: Vec<&Path> = modules
        .iter()
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
