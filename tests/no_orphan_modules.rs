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
//!    keep it alive, and a type is not kept alive by its own `impl`
//!    blocks. The failure lists one `file: [Owner::]name` per line;
//!    matching is by name, not type, so deleting one item can expose
//!    another that only shared its name.
//! 3. Single-value config fields: every `pub` field of every `pub struct
//!    *Config` under `crates/*/src` must be given two distinct values by
//!    non-test code (`crates/*/src` before `#[cfg(test)]`, `src`,
//!    `benchmark/src`): a field one value serves is a constant. See
//!    `every_config_field_takes_two_values` for what counts as a value.
//! 4. Test-only state changes: every `pub fn` under `crates/*/src` but
//!    the `&self` methods, which only observe, is called by non-test
//!    code as 3 defines it. Tests and examples may not keep a mutation
//!    alive.
//! 5. Test-only variants: every variant of a `pub enum` under
//!    `crates/*/src` is named by non-test code outside a pattern; one
//!    that only `match` arms mention is never built. See `in_pattern`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

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
/// included) and without `pub use` statements.
fn code(path: &Path, with_tests: bool) -> String {
    strip(
        &fs::read_to_string(path).expect("readable source"),
        with_tests,
    )
}

/// `text` without `//` comments and `pub use` statements. Unless
/// `with_tests`, a `#[cfg(test)] mod` ends the code and a lone
/// `#[cfg(test)]` item is skipped.
fn strip(text: &str, with_tests: bool) -> String {
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

/// The type a top-level `impl` line implements (`impl Trait for Ty` or
/// `impl Ty`), or `""` for any other line.
fn impl_owner(line: &str) -> String {
    let head = line.strip_prefix("impl").unwrap_or("");
    let head = head.split('{').next().unwrap_or("");
    let ty = head.rsplit(" for ").next().unwrap_or(head);
    let ty = ty.split_whitespace().last().unwrap_or("");
    ty.chars().take_while(|&c| is_ident(c)).collect()
}

/// The `pub` items of the given `kinds` that `code` defines, as
/// `(owner, kind, name)`: `owner` is `None` at top level, else the type
/// of the enclosing `impl` block (empty inside any other block).
fn pub_items<'a>(code: &'a str, kinds: &[&str]) -> Vec<(Option<String>, &'a str, String)> {
    let (mut owner, mut items) = (String::new(), Vec::new());
    for line in code.lines() {
        let nested = line.starts_with(char::is_whitespace);
        if !nested && !line.is_empty() {
            owner = impl_owner(line);
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

/// `code` without the top-level `impl` blocks of type `ty`.
fn without_impls_of(code: &str, ty: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in code.lines() {
        inside |= line.starts_with("impl") && impl_owner(line) == ty;
        if !inside {
            out.push_str(line);
            out.push('\n');
        }
        let block_ends = line.starts_with('}') || (line.starts_with("impl") && line.ends_with('}'));
        inside &= !block_ends;
    }
    out
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
        .filter(|m| !m.ends_with("lib.rs"))
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
        "caller-less modules (wire in or delete): {orphans:?}"
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
    let text_of: HashMap<&Path, &String> =
        callers.iter().map(PathBuf::as_path).zip(&texts).collect();
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
            // A type's own `impl` blocks (its constructors, its `Default`)
            // do not use it.
            let is_type = kind == "struct" || kind == "enum";
            let uses = |code: &str| {
                let code = if is_type {
                    without_impls_of(code, &name)
                } else {
                    code.to_owned()
                };
                identifiers(&code)
                    .get(name.as_str())
                    .copied()
                    .unwrap_or_default()
            };
            let (any, calls) = if is_type {
                uses(&own)
            } else {
                own_ids.get(name.as_str()).copied().unwrap_or_default()
            };
            let used_here = if is_fn { calls > 0 } else { any > 1 };
            let used_elsewhere = named.get(name.as_str()).is_some_and(|(any, called)| {
                let files = if is_fn { called } else { any };
                files
                    .iter()
                    .any(|&f| f != file && (!is_type || uses(text_of[f]).0 > 0))
            });
            if !used_here && !used_elsewhere {
                orphans.push(format!("{}: {item}", rel.display()));
            }
        }
    }
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "{} caller-less pub items, each `file: [Owner::]name` (call it from a bed, bin, test or \
         example, or delete it):\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}

// ---------------------------------------------------------------------
// 3. Config fields.

/// `(file, Config::field, reason)`: fields kept although no non-test
/// code gives them two values. Two reasons qualify: `benchmark/src`
/// names the field (it must build unchanged), or a test needs a regime
/// the constant cannot reach — the entry names the test and the regime.
const ALLOW_FIELDS: &[(&str, &str, &str)] = &[
    (
        "core/src/npf.rs",
        "NpfConfig::iotlb_entries",
        "benchmark/src/kernels.rs sizes its Iommu from it",
    ),
    (
        "netsim/src/link.rs",
        "LinkConfig::propagation",
        "benchmark/src/kernels.rs writes it in the literal of its Ethernet link",
    ),
    (
        "netsim/src/profile.rs",
        "TransportConfig::bdp_packets",
        "benchmark/src/kernels.rs copies it into the RcConfig of its loopback QPs",
    ),
    (
        "memsim/src/manager.rs",
        "MemConfig::swap_capacity",
        "manager::tests::{swap_exhaustion_is_reported, swap_in_frees_slot_for_reuse} shrink \
         swap to one or two slots to reach SwapFull and slot reuse; no test fills 16 GiB",
    ),
    (
        "rdmasim/src/types.rs",
        "RcConfig::window_packets",
        "rc::tests::{window_limits_outstanding_packets, window_refills_on_ack} close a 2-4 \
         packet window within one message; a 128-packet window never fills in a unit test",
    ),
    (
        "rdmasim/src/types.rs",
        "RcConfig::max_retries",
        "chaos_sweep::run_ib, par_determinism::chaos_ib_task and transport_differential \
         raise it to 100 000 so QPs outlive injected loss (they assert liveness); \
         rc::tests::retry_exhaustion_errors_the_qp lowers it to 2 to reach the error state",
    ),
    (
        "rdmasim/src/types.rs",
        "RcConfig::max_rnr_retries",
        "the same chaos and differential suites raise it to 100 000 to outlive RNR storms; \
         rc::tests::rnr_retry_exhaustion_errors_qp lowers it to 3 to reach the error state",
    ),
    (
        "rdmasim/src/types.rs",
        "RcConfig::ack_every",
        "lossy_fabric_stress acks every 4 packets so recovery on a 5% lossy link needs \
         no full window; rc::tests::window_refills_on_ack acks every 2 to refill a \
         2-packet window",
    ),
];

/// `text` with comments blanked and every character inside a string or
/// char literal that is not a letter or digit turned into `_`, so no
/// bracket, comma or `=` in a literal parses as code. Lines are kept and
/// the result is ASCII, so byte offsets are char offsets.
fn mask(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or(' ');
    let inert = |ch: char| match ch {
        '\n' => '\n',
        ch if ch.is_ascii_alphanumeric() => ch,
        _ => '_',
    };
    let (mut out, mut i) = (String::with_capacity(text.len()), 0);
    while i < c.len() {
        let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
        let raw = at(i) == 'r' && at(i + 1 + hashes) == '"' && !is_ident(at(i.wrapping_sub(1)));
        if at(i) == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if at(i) == '/' && at(i + 1) == '*' {
            let end = (i + 2..c.len()).find(|&j| c[j] == '*' && at(j + 1) == '/');
            let end = end.map_or(c.len(), |j| j + 2);
            out.extend(
                c[i..end]
                    .iter()
                    .map(|&ch| if ch == '\n' { '\n' } else { ' ' }),
            );
            i = end;
        } else if raw {
            let body = i + 2 + hashes;
            let closes = |j: &usize| c[*j] == '"' && (1..=hashes).all(|k| at(j + k) == '#');
            let end = (body..c.len()).find(closes).unwrap_or(c.len());
            out.push_str("r\"");
            out.extend(c[body..end].iter().map(|&ch| inert(ch)));
            out.push('"');
            i = end + 1 + hashes;
        } else if at(i) == '"' || (at(i) == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'')) {
            let quote = c[i];
            out.push(quote);
            i += 1;
            while i < c.len() && c[i] != quote {
                let n = if c[i] == '\\' { 2 } else { 1 };
                out.extend(c[i..(i + n).min(c.len())].iter().map(|&ch| inert(ch)));
                i += n;
            }
            out.push(quote);
            i += 1;
        } else {
            out.push(if c[i].is_ascii() { c[i] } else { '_' });
            i += 1;
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier ending right before byte `end` (skipping whitespace),
/// and where it starts.
fn ident_before(code: &str, end: usize) -> (&str, usize) {
    let end = code[..end].trim_end().len();
    let start = code[..end].trim_end_matches(|c: char| is_ident(c)).len();
    (&code[start..end], start)
}

/// The identifier starting at byte `start`.
fn ident_at(code: &str, start: usize) -> &str {
    let len = code[start..]
        .find(|c: char| !is_ident(c))
        .unwrap_or(code.len() - start);
    &code[start..start + len]
}

/// The index of the bracket closing the one at `open`.
fn close_of(code: &str, open: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return i;
        }
    }
    code.len()
}

/// The index of the bracket opening the one at `close`.
fn open_of(code: &str, close: usize) -> usize {
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        match code.as_bytes()[i] {
            b')' | b']' | b'}' => depth += 1,
            b'(' | b'[' | b'{' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return i;
        }
    }
    0
}

/// `text` split at the commas outside any bracket, each part trimmed,
/// empty parts dropped.
fn split_top(text: &str) -> Vec<&str> {
    let (mut parts, mut depth, mut from) = (Vec::new(), 0i32, 0);
    for (i, b) in text.bytes().enumerate().chain([(text.len(), b',')]) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(text[from..i].trim());
                from = i + 1;
            }
            _ => {}
        }
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// The named type `ty` is about: `&'a mut Option<a::B<C>>` is `B`.
fn base_type(ty: &str) -> String {
    let mut words = ty
        .split(|c: char| !is_ident(c) && c != '\'')
        .filter(|w| !w.is_empty());
    let skip = ["Option", "Result", "Box", "mut", "dyn", "impl"];
    words
        .find(|w| w.starts_with(|c: char| c.is_ascii_uppercase()) && !skip.contains(w))
        .unwrap_or("")
        .to_owned()
}

/// `expr` is built from literals, constants and paths only: every
/// lowercase identifier in it is a path segment, a method, a macro or a
/// primitive. Anything else — a variable, a parameter, a field read —
/// can differ from run to run.
fn is_literal(expr: &str) -> bool {
    let prims = [
        "true", "false", "as", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32",
        "i64", "i128", "isize", "f32", "f64", "bool", "char", "str",
    ];
    let (bytes, mut i, mut in_str) = (expr.as_bytes(), 0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' {
            in_str = !in_str;
        }
        if in_str || !is_ident_byte(b) {
            i += 1;
            continue;
        }
        let word = ident_at(expr, i);
        let (before, after) = (expr[..i].trim_end(), expr[i + word.len()..].trim_start());
        let free = b.is_ascii_lowercase() || b == b'_';
        let free = free && !prims.contains(&word) && !before.ends_with("::");
        let free =
            free && !before.ends_with('.') && !after.starts_with("::") && !after.starts_with('!');
        if free {
            return false;
        }
        i += word.len();
    }
    true
}

/// A top-level `impl` block: its byte range, the type it implements and
/// whether it is that type's `Default`.
struct Impl {
    range: (usize, usize),
    owner: String,
    is_default: bool,
}

/// A `fn`: its owner (`""` for a free fn), name, parameter names, the
/// byte range of its whole item and of its body.
struct Fn {
    owner: String,
    name: String,
    params: Vec<(String, String)>,
    item: (usize, usize),
    body: (usize, usize),
}

/// One non-test source file, masked and parsed.
struct Src {
    rel: String,
    code: String,
    impls: Vec<Impl>,
    fns: Vec<Fn>,
}

impl Src {
    fn new(root: &Path, path: &Path) -> Src {
        let text = fs::read_to_string(path).expect("readable source");
        let rel = path.strip_prefix(root).expect("under root").display();
        Src::parse(rel.to_string(), &text)
    }

    /// `text`, the source at `rel` (a path from the repository root).
    fn parse(rel: String, text: &str) -> Src {
        let code = strip(&mask(text), false);
        let (mut impls, mut fns, mut offset) = (Vec::new(), Vec::new(), 0);
        for line in code.lines() {
            if line.starts_with("impl") {
                let open = offset + line.find('{').unwrap_or(line.len());
                let head = &code[offset..open];
                impls.push(Impl {
                    range: (offset, close_of(&code, open)),
                    owner: impl_owner(&format!("{head}{{")),
                    is_default: head.contains("Default for "),
                });
            }
            offset += line.len() + 1;
        }
        for (at, _) in code.match_indices("fn ") {
            if code[..at].ends_with(is_ident) {
                continue;
            }
            let name = ident_at(&code, at + 3);
            let Some(open) = code[at..].find('(').map(|i| at + i) else {
                continue;
            };
            let close = close_of(&code, open);
            let Some(body) = code[close..].find(['{', ';']).map(|i| close + i) else {
                continue;
            };
            if code.as_bytes()[body] == b';' || name.is_empty() {
                continue;
            }
            let params = split_top(&code[open + 1..close])
                .into_iter()
                .filter_map(|p| p.split_once(':'))
                .map(|(n, t)| (n.trim_start_matches("mut ").trim().to_owned(), t.to_owned()))
                .collect();
            let owner = impls
                .iter()
                .find(|i| i.range.0 < at && at < i.range.1)
                .map_or(String::new(), |i| i.owner.clone());
            let end = close_of(&code, body);
            fns.push(Fn {
                owner,
                name: name.to_owned(),
                params,
                item: (at, end),
                body: (body, end),
            });
        }
        Src {
            rel,
            code,
            impls,
            fns,
        }
    }

    /// The `impl` block around byte `at`.
    fn impl_at(&self, at: usize) -> Option<&Impl> {
        self.impls
            .iter()
            .find(|i| i.range.0 <= at && at <= i.range.1)
    }

    /// The innermost `fn` around byte `at`.
    fn fn_at(&self, at: usize) -> Option<&Fn> {
        let around = self.fns.iter().filter(|f| f.item.0 <= at && at <= f.item.1);
        around.max_by_key(|f| f.item.0)
    }
}

/// A brace struct's fields as `(name, type, pub?)`.
type Fields = Vec<(String, String, bool)>;

/// What every struct and `fn` of the non-test code says about types.
#[derive(Default)]
struct Types {
    /// Brace structs: `name -> (pub?, fields)`.
    structs: HashMap<String, (bool, Fields)>,
    /// `pub enum` name -> the single types its tuple variants carry.
    enums: HashMap<String, Vec<String>>,
    /// `(owner, fn) -> return type`, `Self` resolved.
    returns: HashMap<(String, String), String>,
}

impl Types {
    fn learn(&mut self, src: &Src) {
        let code = &src.code;
        let mut offset = 0;
        for line in code.lines() {
            let head = line
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            let is_pub = line.starts_with("pub ");
            let open = line.find('{').map(|i| offset + i);
            if let (Some(rest), Some(open)) = (head.strip_prefix("struct "), open) {
                let fields = split_top(&code[open + 1..close_of(code, open)])
                    .into_iter()
                    .map(|mut f| {
                        while f.starts_with("#[") {
                            f = f[close_of(f, 1) + 1..].trim_start();
                        }
                        f
                    })
                    .filter_map(|f| f.split_once(':'))
                    .map(|(n, t)| {
                        let n = n.trim();
                        let public = n.starts_with("pub ");
                        (
                            n.rsplit(' ').next().unwrap_or(n).to_owned(),
                            t.trim().to_owned(),
                            public,
                        )
                    })
                    .collect();
                self.structs
                    .entry(ident_at(rest, 0).to_owned())
                    .or_insert((is_pub, fields));
            } else if let (Some(rest), Some(open), true) =
                (head.strip_prefix("enum "), open, is_pub)
            {
                let payloads = split_top(&code[open + 1..close_of(code, open)])
                    .into_iter()
                    .filter_map(|v| v.split_once('(').and_then(|(_, p)| p.strip_suffix(')')))
                    .filter(|p| p.chars().all(is_ident))
                    .map(str::to_owned)
                    .collect();
                self.enums.insert(ident_at(rest, 0).to_owned(), payloads);
            }
            offset += line.len() + 1;
        }
        for f in &src.fns {
            let sig = &code[f.item.0..f.body.0];
            if let Some((_, ret)) = sig.rsplit_once("->") {
                let ret = base_type(ret.split(" where ").next().unwrap_or(ret));
                let ret = if ret == "Self" { f.owner.clone() } else { ret };
                self.returns.insert((f.owner.clone(), f.name.clone()), ret);
            }
        }
    }

    fn field(&self, ty: &str, field: &str) -> Option<String> {
        let (_, fields) = self.structs.get(ty)?;
        let (_, t, _) = fields.iter().find(|(n, ..)| n == field)?;
        let t = base_type(t);
        Some(if t == "Self" { ty.to_owned() } else { t })
    }

    /// The type of the expression `expr`, found at byte `at` of `src`:
    /// a path call (`Ty::f(..)`), a literal (`Ty { .. }`), a free call,
    /// `self` or a local, then any chain of `.field` and `.method(..)`.
    fn type_of(&self, src: &Src, expr: &str, at: usize, depth: u32) -> Option<String> {
        let expr = expr
            .trim()
            .trim_start_matches(['&', '*'])
            .trim_start_matches("mut ")
            .trim_start();
        let mut path = Vec::new();
        let mut i = 0;
        loop {
            let word = ident_at(expr, i);
            if word.is_empty() {
                return None;
            }
            path.push(word);
            i += word.len();
            match expr[i..].strip_prefix("::") {
                Some(_) => i += 2,
                None => break,
            }
        }
        let owner = || src.impl_at(at).map(|imp| imp.owner.clone());
        let named = |name: &str| match name {
            "Self" => owner(),
            _ => Some(name.to_owned()),
        };
        let last = *path.last()?;
        let rest = expr[i..].trim_start();
        // The head: a call `Ty::f(..)` or `f(..)`, a literal `Ty { .. }`,
        // a value `Ty::Variant` or `Ty`, `self`, or a local.
        let mut ty = if rest.starts_with('(') {
            let on = match path.len() {
                1 => String::new(),
                n => named(path[n - 2])?,
            };
            i = close_of(expr, i + expr[i..].find('(')?) + 1;
            self.returns.get(&(on, last.to_owned()))?.clone()
        } else if rest.starts_with('{') {
            i = close_of(expr, i + expr[i..].find('{')?) + 1;
            named(last)?
        } else if path.len() > 1 {
            named(path[path.len() - 2])?
        } else if last == "self" {
            owner()?
        } else if last.starts_with(char::is_uppercase) {
            named(last)?
        } else {
            self.local(src, last, at, depth)?
        };
        while i < expr.len() {
            let rest = &expr[i..];
            if rest.starts_with('?') || rest.starts_with(char::is_whitespace) {
                i += 1;
            } else if let Some(member) = rest.strip_prefix('.') {
                let name = ident_at(member, 0);
                i += 1 + name.len();
                if expr[i..].starts_with('(') {
                    i = close_of(expr, i) + 1;
                    ty = self.returns.get(&(ty, name.to_owned()))?.clone();
                } else {
                    ty = self.field(&ty, name)?;
                }
            } else {
                return None;
            }
        }
        Some(ty)
    }

    /// The type of the local or parameter `name` in scope at byte `at`.
    fn local(&self, src: &Src, name: &str, at: usize, depth: u32) -> Option<String> {
        let f = src.fn_at(at)?;
        let code = &src.code;
        let lets = code[f.body.0..at]
            .match_indices("let ")
            .filter_map(|(i, _)| {
                let i = f.body.0 + i + 4;
                let rest = code[i..].trim_start_matches("mut ");
                (ident_at(rest, 0) == name).then(|| (i, &rest[name.len()..]))
            });
        if let Some((i, rest)) = lets.last() {
            let rest = rest.trim_start();
            let end = rest.find(';').unwrap_or(rest.len());
            return match (rest.strip_prefix(':'), rest.strip_prefix('=')) {
                (Some(ty), _) => Some(base_type(ty.split('=').next().unwrap_or(ty))),
                (_, Some(init)) if depth < 8 => self.type_of(src, &init[..end - 1], i, depth + 1),
                _ => None,
            };
        }
        let (_, ty) = f.params.iter().find(|(n, _)| n == name)?;
        let ty = base_type(ty);
        Some(if ty == "Self" { f.owner.clone() } else { ty })
    }
}

/// The start of the receiver chain that ends right before byte `end`:
/// back over `.name`, `::name`, `(..)`, `[..]` and `?`.
fn chain_start(code: &str, end: usize) -> usize {
    let mut k = end;
    loop {
        k = code[..k].trim_end().len();
        let before = &code[..k];
        if before.ends_with(')') || before.ends_with(']') {
            k = open_of(code, k - 1);
        } else if before.ends_with('?') {
            k -= 1;
        } else if before.ends_with(is_ident) {
            k = ident_before(code, k).1;
            let prev = code[..k].trim_end();
            if prev.ends_with("::") {
                k = prev.len() - 2;
            } else if prev.ends_with('.') && !prev.ends_with("..") {
                k = prev.len() - 1;
            } else {
                return k;
            }
        } else {
            return k;
        }
    }
}

/// The end of the expression starting at byte `from`: the first `;` or
/// `,` outside brackets, or the bracket that closes around it.
fn expr_end(code: &str, from: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(from) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b')' | b']' | b'}' => depth -= 1,
            b';' | b',' if depth == 0 => return i,
            _ => {}
        }
    }
    code.len()
}

/// Where the path ending in the identifier at byte `start` begins:
/// `a::b::Ty` for `Ty`.
fn path_start(code: &str, mut start: usize) -> usize {
    while code[..start].ends_with("::") {
        start = ident_before(code, start - 2).1;
    }
    start
}

/// The values non-test code gives one config field.
#[derive(Default)]
struct Values {
    literals: BTreeSet<String>,
    varied: bool,
}

impl Values {
    fn add(&mut self, expr: &str) {
        if is_literal(expr) {
            self.literals.insert(expr.split_whitespace().collect());
        } else {
            self.varied = true;
        }
    }

    fn two(&self) -> bool {
        self.varied || self.literals.len() > 1
    }
}

/// A struct literal of a config: its fields as `(field, value)`, its
/// `..base`, whether it is the config's own `Default`, and the `fn` it
/// sits in.
struct Literal<'a> {
    ty: String,
    fields: Vec<(&'a str, &'a str)>,
    base: Option<&'a str>,
    in_default: bool,
    in_fn: Option<String>,
}

/// A method that writes config fields through `self`: per write, the
/// config, the field, and the value it stores unless that value comes
/// from the method's arguments.
struct Setter {
    owner: String,
    writes: Vec<(String, String, Option<String>)>,
}

/// Settable values of config `name` by the verify skill's rule: a field
/// whose type is a struct that only groups this config's values counts
/// that struct's fields; any other field counts 1, plus the fields of
/// an enum's tuple payloads; another `*Config` counts 1.
fn settable(types: &Types, name: &str) -> usize {
    let Some((_, fields)) = types.structs.get(name) else {
        return 0;
    };
    fields
        .iter()
        .map(|(_, ty, _)| {
            let ty = ty
                .strip_prefix("Option<")
                .and_then(|t| t.strip_suffix('>'))
                .unwrap_or(ty);
            match types.structs.get(ty) {
                Some((true, _)) if !ty.ends_with("Config") => settable(types, ty),
                _ => {
                    let payloads = types.enums.get(ty).into_iter().flatten();
                    1 + payloads.map(|p| settable(types, p)).sum::<usize>()
                }
            }
        })
        .sum()
}

/// A field is a knob only if two callers need different values of it.
/// Counted as values: the fields of every struct literal of the config
/// (`Config { .. }` or `Self { .. }` in its `impl`), every
/// `place.field = v` whose `place` resolves to the config, and every
/// call of a method that stores into a config field through `self`
/// (the `with_*` setters, the scenario builders). A value that is not
/// a literal or a constant path — a sweep variable, a flag, a field
/// read — counts as varied. The config's `Default` value counts only
/// where some construction leaves the field to it (`..Default`, a bare
/// `Config::default()`). Tests and examples do not count.
#[test]
fn every_config_field_takes_two_values() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, _) = workspace(root);
    let mut paths = defining.clone();
    for dir in ["src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    let srcs: Vec<Src> = paths.iter().map(|p| Src::new(root, p)).collect();
    let mut types = Types::default();
    srcs.iter().for_each(|s| types.learn(s));

    // The configs: `pub struct *Config` under crates/*/src, their pub fields.
    let mut configs: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    for src in srcs.iter().filter(|s| s.rel.starts_with("crates/")) {
        for line in src.code.lines() {
            let Some(name) = line.strip_prefix("pub struct ").map(|r| ident_at(r, 0)) else {
                continue;
            };
            if let (true, Some((_, fields))) = (name.ends_with("Config"), types.structs.get(name)) {
                let public = fields.iter().filter(|f| f.2).map(|f| f.0.clone()).collect();
                let rel = src.rel.trim_start_matches("crates/").to_owned();
                configs.insert(name.to_owned(), (rel, public));
            }
        }
    }
    let is_config = |ty: &str| configs.contains_key(ty);

    let mut literals = Vec::new();
    for src in &srcs {
        let code = &src.code;
        for (at, _) in code.match_indices('{') {
            let (word, start) = ident_before(code, at);
            let ty = match (word, src.impl_at(start)) {
                ("Self", Some(imp)) => imp.owner.as_str(),
                (word, _) => word,
            };
            let prev = ident_before(code, start).0;
            let prev_op = code[..start].trim_end();
            let is_item =
                ["struct", "impl", "for", "enum", "fn"].contains(&prev) || prev_op.ends_with("->");
            if !is_config(ty) || is_item {
                continue;
            }
            let (mut fields, mut base) = (Vec::new(), None);
            for part in split_top(&code[at + 1..close_of(code, at)]) {
                match (part.strip_prefix(".."), part.split_once(':')) {
                    (Some(b), _) => base = Some(b.trim()),
                    (None, Some((f, v))) => fields.push((f.trim(), v.trim())),
                    (None, None) => fields.push((part, part)),
                }
            }
            literals.push(Literal {
                ty: ty.to_owned(),
                fields,
                base,
                in_default: src
                    .impl_at(at)
                    .is_some_and(|imp| imp.is_default && imp.owner == ty),
                in_fn: src.fn_at(at).map(|f| f.name.clone()),
            });
        }
    }
    // Each config's `Default` values: its `Default` literal, or that of
    // the preset its `default()` returns.
    let mut defaults: HashMap<&str, &Vec<(&str, &str)>> = HashMap::new();
    for lit in literals.iter().filter(|lit| lit.in_default) {
        defaults.insert(&lit.ty, &lit.fields);
    }
    for src in &srcs {
        for imp in src
            .impls
            .iter()
            .filter(|i| i.is_default && is_config(&i.owner))
        {
            let body = &src.code[imp.range.0..imp.range.1];
            let preset = body.rsplit_once("::").map(|(_, r)| ident_at(r, 0));
            let found = literals
                .iter()
                .find(|lit| lit.ty == imp.owner && lit.in_fn.as_deref() == preset);
            if let (false, Some(lit)) = (defaults.contains_key(imp.owner.as_str()), found) {
                defaults.insert(&imp.owner, &lit.fields);
            }
        }
    }

    let mut values: BTreeMap<(String, String), Values> = BTreeMap::new();
    let mut record = |ty: &str, field: &str, expr: &str| {
        values
            .entry((ty.to_owned(), field.to_owned()))
            .or_default()
            .add(expr);
    };
    let record_defaults = |record: &mut dyn FnMut(&str, &str, &str), ty: &str, set: &[&str]| {
        for (field, value) in defaults.get(ty).into_iter().flat_map(|d| d.iter()) {
            if !set.contains(field) {
                record(ty, field, value);
            }
        }
    };
    let is_default_call = |expr: &str| expr.ends_with("::default()");
    for lit in literals.iter().filter(|lit| !lit.in_default) {
        for (field, value) in &lit.fields {
            record(&lit.ty, field, value);
        }
        if lit.base.is_some_and(is_default_call) {
            let set: Vec<&str> = lit.fields.iter().map(|(f, _)| *f).collect();
            record_defaults(&mut record, &lit.ty, &set);
        }
    }

    // Bare `Config::default()` leaves every field to its default;
    // `..Config::default()` was counted with its literal.
    for src in &srcs {
        let code = &src.code;
        for (at, _) in code.match_indices("::default()") {
            let (word, start) = ident_before(code, at);
            let ty = match (word, src.impl_at(start)) {
                ("Self", Some(imp)) => imp.owner.as_str(),
                (word, _) => word,
            };
            let in_own_default = src
                .impl_at(at)
                .is_some_and(|i| i.is_default && i.owner == ty);
            let spread = code[..path_start(code, start)].ends_with("..");
            if is_config(ty) && !spread && !in_own_default {
                record_defaults(&mut record, ty, &[]);
            }
        }
    }

    // `place.a.b = v`: setters when `place` is `self`, else a write of `v`.
    let mut setters: HashMap<String, Vec<Setter>> = HashMap::new();
    for src in &srcs {
        let code = &src.code;
        for (at, _) in code.match_indices(" = ") {
            let lhs_start = chain_start(code, at);
            let lhs = code[lhs_start..at].trim();
            let Some((place, field)) = lhs.rsplit_once('.') else {
                continue;
            };
            if !code[..lhs_start].trim_end().ends_with([';', '{', '}'])
                || !field.chars().all(is_ident)
            {
                continue;
            }
            let Some(ty) = types.type_of(src, place, lhs_start, 0) else {
                continue;
            };
            if !configs
                .get(&ty)
                .is_some_and(|(_, fields)| fields.iter().any(|f| f == field))
            {
                continue;
            }
            let value = code[at + 3..expr_end(code, at + 3)].trim();
            match src
                .fn_at(at)
                .filter(|_| place == "self" || place.starts_with("self."))
            {
                Some(f) => {
                    let from_args = f.params.iter().any(|(p, _)| mentions(value, p));
                    let write = (ty, field.to_owned(), (!from_args).then(|| value.to_owned()));
                    let list = setters.entry(f.name.clone()).or_default();
                    match list.iter_mut().find(|s| s.owner == f.owner) {
                        Some(s) => s.writes.push(write),
                        None => list.push(Setter {
                            owner: f.owner.clone(),
                            writes: vec![write],
                        }),
                    }
                }
                None => record(&ty, field, value),
            }
        }
    }
    for src in &srcs {
        let code = &src.code;
        for (name, list) in &setters {
            for (at, _) in code.match_indices(&format!(".{name}(")) {
                let open = at + name.len() + 1;
                let args = &code[open + 1..close_of(code, open)];
                let start = chain_start(code, at);
                let receiver = types.type_of(src, &code[start..at], start, 0);
                for s in list
                    .iter()
                    .filter(|s| receiver.as_ref().is_none_or(|r| *r == s.owner))
                {
                    for (ty, field, fixed) in &s.writes {
                        record(ty, field, fixed.as_deref().unwrap_or(args));
                    }
                }
            }
        }
    }

    let mut single = Vec::new();
    for (name, (rel, fields)) in &configs {
        println!("{name}: {} settable values", settable(&types, name));
        for field in fields {
            let item = format!("{name}::{field}");
            let two = values
                .get(&(name.clone(), field.clone()))
                .is_some_and(Values::two);
            let allowed = ALLOW_FIELDS.iter().any(|(f, i, _)| rel == f && *i == item);
            assert!(
                !(two && allowed),
                "{rel}: {item} takes two values; drop its ALLOW_FIELDS entry"
            );
            if !two && !allowed {
                single.push(format!("{rel}: {item}"));
            }
        }
    }
    for (file, item, _) in ALLOW_FIELDS {
        let (ty, field) = item.split_once("::").expect("Config::field");
        let known = configs
            .get(ty)
            .is_some_and(|(rel, fs)| rel == file && fs.iter().any(|f| f == field));
        assert!(
            known,
            "ALLOW_FIELDS names {file}: {item}, which is not a config field"
        );
    }
    assert!(
        single.is_empty(),
        "{} config fields that non-test code gives one value, each `file: Config::field` \
         (make it a constant, or allow-list it with a reason):\n  {}",
        single.len(),
        single.join("\n  ")
    );
}

// ---------------------------------------------------------------------
// 4. State changes and enum variants that only tests reach.

/// `path` (from the repository root) holds non-test code: `crates/*/src`,
/// `src` or `benchmark/src`. Tests and examples do not count.
fn is_non_test(path: &str) -> bool {
    path.starts_with("src/")
        || path.starts_with("benchmark/src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"))
}

/// The non-test sources among `files` (`(path from the root, text)`),
/// `#[cfg(test)]` code stripped.
fn non_test(files: &[(String, String)]) -> Vec<Src> {
    let files = files.iter().filter(|(p, _)| is_non_test(p));
    files.map(|(p, t)| Src::parse(p.clone(), t)).collect()
}

/// `(path from the root, text)` of every source file of the workspace.
fn workspace_texts(root: &Path) -> Vec<(String, String)> {
    let (_, files) = workspace(root);
    let text = |p: &PathBuf| fs::read_to_string(p).expect("readable source");
    let rel = |p: &PathBuf| {
        p.strip_prefix(root)
            .expect("under root")
            .display()
            .to_string()
    };
    files.iter().map(|p| (rel(p), text(p))).collect()
}

/// How `file: Owner::name` lines name an item of `src`.
fn item_of(src: &Src, owner: &str, name: &str) -> String {
    let rel = src.rel.trim_start_matches("crates/");
    match owner {
        "" => format!("{rel}: {name}"),
        owner => format!("{rel}: {owner}::{name}"),
    }
}

/// The first parameter of the `fn` whose name ends at byte `at`, its
/// generic parameters (`<R: Fn(u32) -> u32>`) skipped.
fn first_param(code: &str, mut at: usize) -> &str {
    if code[at..].starts_with('<') {
        let mut depth = 0;
        for (i, b) in code.bytes().enumerate().skip(at) {
            match b {
                b'<' => depth += 1,
                b'>' if !code[..i].ends_with('-') => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                at = i + 1;
                break;
            }
        }
    }
    let Some(open) = code[at..].find('(').map(|i| at + i) else {
        return "";
    };
    let params = &code[open + 1..close_of(code, open)];
    split_top(params).first().copied().unwrap_or("")
}

/// The `pub fn`s under `crates/*/src` that may change state — every one
/// but the methods taking `&self` — which no non-test code calls, as
/// `file: [Owner::]name`. A call is `name(`, `.name(`, `name::<` or a
/// `::name` path (a fn passed by path, `task(ablations::f)`); matching
/// is by name.
fn test_only_fns(files: &[(String, String)]) -> Vec<String> {
    let srcs = non_test(files);
    let called: HashSet<&str> = srcs
        .iter()
        .flat_map(|s| identifiers(&s.code))
        .filter(|(_, (_, calls))| *calls > 0)
        .map(|(name, _)| name)
        .collect();
    let mut orphans = Vec::new();
    for src in srcs.iter().filter(|s| s.rel.starts_with("crates/")) {
        let code = &src.code;
        for f in &src.fns {
            let before = code[..f.item.0].trim_end();
            let before = before.strip_suffix("const").map_or(before, str::trim_end);
            let public = before
                .strip_suffix("pub")
                .is_some_and(|b| !b.ends_with(is_ident));
            let receiver: String = first_param(code, f.item.0 + 3 + f.name.len())
                .split_whitespace()
                .collect();
            let observer = (receiver.starts_with('&')
                && receiver.ends_with("self")
                && !receiver.contains("mut"))
                || receiver == "self:&Self";
            if public && !observer && !called.contains(f.name.as_str()) {
                orphans.push(item_of(src, &f.owner, &f.name));
            }
        }
    }
    orphans.sort();
    orphans
}

/// Where the innermost bracket open around byte `at` is.
fn enclosing(code: &str, at: usize) -> Option<usize> {
    let mut depth = 0i32;
    for i in (0..at).rev() {
        match code.as_bytes()[i] {
            b')' | b']' | b'}' => depth += 1,
            b'(' | b'[' | b'{' if depth == 0 => return Some(i),
            b'(' | b'[' | b'{' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// The name at bytes `start..end` sits in a pattern: a `match` arm before
/// its `=>` (with `|` alternatives and tuples), the left side of the `=`
/// of `if let`, `while let` or `let … else`, or the pattern argument of
/// `matches!`. `braced`: a `{ .. }` right after the name is its fields.
fn in_pattern(code: &str, start: usize, end: usize, braced: bool) -> bool {
    let bytes = code.as_bytes();
    // Inside `(..)` or `[..]`, the whole group decides — unless the group
    // is `matches!`'s, whose arguments after the first are the pattern.
    if let Some(open) = enclosing(code, start).filter(|&o| bytes[o] != b'{') {
        if code[..open].ends_with("matches!") {
            return expr_end(code, open + 1) < start;
        }
        let close = close_of(code, open) + 1;
        return in_pattern(code, chain_start(code, close), close, false);
    }
    // A guard (`x if x == E::V =>`) or a condition is an expression.
    let mut arm = start;
    let mut depth = 0i32;
    while arm > 0 {
        match bytes[arm - 1] {
            b')' | b']' => depth += 1,
            b'(' | b'[' => depth -= 1,
            b',' | b';' | b'{' | b'}' if depth == 0 => break,
            b'>' if depth == 0 && code[..arm - 1].ends_with('=') => break,
            _ => {}
        }
        arm -= 1;
    }
    let words: Vec<&str> = code[arm..start]
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect();
    if words.windows(2).any(|w| w[0] == "if" && w[1] != "let") || words.last() == Some(&"if") {
        return false;
    }
    let mut i = end;
    let rest = code[end..].trim_start();
    if braced && rest.starts_with('{') {
        i = close_of(code, code.len() - rest.len()) + 1;
    }
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' if depth == 0 => return false,
            b')' | b']' => depth -= 1,
            b'{' | b'}' | b',' | b';' if depth == 0 => return false,
            b'=' if depth == 0 => {
                match bytes.get(i + 1) {
                    Some(b'>') => return true,
                    Some(b'=') => i += 1,
                    // A lone `=` after a pattern: `let`'s.
                    _ if !b"=!<>+-*/%&|^".contains(&bytes[i - 1]) => return true,
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// The variants of the `pub enum`s under `crates/*/src` that no non-test
/// code constructs, as `file: Enum::Variant`. A variant is constructed
/// where it is named — `Enum::V` or, in the enum's `impl`, `Self::V` —
/// outside a pattern (see `in_pattern`), or where it is `#[default]`.
fn unconstructed_variants(files: &[(String, String)]) -> Vec<String> {
    let srcs = non_test(files);
    // `(enum, variant) -> (defining file, has fields in braces, constructed)`.
    let mut variants: BTreeMap<(String, String), (usize, bool, bool)> = BTreeMap::new();
    for (n, src) in srcs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.rel.starts_with("crates/"))
    {
        let code = &src.code;
        for (at, _) in code.match_indices("pub enum ") {
            let name = ident_at(code, at + 9);
            let Some(open) = code[at..].find('{').map(|i| at + i) else {
                continue;
            };
            for mut part in split_top(&code[open + 1..close_of(code, open)]) {
                let mut default = false;
                while part.starts_with("#[") {
                    default |= part.starts_with("#[default]");
                    part = part[close_of(part, 1) + 1..].trim_start();
                }
                let variant = ident_at(part, 0);
                let braced = part[variant.len()..].trim_start().starts_with('{');
                let key = (name.to_owned(), variant.to_owned());
                variants.insert(key, (n, braced, default));
            }
        }
    }
    for src in &srcs {
        let code = &src.code;
        let mut at = 0;
        while at < code.len() {
            // `mask` left the code ASCII: a byte is a char.
            let word = ident_at(code, at);
            if word.is_empty() {
                at += 1;
                continue;
            }
            let end = at + word.len();
            if let Some(before) = code[..at].strip_suffix("::") {
                let owner = match ident_before(before, before.len()).0 {
                    "Self" => src.impl_at(at).map_or("", |i| i.owner.as_str()),
                    owner => owner,
                };
                let key = (owner.to_owned(), word.to_owned());
                if let Some((_, braced, constructed)) = variants.get_mut(&key) {
                    *constructed |= !in_pattern(code, path_start(code, at), end, *braced);
                }
            }
            at = end;
        }
    }
    let unconstructed = variants
        .iter()
        .filter(|(_, (.., constructed))| !constructed);
    let mut orphans: Vec<String> = unconstructed
        .map(|((name, variant), (n, ..))| item_of(&srcs[*n], name, variant))
        .collect();
    orphans.sort();
    orphans
}

#[test]
fn every_state_changing_pub_fn_has_a_non_test_caller() {
    let orphans = test_only_fns(&workspace_texts(Path::new(env!("CARGO_MANIFEST_DIR"))));
    assert!(
        orphans.is_empty(),
        "{} state-changing pub fns only tests call, each `file: [Owner::]name` (call it \
         from a bed or bin, or delete it):\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}

#[test]
fn every_pub_enum_variant_is_constructed_by_non_test_code() {
    let orphans = unconstructed_variants(&workspace_texts(Path::new(env!("CARGO_MANIFEST_DIR"))));
    assert!(
        orphans.is_empty(),
        "{} pub enum variants only tests construct, each `file: Enum::Variant` (construct \
         it from a bed or bin, or delete it):\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}

/// The two rules on planted sources: a state change only a test makes
/// and a variant only `match` arms name are found; a called fn and a
/// constructed variant are not.
#[test]
fn state_and_variant_rules_find_planted_orphans() {
    let lib = r#"
pub enum Mode {
    #[default]
    Quiet,
    Loud(u32),
    Shout { volume: u8 },
    Whisper,
}

impl Mode {
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Quiet | Mode::Loud(_) => "low",
            Self::Shout { .. } => "shout",
            Mode::Whisper => "whisper",
        }
    }
}

pub struct Counter {
    n: u64,
    mode: Mode,
}

impl Counter {
    pub fn new<R: Fn(u32) -> u32>(_f: R) -> Counter {
        Counter { n: 0, mode: Mode::Loud(3) }
    }

    pub fn bump(&mut self) {
        self.n += 1;
    }

    pub fn reset(&mut self) {
        if let Mode::Shout { .. } = self.mode {
            self.n = 0;
        }
        if matches!(self.mode, Mode::Whisper) {
            self.n = 1;
        }
    }

    pub fn peek(&self) -> u64 {
        self.n
    }
}

pub fn drive(c: &mut Counter) {
    c.bump();
}

#[cfg(test)]
mod tests {
    #[test]
    fn resets() {
        let mut c = super::Counter::new(|x| x);
        c.mode = super::Mode::Whisper;
        c.reset();
    }
}
"#;
    let bin = "fn main() { let mut c = demo::Counter::new(|x| x); demo::drive(&mut c); }";
    let test = "fn t() { c.reset(); let m = demo::Mode::Shout { volume: 1 }; }";
    let files = [
        ("crates/demo/src/lib.rs", lib),
        ("src/bin/demo.rs", bin),
        ("tests/demo.rs", test),
    ];
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    assert_eq!(test_only_fns(&files), ["demo/src/lib.rs: Counter::reset"]);
    assert_eq!(
        unconstructed_variants(&files),
        [
            "demo/src/lib.rs: Mode::Shout",
            "demo/src/lib.rs: Mode::Whisper"
        ]
    );
}
