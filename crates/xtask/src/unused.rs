//! `cargo run -p xtask -- unused`: a report of the `pub` items that no
//! non-test code names.
//!
//! An item is listed when its name occurs nowhere in the non-test code of
//! [`ROOTS`] except at its own definition. Test code is every region the
//! lexer marks as `#[cfg(test)]` ([`crate::scan`]) and every file under a
//! `tests/` or `benches/` directory. Each line says whether tests name
//! the item (a test oracle, or code only its tests reach) or nothing does.
//!
//! The match is by name, so the report is a starting point, not a
//! verdict: a name that some unrelated code also uses hides an item, and
//! an item reached only through a macro or a re-export under another name
//! shows up. It is not a CI gate.

use crate::scan::{self, is_ident};
use crate::walk;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The trees the report reads, relative to the workspace root.
pub const ROOTS: &[&str] = &["crates", "src", "examples", "tests", "perfbench/src"];

/// Item keywords the report lists after a plain `pub` (not
/// `pub(crate)`); modules and re-exports are namespaces, not items.
const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// A `pub` item that no non-test code names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unused {
    /// Workspace-relative path of the definition.
    pub file: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// The item keyword (`fn`, `struct`, …).
    pub kind: &'static str,
    /// The item's name.
    pub name: String,
    /// True when test code names it.
    pub named_in_tests: bool,
}

impl std::fmt::Display for Unused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let whom = if self.named_in_tests {
            "named only in tests"
        } else {
            "named nowhere else"
        };
        write!(
            f,
            "{}:{}: {} {} ({whom})",
            self.file, self.line, self.kind, self.name
        )
    }
}

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The `(kind, name)` a code line defines as a plain `pub` item, looking
/// past `const`/`async`/`unsafe`/`extern` qualifiers of a `fn`.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let words: Vec<&str> = idents(rest).collect();
    let qualifier = |i: usize| matches!(words.get(i), Some(&("async" | "unsafe" | "extern")));
    let mut i = 0;
    while qualifier(i)
        || (words.get(i) == Some(&"const") && (qualifier(i + 1) || words.get(i + 1) == Some(&"fn")))
    {
        i += 1;
    }
    let kind = *KINDS.iter().find(|&&k| words.get(i) == Some(&k))?;
    let skip_mut = usize::from(kind == "static" && words.get(i + 1) == Some(&"mut"));
    words.get(i + 1 + skip_mut).map(|&name| (kind, name))
}

/// Scans [`ROOTS`] under `root` and returns the `pub` items no non-test
/// code names, sorted by file and line. `Err` names an unreadable file.
pub fn find_unused(root: &Path) -> Result<Vec<Unused>, String> {
    // Occurrences of each name in non-test code; names test code uses.
    let mut in_code: BTreeMap<String, usize> = BTreeMap::new();
    let mut in_tests: BTreeSet<String> = BTreeSet::new();
    let mut defs: Vec<Unused> = Vec::new();
    for tree in ROOTS {
        for path in walk::rust_files(&root.join(tree), &[]) {
            let rel = walk::rel_path(root, &path);
            let test_tree = rel.split('/').any(|seg| matches!(seg, "tests" | "benches"));
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            for (i, line) in scan::scan_source(&src).iter().enumerate() {
                let is_test = test_tree || line.in_test;
                for word in idents(&line.code) {
                    if is_test {
                        in_tests.insert(word.to_string());
                    } else {
                        *in_code.entry(word.to_string()).or_default() += 1;
                    }
                }
                if let Some((kind, name)) = pub_item(&line.code).filter(|_| !is_test) {
                    defs.push(Unused {
                        file: rel.clone(),
                        line: i + 1,
                        kind,
                        name: name.to_string(),
                        named_in_tests: false,
                    });
                }
            }
        }
    }
    defs.retain(|d| in_code.get(&d.name) == Some(&1));
    for d in &mut defs {
        d.named_in_tests = in_tests.contains(&d.name);
    }
    defs.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(defs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_items_are_recognized_past_qualifiers() {
        assert_eq!(pub_item("    pub fn run(x: u8) {"), Some(("fn", "run")));
        assert_eq!(pub_item("pub const fn id() -> u8 {"), Some(("fn", "id")));
        assert_eq!(pub_item("pub const unsafe fn raw() {"), Some(("fn", "raw")));
        assert_eq!(
            pub_item("pub const LIMIT: u8 = 3;"),
            Some(("const", "LIMIT"))
        );
        assert_eq!(pub_item("pub static mut N: u8 = 0;"), Some(("static", "N")));
        assert_eq!(pub_item("pub struct Point {"), Some(("struct", "Point")));
        assert_eq!(pub_item("pub(crate) fn hidden() {"), None);
        assert_eq!(pub_item("pub mod scan;"), None);
        assert_eq!(pub_item("pub use scan::Line;"), None);
        assert_eq!(pub_item("    pub x: f64,"), None);
    }
}
