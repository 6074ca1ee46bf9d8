//! The determinism & soundness rule set, and the per-file driver that
//! applies it (token rules D1–D4/P1 on classified lines, the structural
//! crate-root rule D5, and the meta rules A0/A1 that keep the allowlist
//! itself honest).
//!
//! | code | guards against |
//! |------|----------------|
//! | `D1` | `HashMap`/`HashSet` use in library code — iteration order leaks |
//! | `D2` | wall-clock reads inside the deterministic crates |
//! | `D3` | threads — the simulator is single-threaded |
//! | `D4` | `env::var` outside the sanctioned configuration seams |
//! | `D5` | crate roots without `#![forbid(unsafe_code)]` |
//! | `P1` | `unwrap`/`expect`/`panic!` in fallible library code |
//! | `A0` | malformed allow annotations (e.g. no reason) |
//! | `A1` | stale allows that no longer suppress anything |
//!
//! A site is suppressed with a `lint:allow` comment — rule code plus a
//! mandatory `reason = "..."` — on the offending line or on a comment
//! line directly above it. File- and directory-level policy lives in
//! `lint.toml` (see [`crate::policy`]).

use crate::diag::Diagnostic;
use crate::policy::Policy;
use crate::scan::{self, has_token};
use crate::walk;
use std::path::Path;

/// A token-based line rule.
pub struct Rule {
    /// Stable code (`D1`, …) used in output and in `lint:allow`.
    pub code: &'static str,
    /// Any of these tokens on a code line is a hit.
    pub tokens: &'static [&'static str],
    /// Skip `#[cfg(test)]` bodies and `tests/`/`benches/`/`examples/`
    /// trees — for rules about *library* code only.
    pub library_only: bool,
    /// Skip plain `use` declarations (imports are not the hazard site).
    pub skip_use_lines: bool,
    /// One-line statement of the defect.
    pub message: &'static str,
    /// One-line fix-it.
    pub hint: &'static str,
}

/// The token rules, in code order. `D5` is structural and handled
/// separately by [`lint_workspace`].
pub const RULES: &[Rule] = &[
    Rule {
        code: "D1",
        tokens: &["HashMap", "HashSet"],
        library_only: true,
        skip_use_lines: true,
        message: "use of HashMap/HashSet: iteration order is nondeterministic and can leak into traces or reports",
        hint: "prefer BTreeMap/BTreeSet or sort before iterating; if order provably never escapes, annotate `// lint:allow(D1, reason = \"...\")`",
    },
    Rule {
        code: "D2",
        tokens: &["std::time", "Instant::now", "SystemTime"],
        library_only: false,
        skip_use_lines: false,
        message: "wall-clock read inside a deterministic crate",
        hint: "timing belongs in crates/bench; pass measured durations into these crates as plain data",
    },
    Rule {
        code: "D3",
        tokens: &["thread::spawn", "thread::scope", "mpsc"],
        library_only: false,
        skip_use_lines: false,
        message: "threading primitive in a single-threaded simulator",
        hint: "parallelise across scenarios or sweep points (separate processes), never inside a round; threads make merge order host-dependent",
    },
    Rule {
        code: "D4",
        tokens: &["env::var", "env::var_os", "env::vars"],
        library_only: false,
        skip_use_lines: false,
        message: "environment read outside the sanctioned configuration seams",
        hint: "route configuration through the seams exempted in lint.toml [rule.D4], or annotate a documented override point with `// lint:allow(D4, reason = \"...\")`",
    },
    Rule {
        code: "P1",
        tokens: &[".unwrap()", ".expect(", "panic!"],
        library_only: true,
        skip_use_lines: false,
        message: "panic path (unwrap/expect/panic!) in fallible library code",
        hint: "return an error through the fallible entry points, or annotate the guarded invariant with `// lint:allow(P1, reason = \"...\")`",
    },
];

const D5_MESSAGE: &str = "crate root lacks `#![forbid(unsafe_code)]`";
const D5_HINT: &str =
    "add the attribute, or record `\"<path> = <reason>\"` under [rule.D5] exceptions in lint.toml";

fn rule_by_code(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

/// Path segments that exempt `library_only` rules (test, bench and
/// example code may use panics and hash collections freely).
fn in_non_library_tree(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

fn path_in(rel: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
}

fn rule_applies(rule: &Rule, rel: &str, in_test: bool, policy: &Policy) -> bool {
    if rule.library_only && (in_test || in_non_library_tree(rel)) {
        return false;
    }
    let rp = policy.rule(rule.code);
    (rp.paths.is_empty() || path_in(rel, &rp.paths)) && !path_in(rel, &rp.exempt)
}

fn is_use_line(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("use ") || t.starts_with("pub use ") || t.starts_with("pub(crate) use ")
}

/// One parsed `lint:allow` annotation, tracked for staleness.
struct Allow {
    rule: &'static str,
    /// Line the annotation was written on (for A1 reporting), 1-based.
    decl_line: usize,
    used: bool,
}

/// Parses every allow annotation in a comment. Malformed ones (unknown
/// rule, missing or empty reason) become `A0` diagnostics.
fn parse_allows(
    comment: &str,
    rel: &str,
    lineno: usize,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    const MARKER: &str = "lint:allow(";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find(MARKER) {
        let start = from + pos + MARKER.len();
        // The closing paren: first `)` outside the quoted reason (the
        // reason text itself may contain parentheses).
        let mut in_quote = false;
        let Some(end) = comment[start..]
            .char_indices()
            .find(|&(_, c)| match c {
                '"' => {
                    in_quote = !in_quote;
                    false
                }
                ')' => !in_quote,
                _ => false,
            })
            .map(|(i, _)| i)
        else {
            push_a0(diags, rel, lineno, "unterminated `lint:allow(`");
            return out;
        };
        let body = &comment[start..start + end];
        from = start + end + 1;
        let (code, rest) = match body.split_once(',') {
            Some((c, r)) => (c.trim(), r.trim()),
            None => (body.trim(), ""),
        };
        let Some(rule) = rule_by_code(code) else {
            push_a0(diags, rel, lineno, &format!("unknown rule `{code}`"));
            continue;
        };
        let reason = rest
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.strip_suffix('"'))
            .map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => out.push(Allow {
                rule: rule.code,
                decl_line: lineno,
                used: false,
            }),
            _ => push_a0(
                diags,
                rel,
                lineno,
                &format!("allow for `{code}` lacks a reason (`reason = \"...\"` is mandatory)"),
            ),
        }
    }
    out
}

fn push_a0(diags: &mut Vec<Diagnostic>, rel: &str, lineno: usize, what: &str) {
    diags.push(Diagnostic {
        rule: "A0",
        file: rel.to_string(),
        line: lineno,
        message: format!("malformed lint:allow annotation: {what}"),
        hint: "write `// lint:allow(<rule>, reason = \"why this site is sound\")`".to_string(),
    });
}

/// Lints one file's source text, appending diagnostics.
pub fn lint_file(rel: &str, src: &str, policy: &Policy, diags: &mut Vec<Diagnostic>) {
    let lines = scan::scan_source(src);

    // Attach allows: an annotation on a code line covers that line; on a
    // comment-only line it covers the next code line.
    let mut attached: Vec<Vec<Allow>> = (0..lines.len()).map(|_| Vec::new()).collect();
    let mut pending: Vec<Allow> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut own = parse_allows(&line.comment, rel, i + 1, diags);
        if line.code.trim().is_empty() {
            pending.append(&mut own);
        } else {
            attached[i] = std::mem::take(&mut pending);
            attached[i].append(&mut own);
        }
    }
    let mut stale = pending; // annotations with no code line left to cover

    for (i, line) in lines.iter().enumerate() {
        for rule in RULES {
            if !rule_applies(rule, rel, line.in_test, policy)
                || (rule.skip_use_lines && is_use_line(&line.code))
                || !rule.tokens.iter().any(|t| has_token(&line.code, t))
            {
                continue;
            }
            match attached[i].iter_mut().find(|a| a.rule == rule.code) {
                Some(allow) => allow.used = true,
                None => diags.push(Diagnostic {
                    rule: rule.code,
                    file: rel.to_string(),
                    line: i + 1,
                    message: rule.message.to_string(),
                    hint: rule.hint.to_string(),
                }),
            }
        }
    }

    stale.extend(attached.into_iter().flatten());
    for allow in stale.iter().filter(|a| !a.used) {
        diags.push(Diagnostic {
            rule: "A1",
            file: rel.to_string(),
            line: allow.decl_line,
            message: format!(
                "stale lint:allow({}): no matching diagnostic on the covered line",
                allow.rule
            ),
            hint: "remove the annotation (or move it onto the offending line)".to_string(),
        });
    }
}

/// Structural rule D5: every crate root must carry
/// `#![forbid(unsafe_code)]` or a reasoned exception in `lint.toml`.
fn lint_crate_roots(
    root: &Path,
    policy: &Policy,
    diags: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    let exceptions = policy.rule("D5").exceptions;
    for path in walk::crate_roots(root, &policy.exclude) {
        let rel = walk::rel_path(root, &path);
        if exceptions.iter().any(|(p, _)| *p == rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let has_forbid = scan::scan_source(&src)
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            diags.push(Diagnostic {
                rule: "D5",
                file: rel,
                line: 1,
                message: D5_MESSAGE.to_string(),
                hint: D5_HINT.to_string(),
            });
        }
    }
    Ok(())
}

/// Runs the whole pass over the workspace at `root`: every `.rs` file
/// through the token rules, every crate root through D5. Diagnostics come
/// back sorted by file, line, then rule code.
pub fn lint_workspace(root: &Path, policy: &Policy) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for path in walk::rust_files(root, &policy.exclude) {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        lint_file(&walk::rel_path(root, &path), &src, policy, &mut diags);
    }
    lint_crate_roots(root, policy, &mut diags)?;
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, policy: &Policy) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        lint_file(rel, src, policy, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d1_fires_on_declarations_not_imports_or_tests() {
        let policy = Policy::default();
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let s = std::collections::HashSet::new(); }\n}\n";
        let diags = run("crates/x/src/lib.rs", src, &policy);
        assert_eq!(codes(&diags), ["D1"]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn library_only_rules_skip_test_trees() {
        let policy = Policy::default();
        assert!(run(
            "crates/x/tests/t.rs",
            "fn f() { x.unwrap(); let m = HashMap::new(); }",
            &policy
        )
        .is_empty());
        assert!(run(
            "examples/e.rs",
            "fn f() { let m = HashSet::new(); }",
            &policy
        )
        .is_empty());
    }

    #[test]
    fn allows_suppress_and_require_use() {
        let policy = Policy::default();
        let src = "fn f() {\n    // lint:allow(D1, reason = \"membership only\")\n    let m = HashMap::new();\n}\n";
        assert!(run("crates/x/src/lib.rs", src, &policy).is_empty());
        let inline = "fn f() { let m = HashMap::new(); } // lint:allow(D1, reason = \"ok\")\n";
        assert!(run("crates/x/src/lib.rs", inline, &policy).is_empty());
        let stale = "fn f() { let m = 1; } // lint:allow(D1, reason = \"nothing here\")\n";
        assert_eq!(codes(&run("crates/x/src/lib.rs", stale, &policy)), ["A1"]);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let policy = Policy::default();
        let src = "fn f() { let m = HashMap::new(); } // lint:allow(D1)\n";
        let diags = run("crates/x/src/lib.rs", src, &policy);
        assert_eq!(codes(&diags), ["A0", "D1"], "bad allow must not suppress");
        let empty = "fn f() { let m = HashMap::new(); } // lint:allow(D1, reason = \"\")\n";
        assert_eq!(
            codes(&run("crates/x/src/lib.rs", empty, &policy)),
            ["A0", "D1"]
        );
        let unknown = "fn f() {} // lint:allow(Z9, reason = \"x\")\n";
        assert_eq!(codes(&run("crates/x/src/lib.rs", unknown, &policy)), ["A0"]);
    }

    #[test]
    fn policy_paths_confine_rules() {
        let policy = Policy::parse("[rule.D2]\npaths = [\"crates/core\"]\n").unwrap();
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(codes(&run("crates/core/src/x.rs", src, &policy)), ["D2"]);
        assert!(run("crates/bench/src/x.rs", src, &policy).is_empty());
    }

    #[test]
    fn policy_exempt_skips_sanctioned_files() {
        let policy = Policy::parse("[rule.D4]\nexempt = [\"crates/b/src/lib.rs\"]\n").unwrap();
        let src = "fn f() { let v = std::env::var(\"X\"); }\n";
        assert!(run("crates/b/src/lib.rs", src, &policy).is_empty());
        assert_eq!(codes(&run("crates/b/src/other.rs", src, &policy)), ["D4"]);
    }

    #[test]
    fn d3_catches_spawn_scope_and_channels() {
        let policy = Policy::default();
        for src in [
            "fn f() { std::thread::spawn(|| {}); }",
            "fn f() { std::thread::scope(|s| {}); }",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }",
        ] {
            assert_eq!(codes(&run("crates/x/src/lib.rs", src, &policy)), ["D3"]);
        }
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let policy = Policy::default();
        let src = "fn f() { log(\"HashMap panic! .unwrap()\"); } // HashMap in prose\n";
        assert!(run("crates/x/src/lib.rs", src, &policy).is_empty());
    }
}
