//! Workspace-local developer tooling (`cargo run -p xtask -- <task>`).
//!
//! Tasks:
//!
//! * `lint` — a dependency-free, source-level determinism & soundness
//!   pass over every `.rs` file in the workspace;
//! * `tracediff` — a structural diff of two observability traces
//!   ([`tracediff`]) that names the first divergent round;
//! * `unused` — a report of the `pub` items no non-test code names
//!   ([`unused`]).
//!
//! Everything fast in this reproduction is gated on byte-identical
//! equivalence between backends and across reruns, so the most dangerous
//! regressions are the ones the type system happily accepts — an iterated
//! `HashMap` whose order leaks into a report, a wall-clock read inside a
//! deterministic crate, a `thread::spawn` whose merge order depends on the
//! host. The lint makes those hazards a CI failure instead of a
//! test-suite hope.
//!
//! See [`rules`] for the rule table, [`policy`] for the committed
//! `lint.toml` policy format, and the README's "Static analysis" section
//! for day-to-day usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod json;
pub mod policy;
pub mod rules;
pub mod scan;
pub mod tracediff;
pub mod unused;
pub mod walk;

use std::path::Path;

/// Loads the policy at `policy_path` and lints the workspace at `root`.
/// Returns the sorted diagnostics; `Err` is reserved for operational
/// failures (unreadable files, malformed policy).
pub fn run_lint(root: &Path, policy_path: &Path) -> Result<Vec<diag::Diagnostic>, String> {
    let text = std::fs::read_to_string(policy_path)
        .map_err(|e| format!("cannot read policy {}: {e}", policy_path.display()))?;
    let policy = policy::Policy::parse(&text)?;
    rules::lint_workspace(root, &policy)
}
