//! End-to-end tests for `cargo run -p xtask -- lint`: the fixture tree
//! must produce exactly the expected diagnostics (positive cases), the
//! real workspace must be clean (negative case), and the JSON output
//! must round-trip through the crate's own parser.

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::json::Value;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Every diagnostic the fixture tree is built to produce, as
/// `(rule, file, line)` — sorted the way `lint_workspace` sorts.
const EXPECTED: &[(&str, &str, usize)] = &[
    ("A1", "crates/det/src/allows.rs", 17),
    ("A0", "crates/det/src/allows.rs", 21),
    ("P1", "crates/det/src/allows.rs", 21),
    ("A1", "crates/det/src/clock.rs", 10),
    ("D1", "crates/det/src/lib.rs", 11),
    ("D2", "crates/det/src/lib.rs", 16),
    ("P1", "crates/det/src/lib.rs", 21),
    ("D5", "crates/other/src/lib.rs", 1),
    ("D3", "crates/other/src/lib.rs", 6),
    ("D4", "crates/other/src/lib.rs", 10),
];

#[test]
fn fixture_tree_produces_exactly_the_expected_diagnostics() {
    let root = fixtures_root();
    let diags = xtask::run_lint(&root, &root.join("lint.toml")).expect("lint runs");
    let got: Vec<(&str, &str, usize)> = diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(got, EXPECTED, "fixture diagnostics drifted");
}

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let diags = xtask::run_lint(&root, &root.join("lint.toml")).expect("lint runs");
    assert!(
        diags.is_empty(),
        "the committed tree must lint clean; got:\n{}",
        xtask::diag::render_human(&diags)
    );
}

fn run_binary(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("xtask binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn json_output_round_trips_and_exits_nonzero_on_findings() {
    let root = fixtures_root();
    let policy = root.join("lint.toml");
    let (code, stdout, _) = run_binary(&[
        "lint",
        "--format",
        "json",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--policy",
        policy.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, Some(1), "diagnostics must exit 1");
    let v = xtask::json::parse(&stdout).expect("stdout is valid JSON");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        v.get("count").and_then(|c| c.as_f64()),
        Some(EXPECTED.len() as f64)
    );
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics array");
    assert_eq!(diags.len(), EXPECTED.len());
    for (d, (rule, file, line)) in diags.iter().zip(EXPECTED) {
        assert_eq!(d.get("rule").and_then(|x| x.as_str()), Some(*rule));
        assert_eq!(d.get("file").and_then(|x| x.as_str()), Some(*file));
        assert_eq!(d.get("line").and_then(|x| x.as_f64()), Some(*line as f64));
        assert!(d.get("message").and_then(|x| x.as_str()).is_some());
        assert!(d.get("hint").and_then(|x| x.as_str()).is_some());
    }
}

#[test]
fn clean_tree_exits_zero_in_both_formats() {
    let root = workspace_root();
    let root_arg = root.to_str().expect("utf-8 path");
    let (code, stdout, _) = run_binary(&["lint", "--root", root_arg]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("lint: clean (0 diagnostics)"), "{stdout}");
    let (code, stdout, _) = run_binary(&["lint", "--format", "json", "--root", root_arg]);
    assert_eq!(code, Some(0));
    let v = xtask::json::parse(&stdout).expect("valid JSON");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(v.get("count").and_then(|c| c.as_f64()), Some(0.0));
}

#[test]
fn human_output_names_every_finding_with_file_and_line() {
    let root = fixtures_root();
    let policy = root.join("lint.toml");
    let (code, stdout, _) = run_binary(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--policy",
        policy.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, Some(1));
    for (rule, file, line) in EXPECTED {
        assert!(
            stdout.contains(&format!("{rule} {file}:{line}")),
            "missing `{rule} {file}:{line}` in:\n{stdout}"
        );
    }
    assert!(stdout.contains(&format!("lint: {} diagnostic(s)", EXPECTED.len())));
}

#[test]
fn usage_errors_exit_two() {
    let (code, _, stderr) = run_binary(&["lint", "--format", "yaml"]);
    assert_eq!(code, Some(2), "bad --format must exit 2");
    assert!(stderr.contains("usage:"), "{stderr}");
    let (code, _, _) = run_binary(&["frobnicate"]);
    assert_eq!(code, Some(2), "unknown task must exit 2");
    let (code, _, _) = run_binary(&[]);
    assert_eq!(code, Some(2), "missing task must exit 2");
}
