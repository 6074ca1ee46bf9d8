//! End-to-end tests for `cargo run -p xtask -- unused`: the fixture tree
//! yields exactly the expected report, and the binary reports on the real
//! workspace with exit status 0.

use std::path::Path;
use std::process::Command;

#[test]
fn fixture_tree_yields_exactly_the_expected_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unused");
    let got: Vec<String> = xtask::unused::find_unused(&root)
        .expect("fixture files are readable")
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        got,
        [
            "crates/shapes/src/area.rs:7: fn doubled (named nowhere else)",
            "crates/shapes/src/area.rs:30: enum Shape (named nowhere else)",
            "crates/shapes/src/lib.rs:11: fn only_unit_tested (named only in tests)",
            "crates/shapes/src/lib.rs:16: fn only_integration_tested (named only in tests)",
            "crates/shapes/src/lib.rs:23: fn orphan (named nowhere else)",
        ]
    );
}

#[test]
fn workspace_report_exits_zero_and_takes_no_arguments() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(args)
            .output()
            .expect("xtask binary runs")
    };
    let out = run(&["unused"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for line in stdout.lines() {
        assert!(
            line.ends_with("(named only in tests)") || line.ends_with("(named nowhere else)"),
            "{line}"
        );
    }
    assert_eq!(run(&["unused", "--all"]).status.code(), Some(2));
}
