//! Bad resolver input reaches the experiment binaries as a diagnostic and
//! exit status 1, never a panic: a `.scn` file pinning a retired backend,
//! `--resolver` naming one or given no value, and `DCLUSTER_RESOLVER`
//! naming one.

use std::path::Path;
use std::process::{Command, Output};

fn thm1(args: &[&str], env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_thm1_clustering"));
    cmd.args(args).env_remove("DCLUSTER_RESOLVER");
    if let Some(v) = env {
        cmd.env("DCLUSTER_RESOLVER", v);
    }
    cmd.output().expect("the binary runs")
}

fn assert_clean_exit(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "stderr must name {needle}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
}

#[test]
fn spec_pinning_a_retired_backend_exits_cleanly() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("retired_backend.scn");
    std::fs::write(
        &path,
        "scenario retired\nresolver grid\ndeploy uniform n=10 side=2\n",
    )
    .expect("temporary spec is writable");
    let out = thm1(&["--scenario", path.to_str().expect("utf-8 path")], None);
    assert_clean_exit(&out, "aggregated");
}

#[test]
fn retired_backend_on_the_flag_or_in_the_environment_exits_cleanly() {
    assert_clean_exit(&thm1(&["--resolver", "parallel"], None), "aggregated");
    assert_clean_exit(&thm1(&[], Some("grid")), "aggregated");
}

#[test]
fn bare_resolver_flag_exits_cleanly() {
    assert_clean_exit(&thm1(&["--resolver"], None), "--resolver needs a value");
}
