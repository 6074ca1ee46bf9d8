//! Bad resolver input reaches the experiment binaries as a diagnostic and
//! exit status 1, never a panic: a `.scn` file pinning a retired backend,
//! and `--resolver` naming one or given no value. So do bad values of
//! `dynamics_maintenance`'s scenario flags and spec values the protocols
//! or dynamics models cannot run with. A spec's `resolver` line picks the
//! backend unless `--resolver` overrides it; nothing else does.

use std::path::Path;
use std::process::{Command, Output};

fn thm1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thm1_clustering"))
        .args(args)
        .output()
        .expect("the binary runs")
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
    let out = thm1(&["--scenario", path.to_str().expect("utf-8 path")]);
    assert_clean_exit(&out, "aggregated");
}

#[test]
fn out_of_range_spec_values_exit_cleanly() {
    // Each row's lines complete a 20-node uniform spec. `Some(needle)`: the
    // run is rejected before the protocol starts, naming directive and key.
    // `None`: the spec is valid and the run completes.
    let rows = [
        ("params kappa=0", Some("params: kappa")),
        ("params rho=0", Some("params: rho")),
        ("params sns_k=0", Some("params: sns_k")),
        (
            "params len_factor=0 min_sched_len=0",
            Some("params: min_sched_len"),
        ),
        (
            "dynamics het_power spread=-2",
            Some("dynamics het_power: spread"),
        ),
        ("workload wakeup sources=", Some("workload wakeup: sources")),
        (
            "workload maintenance\ndynamics group speed=0.2 frac=0.5 groups=100000000000",
            Some("dynamics group: groups"),
        ),
        ("max_id 5\nid_seed 4", None),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, (lines, needle)) in rows.into_iter().enumerate() {
        let path = dir.join(format!("out_of_range_{i}.scn"));
        let spec = format!("scenario row{i}\nseed 3\ndeploy uniform n=20 side=2\n{lines}\n");
        std::fs::write(&path, spec).expect("temporary spec is writable");
        let out = Command::new(env!("CARGO_BIN_EXE_thm1_clustering"))
            .args(["--scenario", path.to_str().expect("utf-8 path")])
            .env("DCLUSTER_RESULTS_DIR", dir)
            .output()
            .expect("the binary runs");
        match needle {
            Some(needle) => assert_clean_exit(&out, needle),
            None => assert!(out.status.success(), "{lines}: {out:?}"),
        }
    }
}

#[test]
fn retired_backend_on_the_flag_or_in_the_environment_exits_cleanly() {
    assert_clean_exit(&thm1(&["--resolver", "parallel"]), "aggregated");
}

#[test]
fn bare_resolver_flag_exits_cleanly() {
    assert_clean_exit(&thm1(&["--resolver"]), "--resolver needs a value");
}

#[test]
fn bad_dynamics_maintenance_flags_exit_cleanly() {
    // Each value is rejected before any sweep runs.
    for (flag, value, accepted) in [
        ("--mobility", "teleport", "none|waypoint|walk|group"),
        ("--churn", "maybe", "on|off"),
        ("--power", "loud", "uniform|het"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dynamics_maintenance"))
            .args([flag, value])
            .output()
            .expect("the binary runs");
        assert_clean_exit(&out, &format!("{flag}: "));
        assert_clean_exit(&out, accepted);
    }
}

/// Runs `scenario_smoke` and returns the resolver column of the first
/// Report it prints.
fn smoke_resolver(args: &[&str], resolver_env: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenario_smoke"));
    cmd.args(args);
    if let Some(v) = resolver_env {
        cmd.env("DCLUSTER_RESOLVER", v);
    }
    let out = cmd.output().expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .skip_while(|l| !l.starts_with("| n | Γ | Δ | resolver |"))
        .nth(2)
        .unwrap_or_else(|| panic!("no report row in: {stdout}"));
    row.split('|')
        .nth(4)
        .expect("a resolver column")
        .trim()
        .into()
}

#[test]
fn scenario_smoke_runs_the_spec_pin_unless_the_flag_overrides_it() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pinned_backend.scn");
    std::fs::write(
        &path,
        "scenario pin\nseed 3\nresolver aggregated\ndeploy uniform n=12 side=2\n",
    )
    .expect("temporary spec is writable");
    let spec = path.to_str().expect("utf-8 path");
    assert_eq!(
        smoke_resolver(&[spec], Some("naive")),
        "aggregated",
        "the environment must not outrank the spec's resolver line"
    );
    assert_eq!(
        smoke_resolver(&["--resolver", "naive", spec], None),
        "naive",
        "the flag outranks the spec's resolver line"
    );
}
