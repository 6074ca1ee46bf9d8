//! Bad resolver input reaches the experiment binaries as a diagnostic and
//! exit status 1, never a panic: a `.scn` file pinning a retired backend,
//! and `--resolver` naming one or given no value. So do spec values the
//! protocols or dynamics models cannot run with. A spec's `resolver` line
//! picks the backend unless `--resolver` overrides it; nothing else does.
//! An unknown `DCLUSTER_SCALE` tier exits 1 too, before any file is
//! written. Every child runs under a deadline, so a run that hangs fails
//! its test instead of stalling the suite.

use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The longest any child may run. Each finishes in well under a second
/// on an idle machine; the margin absorbs a loaded one.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `cmd` to completion, with its stdout and stderr captured in files
/// (no pipe can fill up and stall it), and returns its output. A child
/// still running after [`DEADLINE`] is killed and fails the test.
fn run(cmd: &mut Command) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let capture = |stream: &str| {
        let path = dir.join(format!("cli_errors.{}.{run}.{stream}", std::process::id()));
        let file = File::create(&path).expect("a capture file is writable");
        (path, file)
    };
    let ((out_path, out), (err_path, err)) = (capture("stdout"), capture("stderr"));
    let mut child = cmd
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("the binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the child can be polled") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{cmd:?} was still running after {DEADLINE:?}, killed");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let read = |path: &Path| {
        let bytes = fs::read(path).expect("a capture file is readable");
        let _ = fs::remove_file(path);
        bytes
    };
    Output {
        status,
        stdout: read(&out_path),
        stderr: read(&err_path),
    }
}

fn thm1(args: &[&str]) -> Output {
    run(Command::new(env!("CARGO_BIN_EXE_thm1_clustering")).args(args))
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
        (
            "workload maintenance\ndynamics churn sleep=1.5 wake=0.3",
            Some("dynamics churn: sleep"),
        ),
        (
            "workload maintenance\ndynamics churn sleep=0.08 wake=-0.1",
            Some("dynamics churn: wake"),
        ),
        ("workload maintenance\nepochs 0", Some("epochs: ")),
        (
            "deploy corridor n=30 length=5 width=1 spine=0",
            Some("deploy corridor: spine"),
        ),
        (
            "deploy corridor n=30 length=5 width=1 spine=-0.5",
            Some("deploy corridor: spine"),
        ),
        ("max_id 5\nid_seed 4", None),
        // Ranges near 10¹⁰⁰: every grid and field query clips to the box.
        ("dynamics het_power spread=1e300", None),
        // A power `base · (1 + spread · h)` overflows to +∞.
        (
            "dynamics het_power spread=1.7e308",
            Some("dynamics het_power"),
        ),
        // The third line node lands at x = +∞.
        ("deploy line n=3 spacing=1e308", Some("deploy section")),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, (lines, needle)) in rows.into_iter().enumerate() {
        let path = dir.join(format!("out_of_range_{i}.scn"));
        let spec = format!("scenario row{i}\nseed 3\ndeploy uniform n=20 side=2\n{lines}\n");
        std::fs::write(&path, spec).expect("temporary spec is writable");
        let out = run(Command::new(env!("CARGO_BIN_EXE_thm1_clustering"))
            .args(["--scenario", path.to_str().expect("utf-8 path")])
            .env("DCLUSTER_RESULTS_DIR", dir));
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
fn unknown_scale_tier_exits_cleanly_and_writes_nothing() {
    for (bin, value) in [
        (env!("CARGO_BIN_EXE_scale_resolvers"), "huge"),
        (env!("CARGO_BIN_EXE_thm1_clustering"), "fulll"),
    ] {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("scale_{value}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temporary directory is writable");
        let out = run(Command::new(bin)
            .current_dir(&dir)
            .env("DCLUSTER_SCALE", value)
            .env("DCLUSTER_RESULTS_DIR", &dir));
        assert_clean_exit(&out, "ci|quick|full");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("temporary directory is readable")
            .collect();
        assert!(written.is_empty(), "{bin}: wrote {written:?}");
    }
}

#[test]
fn bare_resolver_flag_exits_cleanly() {
    assert_clean_exit(&thm1(&["--resolver"]), "--resolver needs a value");
}

/// Runs `scenario_smoke` and returns the resolver column of the first
/// Report it prints.
fn smoke_resolver(args: &[&str], resolver_env: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenario_smoke"));
    cmd.args(args);
    if let Some(v) = resolver_env {
        cmd.env("DCLUSTER_RESOLVER", v);
    }
    let out = run(&mut cmd);
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
