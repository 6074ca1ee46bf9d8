//! **Table 1** — local broadcast: every row of the paper's comparison,
//! measured on the same deployments.
//!
//! Paper's claim shapes to verify: the randomized ∆-aware baseline and this
//! work both scale linearly in ∆ (ours with a polylog factor and *no* extra
//! model features); feedback rows flatten to `O(∆ + polylog)`; the
//! location row is deterministic but pays more.
//!
//! Sweep points are scenario specs (`ScenarioSpec::degree`); pass
//! `--scenario <file>.scn` to run one spec instead of the sweep.

use dcluster_baselines::local::{self, FeedbackPreset};
use dcluster_bench::{
    full_scale, print_table, resolver_flag, run_scenario_flag, write_csv, Runner, ScenarioSpec,
    Workload, WorkloadOutcome,
};

fn main() {
    if run_scenario_flag(Workload::LocalBroadcast) {
        return;
    }
    let deltas: Vec<usize> = if full_scale() {
        vec![4, 8, 12, 16, 24]
    } else {
        vec![4, 8, 12]
    };
    let n = if full_scale() { 150 } else { 80 };
    let cap = 3_000_000u64;

    let algos = [
        "[16] randomized, Δ known      O(Δ log n)",
        "[16] randomized, Δ unknown    O(Δ log³ n)",
        "[35] randomized               O(Δ log n + log² n)",
        "[19] feedback (HM)            O(Δ + log² n)",
        "[4]  feedback (BP)            O(Δ + log n loglog n)",
        "[22] location, deterministic  O(Δ log³ n)*",
        "THIS WORK total (incl. clustering setup)",
        "THIS WORK steady state (label sweeps only)",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();

    let runner_for = |delta: usize, di: usize| {
        Runner::new(ScenarioSpec::degree(
            format!("table1-d{delta}"),
            42 + di as u64,
            n,
            delta,
        ))
        .with_resolver_override(resolver_flag())
    };

    // "This work" runs once per deployment; total and steady-state are two
    // views of the same execution.
    let mut ours: Vec<(u64, u64)> = Vec::new();
    for (di, &delta) in deltas.iter().enumerate() {
        let report = runner_for(delta, di)
            .run(&Workload::LocalBroadcast)
            .expect("sweep spec is valid");
        let WorkloadOutcome::LocalBroadcast {
            complete,
            sweep_rounds,
            ..
        } = report.outcome
        else {
            unreachable!("local workload returns a local outcome");
        };
        assert!(complete, "this-work local broadcast must complete");
        ours.push((report.rounds, sweep_rounds));
        eprintln!("done: this work @ Δ≈{delta}");
    }

    for (ai, name) in algos.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (di, &delta) in deltas.iter().enumerate() {
            let net = runner_for(delta, di)
                .build_network()
                .expect("sweep spec is valid");
            let d_real = net.max_degree().max(1);
            let rounds = match ai {
                0 => local::gmw_known_delta(&net, d_real, 7, cap).rounds,
                1 => local::gmw_unknown_delta(&net, 7, cap).rounds,
                2 => local::yu_growth(&net, d_real, 7, cap).rounds,
                3 => local::feedback(&net, d_real, FeedbackPreset::HalldorssonMitra, 7, cap).rounds,
                4 => local::feedback(&net, d_real, FeedbackPreset::BarenboimPeleg, 7, cap).rounds,
                5 => local::location_grid(&net, d_real, 4, 0.05).rounds,
                6 => ours[di].0,
                _ => ours[di].1,
            };
            row.push(format!("{rounds}"));
            csv.push(vec![
                name.split_whitespace().next().unwrap_or("?").to_string(),
                delta.to_string(),
                d_real.to_string(),
                rounds.to_string(),
            ]);
        }
        rows.push(row);
        eprintln!("done: {name}");
    }

    let mut headers = vec!["algorithm (model, theory)".to_string()];
    headers.extend(deltas.iter().map(|d| format!("rounds @ Δ≈{d}")));
    print_table(
        &format!("Table 1 — local broadcast, n = {n} (uniform, connected)"),
        &headers,
        &rows,
    );
    write_csv(
        "table1_local_broadcast",
        &["algo", "delta_target", "delta_real", "rounds"],
        &csv,
    );
    println!(
        "\nNotes: all runs on identical deployments; caps {cap} rounds. \
         (*) our [22] variant is the simplified grid+ssf version (DESIGN.md §3)."
    );
}
