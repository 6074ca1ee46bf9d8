//! **Table 2** — global broadcast: the paper's comparison measured on
//! identical corridor deployments (diameter-dominated multi-hop networks).
//!
//! Shapes to verify: randomized decay and the location baseline scale with
//! `D·polylog` (density-independent); the no-features deterministic sweep
//! pays `D·N`; THIS WORK pays `D·Δ·polylog` — better than the sweep,
//! worse than randomization/location, exactly the paper's message that
//! extra features help *globally* (Theorem 6) but not locally.
//!
//! Sweep points are corridor scenario specs (the committed
//! `scenarios/table2_d*.scn` files are these exact specs); pass
//! `--scenario <file>.scn` to run one spec instead of the sweep.

use dcluster_baselines::global;
use dcluster_bench::{
    full_scale, print_table, resolver_flag, run_scenario_flag, write_csv, Runner, ScenarioSpec,
    Workload, WorkloadOutcome,
};

/// The sweep's scenario spec for a corridor of the given length.
fn corridor_spec(len: f64, i: usize) -> ScenarioSpec {
    let n = (len * 6.0) as usize;
    ScenarioSpec::corridor(format!("table2-len{len}"), 500 + i as u64, n, len, 1.2, 0.5).workload(
        Workload::GlobalBroadcast {
            source: 0,
            token: 1,
        },
    )
}

fn main() {
    if run_scenario_flag(Workload::GlobalBroadcast {
        source: 0,
        token: 1,
    }) {
        return;
    }
    let lengths: Vec<f64> = if full_scale() {
        vec![6.0, 12.0, 18.0]
    } else {
        vec![6.0, 12.0]
    };
    let cap = 5_000_000u64;

    let algos = [
        "[10]/[25] randomized decay    O(D log² n)",
        "[26] location, deterministic  O(D log² n)*",
        "[27]-class det. ID sweep      Θ(D·N)",
        "ssf flooding (no witnesses)   (empirical)",
        "THIS WORK deterministic       O(D(Δ+log* N) log N)",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut headers = vec!["algorithm (model, theory)".to_string()];

    let runners: Vec<Runner> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| Runner::new(corridor_spec(len, i)).with_resolver_override(resolver_flag()))
        .collect();
    let nets: Vec<(dcluster_sim::Network, u32)> = runners
        .iter()
        .map(|r| {
            let net = r.build_network().expect("sweep spec is valid");
            let d = net.comm_graph().diameter().unwrap_or(0);
            (net, d)
        })
        .collect();
    for (net, d) in &nets {
        headers.push(format!("rounds @ D={d} (n={})", net.len()));
    }

    for (ai, name) in algos.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (i, (net, d)) in nets.iter().enumerate() {
            let delta = net.max_degree().max(2);
            let rounds = match ai {
                0 => global::decay_flood(net, 0, 3, cap).rounds,
                1 => global::location_grid_flood(net, 0, delta, 4, 0.05, cap).rounds,
                2 => global::round_robin_flood(net, 0, cap).rounds,
                3 => global::ssf_flood(net, 0, delta, 0.1, cap).rounds,
                _ => {
                    let report = runners[i]
                        .run_on(
                            net.clone(),
                            &Workload::GlobalBroadcast {
                                source: 0,
                                token: 1,
                            },
                        )
                        .expect("sweep spec is valid");
                    let WorkloadOutcome::GlobalBroadcast { delivered_all, .. } = report.outcome
                    else {
                        unreachable!("global workload returns a global outcome");
                    };
                    assert!(delivered_all, "this-work broadcast must complete");
                    report.rounds
                }
            };
            row.push(format!("{rounds}"));
            csv.push(vec![
                name.split_whitespace().next().unwrap_or("?").to_string(),
                d.to_string(),
                net.len().to_string(),
                rounds.to_string(),
            ]);
        }
        rows.push(row);
        eprintln!("done: {name}");
    }

    print_table(
        "Table 2 — global broadcast on spined corridors",
        &headers,
        &rows,
    );
    write_csv(
        "table2_global_broadcast",
        &["algo", "diameter", "n", "rounds"],
        &csv,
    );
    println!(
        "\nNotes: N = n² IDs; the paper's lower-bound row Ω(D·Δ^(1−1/α)) is \
         reproduced by fig7_lowerbound_chain. (*) simplified variant, DESIGN.md §3."
    );
}
