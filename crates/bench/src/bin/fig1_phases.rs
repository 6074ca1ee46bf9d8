//! **Figure 1** — a phase of the global broadcast algorithm: awake layers
//! grow hop by hop; every layer ends 1-clustered.
//!
//! Prints the per-phase trace (newly awake, clusters, stage rounds) on a
//! hotspot network like the figure's — a layered scenario spec (one
//! Gaussian clump over a spined corridor, sharing the deployment RNG).
//! Pass `--scenario <file>.scn` to trace a different workload.

use dcluster_bench::{
    print_table, resolver_flag, run_scenario_flag, write_csv, DeployLayer, Runner, ScenarioSpec,
    Workload, WorkloadOutcome,
};

/// The figure's workload: three hotspots along a line — black/red/blue
/// clusters of the figure.
fn fig1_spec() -> ScenarioSpec {
    ScenarioSpec::new("fig1", 11)
        .layer(DeployLayer::Clumped {
            centers: 1,
            per: 10,
            sigma: 0.15,
            side: 0.1,
        })
        .layer(DeployLayer::Corridor {
            n: 30,
            length: 5.0,
            width: 1.0,
            spine: 0.45,
        })
        .workload(Workload::GlobalBroadcast {
            source: 0,
            token: 99,
        })
}

fn main() {
    let workload = Workload::GlobalBroadcast {
        source: 0,
        token: 99,
    };
    if run_scenario_flag(workload.clone()) {
        return;
    }
    let runner = Runner::new(fig1_spec()).with_resolver_override(resolver_flag());
    let net = runner.build_network().expect("sweep spec is valid");
    assert!(
        net.comm_graph().is_connected(),
        "workload must be connected"
    );
    let out = runner.run_on(net, &workload).expect("sweep spec is valid");
    let WorkloadOutcome::GlobalBroadcast {
        delivered_all,
        phases,
        report,
        ..
    } = &out.outcome
    else {
        unreachable!("global workload returns a global outcome");
    };
    assert!(delivered_all);

    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.phase.to_string(),
                p.newly_awake.to_string(),
                p.awake_total.to_string(),
                p.rounds.to_string(),
                p.stage1_rounds.to_string(),
                p.stage2_rounds.to_string(),
                p.stage3_rounds.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 1 — SMSBroadcast phase trace (hotspot + corridor)",
        &[
            "phase",
            "newly awake",
            "awake total",
            "rounds",
            "stage1 (label)",
            "stage2 (SNS×Δ)",
            "stage3 (radius)",
        ],
        &rows,
    );
    println!(
        "\nfinal clustering: {} clusters, max radius {:.3}, ≤{} clusters per unit ball, \
         unassigned {}",
        report.clusters, report.max_radius, report.max_clusters_per_unit_ball, report.unassigned
    );
    println!("total rounds: {}", out.rounds);
    write_csv(
        "fig1_phases",
        &[
            "phase",
            "newly_awake",
            "awake_total",
            "rounds",
            "stage1",
            "stage2",
            "stage3",
        ],
        &rows,
    );
}
