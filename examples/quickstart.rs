//! Quickstart: describe a sensor field as a scenario, run the paper's
//! clustering through the unified Runner, inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dcluster::prelude::*;

fn main() {
    // 60 sensors dropped uniformly over a 4×4 area (range = 1) — the same
    // spec could live in a `scenarios/*.scn` file (`spec.to_text()`).
    let spec = ScenarioSpec::uniform("quickstart", 2024, 60, 4.0);
    let runner = Runner::new(spec);
    let net = runner.build_network().expect("example spec is valid");
    println!(
        "network: n = {}, density Γ = {}, max degree Δ = {}",
        net.len(),
        net.density(),
        net.max_degree()
    );

    // Theorem 1: deterministic 1-clustering, no randomness, no GPS. The
    // Runner picks the default backend (the spec pins none) — the same
    // selection path the bench binaries use.
    let out = runner
        .run_on(net.clone(), &Workload::Clustering)
        .expect("example spec is valid");
    let WorkloadOutcome::Clustering {
        cluster_of, report, ..
    } = &out.outcome
    else {
        unreachable!("clustering workload returns a clustering outcome");
    };
    println!(
        "clustering: {} clusters in {} simulated rounds",
        report.clusters, out.rounds
    );
    println!(
        "  max radius            : {:.3}  (paper: ≤ 1)",
        report.max_radius
    );
    println!(
        "  clusters per unit ball: {}      (paper: O(1))",
        report.max_clusters_per_unit_ball
    );
    println!(
        "  center separation     : {:.3}  (paper: ≥ 1−ε = {:.2})",
        report.min_center_separation,
        net.params().comm_radius()
    );
    assert_eq!(report.unassigned, 0, "every node must belong to a cluster");

    // Show a few clusters.
    let mut by_cluster: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (v, c) in cluster_of.iter().enumerate() {
        by_cluster.entry(c.unwrap()).or_default().push(v);
    }
    for (c, members) in by_cluster.iter().take(5) {
        println!("  cluster {c}: {} nodes", members.len());
    }
    println!("ok.");
}
