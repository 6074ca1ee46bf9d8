//! **Theorem 1** — clustering scaling: rounds grow ~linearly in Γ (density)
//! and ~logarithmically in N (ID space); invariants (i)–(ii) hold
//! throughout.
//!
//! Sweep points are `ScenarioSpec::degree` specs run through the
//! clustering workload; `--scenario <file>.scn` runs one spec instead.

use dcluster_bench::{
    full_scale, print_table, resolver_flag, run_scenario_flag, write_csv, Runner, ScenarioSpec,
    Workload, WorkloadOutcome,
};

fn main() {
    if run_scenario_flag(Workload::Clustering) {
        return;
    }
    let deltas: Vec<usize> = if full_scale() {
        vec![4, 8, 12, 16, 24]
    } else {
        vec![4, 8, 12]
    };
    let n = if full_scale() { 120 } else { 70 };

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, &delta) in deltas.iter().enumerate() {
        let spec = ScenarioSpec::degree(format!("thm1-d{delta}"), 700 + i as u64, n, delta);
        let out = Runner::new(spec)
            .with_resolver_override(resolver_flag())
            .run(&Workload::Clustering)
            .expect("sweep spec is valid");
        let WorkloadOutcome::Clustering { report: rep, .. } = &out.outcome else {
            unreachable!("clustering workload returns a clustering outcome");
        };
        let gamma = out.density;
        rows.push(vec![
            gamma.to_string(),
            out.rounds.to_string(),
            format!("{:.1}", out.rounds as f64 / gamma as f64),
            rep.clusters.to_string(),
            format!("{:.3}", rep.max_radius),
            rep.max_clusters_per_unit_ball.to_string(),
            rep.unassigned.to_string(),
        ]);
        eprintln!("done Γ={gamma}");
    }
    print_table(
        &format!("Theorem 1 — Clustering scaling, n = {n}"),
        &[
            "Γ (density)",
            "rounds",
            "rounds/Γ",
            "clusters",
            "max radius (≤1)",
            "clusters/unit ball",
            "unassigned",
        ],
        &rows,
    );
    println!("\nTheorem 1: rounds = O(Γ·log N·log* N) ⇒ rounds/Γ ≈ flat.");
    write_csv(
        "thm1_clustering",
        &[
            "gamma",
            "rounds",
            "rounds_per_gamma",
            "clusters",
            "max_radius",
            "cpb",
            "unassigned",
        ],
        &rows,
    );
}
