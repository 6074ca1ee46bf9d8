//! **Figure 3** — one sparsification pass, clustered vs unclustered:
//! densities drop to ≤ ¾Γ; children link to same-cluster parents.
//!
//! A sub-protocol probe: scenario specs supply the two deployments
//! (`--scenario <file>.scn` runs both variants on that deployment).

use dcluster_bench::{
    print_table, resolver_flag, scenario_override, write_csv, Runner, ScenarioSpec,
};
use dcluster_core::sparsify::{
    sparsification, sparsification_u, subset_density, IndependentSetRule,
};
use dcluster_core::SeedSeq;

fn main() {
    let override_spec = scenario_override();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (variant, seed) in [
        ("clustered (local minima)", 31u64),
        ("unclustered (LOCAL MIS)", 32),
    ] {
        let spec = override_spec
            .clone()
            .unwrap_or_else(|| ScenarioSpec::uniform(format!("fig3-{seed}"), seed, 60, 1.8));
        let params = spec.params;
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let net = runner.build_network().expect("sweep spec is valid");
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = runner.engine(&net).expect("sweep spec is valid");
        let all: Vec<usize> = (0..net.len()).collect();
        let gamma = net.density();
        let clusters = vec![1u64; net.len()];
        let (kept, links, rounds) = if variant.starts_with("clustered") {
            let out = sparsification(
                &mut engine,
                &params,
                &mut seeds,
                gamma,
                &all,
                &clusters,
                IndependentSetRule::LocalMinima,
            );
            (out.kept, out.links.len(), engine.stats().rounds)
        } else {
            let out = sparsification_u(&mut engine, &params, &mut seeds, gamma, &all);
            (out.last().to_vec(), out.links.len(), engine.stats().rounds)
        };
        let density_after = subset_density(&engine, &kept);
        rows.push(vec![
            variant.to_string(),
            net.len().to_string(),
            gamma.to_string(),
            kept.len().to_string(),
            density_after.to_string(),
            links.to_string(),
            rounds.to_string(),
        ]);
    }
    print_table(
        "Figure 3 — Sparsification (Alg. 2/3, Lemmas 8–9)",
        &[
            "variant",
            "n",
            "Γ before",
            "kept",
            "density after",
            "child links",
            "rounds",
        ],
        &rows,
    );
    println!("\nLemma 8/9 target: density after ≤ ¾·Γ.");
    write_csv(
        "fig3_sparsify",
        &[
            "variant",
            "n",
            "gamma",
            "kept",
            "density_after",
            "links",
            "rounds",
        ],
        &rows,
    );
}
