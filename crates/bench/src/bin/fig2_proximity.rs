//! **Figure 2** — proximity-graph construction (Algorithm 1): exchange,
//! filtering, confirmation; every close pair ends up an edge, degrees stay
//! ≤ κ.
//!
//! A sub-protocol probe: the scenario spec supplies the deployment and
//! resolver (`--scenario <file>.scn` swaps in a different one); the probe
//! logic runs Algorithm 1 directly.

use dcluster_bench::{
    print_table, resolver_flag, scenario_override, write_csv, Runner, ScenarioSpec,
};
use dcluster_core::proximity::build_proximity_graph;
use dcluster_core::{ProtocolParams, SeedSeq};
use dcluster_sim::metrics::close_pairs;

fn main() {
    let specs: Vec<ScenarioSpec> = match scenario_override() {
        Some(spec) => vec![spec],
        None => [40usize, 80, 120]
            .iter()
            .enumerate()
            .map(|(i, &n)| ScenarioSpec::uniform(format!("fig2-n{n}"), 21 + i as u64, n, 3.0))
            .collect(),
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut kappa = ProtocolParams::practical().kappa;
    for spec in specs {
        let params = spec.params;
        kappa = params.kappa;
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let net = runner.build_network().expect("sweep spec is valid");
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = runner.engine(&net).expect("sweep spec is valid");
        let members: Vec<usize> = (0..net.len()).collect();
        let p = build_proximity_graph(
            &mut engine,
            &params,
            &mut seeds,
            &members,
            &vec![0; net.len()],
            false,
        );
        let pairs = close_pairs(net.points(), None, net.density(), 1.0, net.params().epsilon);
        let covered = pairs.iter().filter(|cp| p.has_edge(cp.u, cp.w)).count();
        rows.push(vec![
            net.len().to_string(),
            net.density().to_string(),
            p.edges().len().to_string(),
            p.max_degree().to_string(),
            format!("{covered}/{}", pairs.len()),
            engine.stats().rounds.to_string(),
        ]);
    }
    print_table(
        "Figure 2 — ProximityGraphConstruction (Alg. 1, Lemma 7)",
        &[
            "n",
            "density Γ",
            "H edges",
            "max degree (≤ κ)",
            "close pairs covered",
            "rounds",
        ],
        &rows,
    );
    println!("\nκ = {kappa} (degree cap); rounds = (κ+1)·|wss| = O(log N)");
    write_csv(
        "fig2_proximity",
        &[
            "n",
            "gamma",
            "edges",
            "max_degree",
            "close_pairs_covered",
            "rounds",
        ],
        &rows,
    );
}
