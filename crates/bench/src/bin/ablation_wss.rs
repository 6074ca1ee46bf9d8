//! **Ablation (Lemma 7)** — why *witnessed* selection matters: run
//! Algorithm 1's filtering with a plain ssf (no witness guarantee) versus
//! the wss, and count close pairs lost and candidate purges.
//!
//! With a plain ssf a node may never observe a round that discredits a far
//! candidate, so candidate sets overflow κ and get purged — losing close
//! pairs. The wss's witnessed selections guarantee the evidence arrives.
//!
//! The schedule-length sweep is a grid of scenario specs with overridden
//! `params len_factor=…` lines; `--scenario <file>.scn` ablates that one
//! spec instead (its `params` line sets the budget).

use dcluster_bench::{
    print_table, resolver_flag, scenario_override, write_csv, Runner, ScenarioSpec,
};
use dcluster_core::proximity::build_proximity_graph;
use dcluster_core::run::{ReplayUnit, SchedHandle, SeedSeq};
use dcluster_core::{Msg, ProtocolParams};
use dcluster_selectors::ssf::RandomSsf;
use dcluster_sim::metrics::close_pairs;
use dcluster_sim::Network;

/// Plain-ssf variant of Alg. 1 (exchange + filter only, no witness
/// property): returns (candidate overflow purges, close pairs covered).
fn ssf_variant(runner: &Runner, net: &Network, params: &ProtocolParams) -> (usize, usize) {
    let ssf = RandomSsf::with_len(
        0xAB1A7E,
        params.kappa,
        params.sched_len(RandomSsf::recommended_len(net.max_id(), params.kappa)),
    );
    let nodes: Vec<usize> = (0..net.len()).collect();
    let unit = ReplayUnit::snapshot(net, SchedHandle::Ssf(ssf), &nodes, &vec![0; net.len()]);
    let mut engine = runner.engine(net).expect("sweep spec is valid");
    let mut heard: Vec<Vec<(u64, usize)>> = vec![Vec::new(); net.len()];
    unit.run(
        &mut engine,
        &|v| Msg::Hello {
            id: net.id(v),
            cluster: 0,
        },
        &mut |recv, lr, sender, _| heard[recv].push((lr, sender)),
    );
    let mut purges = 0usize;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); net.len()];
    for v in 0..net.len() {
        let mut uv: Vec<usize> = heard[v].iter().map(|&(_, s)| s).collect();
        uv.sort_unstable();
        uv.dedup();
        let mut keep = Vec::new();
        'c: for &w in &uv {
            for &(r, u) in &heard[v] {
                if u != w && unit.sched().contains(r, net.id(w), 0) {
                    continue 'c;
                }
            }
            keep.push(w);
        }
        if keep.len() > params.kappa {
            purges += 1;
            keep.clear();
        }
        adj[v] = keep;
    }
    let pairs = close_pairs(net.points(), None, net.density(), 1.0, net.params().epsilon);
    let covered = pairs
        .iter()
        .filter(|cp| adj[cp.u].contains(&cp.w) && adj[cp.w].contains(&cp.u))
        .count();
    (purges, covered)
}

fn main() {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    if let Some(spec) = scenario_override() {
        specs.push(spec);
    } else {
        // Sweep the schedule-length budget downwards: the witnessed
        // property degrades gracefully (filtering evidence is *guaranteed*
        // to arrive within the schedule), while plain ssf filtering
        // starves.
        for &factor in &[0.02f64, 0.004, 0.001] {
            for (i, &n) in [80usize, 140].iter().enumerate() {
                let params = ProtocolParams {
                    len_factor: factor,
                    min_sched_len: 16,
                    ..ProtocolParams::practical()
                };
                specs.push(
                    ScenarioSpec::uniform(format!("ablate-f{factor}-n{n}"), 60 + i as u64, n, 2.0)
                        .params(params),
                );
            }
        }
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for spec in specs {
        let params = spec.params;
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let net = runner.build_network().expect("sweep spec is valid");
        let pairs = close_pairs(net.points(), None, net.density(), 1.0, net.params().epsilon);

        // wss (the paper's construction).
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
        let wss_cov = pairs.iter().filter(|cp| p.has_edge(cp.u, cp.w)).count();

        // plain ssf.
        let (purges, ssf_cov) = ssf_variant(&runner, &net, &params);

        rows.push(vec![
            format!("{}", params.len_factor),
            net.len().to_string(),
            net.density().to_string(),
            pairs.len().to_string(),
            format!("{wss_cov}/{}", pairs.len()),
            format!("{ssf_cov}/{}", pairs.len()),
            purges.to_string(),
        ]);
    }
    print_table(
        "Ablation — witnessed (wss) vs plain ssf in Algorithm 1",
        &[
            "len factor",
            "n",
            "Γ",
            "close pairs",
            "wss covered",
            "ssf covered",
            "ssf purges",
        ],
        &rows,
    );
    println!(
        "\nThe wss's witnessed selections implement implicit collision \
         detection; without them evidence against far candidates may never \
         arrive (purges, lost pairs)."
    );
    write_csv(
        "ablation_wss",
        &[
            "len_factor",
            "n",
            "gamma",
            "pairs",
            "wss_cov",
            "ssf_cov",
            "purges",
        ],
        &rows,
    );
}
