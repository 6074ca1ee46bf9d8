//! `Clustering` — Algorithm 6 (Theorem 1): 1-clustering of an unclustered
//! set in `O(Γ log N log* N)` rounds.
//!
//! **Phase A (down)**: repeated `SparsificationU` with geometrically
//! shrinking density targets builds nested levels
//! `A_0 ⊇ A_1 ⊇ … ⊇ A_kl` until the remainder has constant density; every
//! removed node keeps a parent link one level up, living on a recorded
//! replay unit.
//!
//! **Phase B (up)**: the sparse tail `A_kl` is trivially 1-clustered (every
//! node its own cluster). Walking the transitions back up, each level's
//! removed nodes adopt their parent's cluster by replaying that
//! transition's schedules (a 2-clustering, since child–parent distance
//! ≤ 1), and `RadiusReduction(·, ·, 2)` immediately restores a
//! 1-clustering — keeping the radius constant at every step, which is what
//! lets the cluster-aware selectors work with O(1) conflicts.

use crate::mis::MisStrategy;
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::radius::radius_reduction;
use crate::run::SeedSeq;
use crate::sparsify::{sparsification_u, subset_density, LevelsOutcome};
use dcluster_sim::engine::Engine;

/// A finished clustering (Theorem 1 output).
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster of each node (`None` = not in the input set / failed;
    /// tests assert 0 failures). Cluster IDs are center-node IDs.
    pub cluster_of: Vec<Option<u64>>,
    /// Cluster centers (node indices).
    pub centers: Vec<usize>,
    /// Rounds consumed (from the engine, including every sub-protocol).
    pub rounds: u64,
    /// Number of phase-A sparsification levels executed.
    pub levels: usize,
}

impl Clustering {
    /// The cluster of `v`, falling back to `v`'s own ID for unassigned
    /// nodes — the canonical "every node belongs somewhere" view the
    /// downstream protocols (stack, sparsification, label sweeps) share:
    /// a node outside the clustered set behaves as its own singleton
    /// cluster.
    pub fn cluster_or_id(&self, net: &dcluster_sim::Network, v: usize) -> u64 {
        self.cluster_of[v].unwrap_or_else(|| net.id(v))
    }

    /// [`Clustering::cluster_or_id`] for every node, indexable by node.
    pub fn cluster_or_id_all(&self, net: &dcluster_sim::Network) -> Vec<u64> {
        (0..net.len()).map(|v| self.cluster_or_id(net, v)).collect()
    }
}

/// Runs Algorithm 6 on the node set `a` with density bound `gamma`.
pub fn clustering(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    a: &[usize],
    gamma: usize,
) -> Clustering {
    engine.begin_phase("clustering");
    let start_round = engine.round();
    let net = engine.network();
    let n = net.len();
    let strategy = MisStrategy::GreedyById;

    // ---- Phase A: nested sparsification (Alg. 6 lines 1–7).
    let k = ((gamma.max(2) as f64).ln() / (4.0f64 / 3.0).ln()).ceil() as usize;
    let mut chain: Vec<(LevelsOutcome, usize)> = Vec::new(); // (outcome, Λ used)
    let mut x: Vec<usize> = a.to_vec();
    let mut lambda = gamma.max(1) as f64;
    for _ in 0..params.cap(k) {
        if x.len() <= 2 {
            break;
        }
        let su = sparsification_u(
            engine,
            params,
            seeds,
            (lambda.ceil() as usize).max(1),
            &x,
            strategy,
        );
        let progressed = su.last().len() < x.len();
        x = su.last().to_vec();
        chain.push((su, (lambda.ceil() as usize).max(1)));
        lambda *= 0.75;
        if params.adaptive && (subset_density(engine, &x) <= 4 || !progressed) {
            break;
        }
    }

    // ---- Phase B: bottom 1-clustering (line 8): singleton clusters.
    let mut cluster_of: Vec<Option<u64>> = vec![None; n];
    for &v in &x {
        cluster_of[v] = Some(net.id(v));
    }
    let mut centers: Vec<usize> = x.clone();
    let mut accum: Vec<usize> = x;

    // ---- Phase B: walk transitions back up (lines 11–16).
    let mut lambda_up = 2usize;
    for (su, step_gamma) in chain.iter().rev() {
        for step in su.steps.iter().rev() {
            // Children removed by this transition (levels[t] → levels[t+1]).
            let mut parent_of: Vec<Option<usize>> = vec![None; n];
            let mut new_children: Vec<usize> = Vec::new();
            for l in &su.links {
                if step.contains(&l.unit) {
                    parent_of[l.child] = Some(l.parent);
                    new_children.push(l.child);
                }
            }
            if new_children.is_empty() {
                continue; // nothing was removed here; no replay needed
            }
            // Replay the transition's units: every member announces its
            // (current) cluster; children adopt from their parent (line 13).
            for unit in &su.units[step.clone()] {
                let net = engine.network();
                let snapshot = cluster_of.clone();
                let parent_ref = &parent_of;
                let mut adopt: Vec<(usize, u64)> = Vec::new();
                // One call per pair: a child adopts only from its parent,
                // which announces one cluster on every delivery.
                unit.run_pairs(
                    engine,
                    &|v| Msg::ClusterOf {
                        id: net.id(v),
                        cluster: snapshot[v].unwrap_or(0),
                    },
                    &mut |recv, sender, msg| {
                        if let Msg::ClusterOf { cluster, .. } = msg {
                            if *cluster != 0 && parent_ref[recv] == Some(sender) {
                                adopt.push((recv, *cluster));
                            }
                        }
                    },
                );
                for (v, c) in adopt {
                    cluster_of[v] = Some(c);
                }
            }
            debug_assert!(
                new_children.iter().all(|&v| cluster_of[v].is_some()),
                "a child failed to inherit its parent's cluster"
            );
            accum.extend(new_children.iter().copied());

            // Stage 3: restore a 1-clustering of everything seen so far
            // (line 15) — the inheritance gave only a 2-clustering.
            let old: Vec<u64> = {
                let mut o = vec![0u64; n];
                for &v in &accum {
                    // lint:allow(P1, reason = "invariant: accumulated nodes are clustered")
                    o[v] = cluster_of[v].expect("accumulated nodes are clustered");
                }
                o
            };
            let rr_gamma = lambda_up.max(*step_gamma).max(2);
            let rr = radius_reduction(engine, params, seeds, rr_gamma, &accum, &old, 2.0, strategy);
            let mut ok = true;
            for &v in &accum {
                match rr.cluster_of[v] {
                    Some(c) => cluster_of[v] = Some(c),
                    None => ok = false, // pass cap exhausted; keep old cluster
                }
            }
            if ok {
                centers = rr.centers;
            }
        }
        lambda_up = ((lambda_up as f64) * 4.0 / 3.0).ceil() as usize; // line 16
    }

    engine.end_phase();
    Clustering {
        cluster_of,
        centers,
        rounds: engine.round() - start_round,
        levels: chain.iter().map(|(su, _)| su.steps.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_clustering;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn cluster_net(n: usize, side: f64, seed: u64) -> (Network, Clustering) {
        let mut rng = Rng64::new(seed);
        let net = Network::builder(deploy::uniform_square(n, side, &mut rng))
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let gamma = net.density();
        let cl = clustering(&mut engine, &params, &mut seeds, &all, gamma);
        (net, cl)
    }

    #[test]
    fn theorem1_invariants_on_a_small_field() {
        let (net, cl) = cluster_net(40, 3.0, 77);
        let rep = check_clustering(&net, &cl.cluster_of);
        assert_eq!(rep.unassigned, 0, "every node must be clustered");
        assert!(
            rep.max_radius <= 1.0 + 1e-9,
            "radius {} > 1",
            rep.max_radius
        );
        assert!(
            rep.max_clusters_per_unit_ball <= 30,
            "clusters per unit ball {} not O(1)",
            rep.max_clusters_per_unit_ball
        );
        assert!(rep.clusters >= 1);
        assert!(cl.rounds > 0);
    }

    #[test]
    fn dense_blob_becomes_one_or_few_clusters() {
        let (net, cl) = cluster_net(30, 0.8, 78);
        let rep = check_clustering(&net, &cl.cluster_of);
        assert_eq!(rep.unassigned, 0);
        // A blob of diameter ~1.1 can need a few clusters, but not many.
        assert!(
            rep.clusters <= 8,
            "blob split into {} clusters",
            rep.clusters
        );
    }

    #[test]
    fn centers_are_separated() {
        let (net, cl) = cluster_net(35, 2.5, 79);
        let rep = check_clustering(&net, &cl.cluster_of);
        // Definition §2: centers at distance ≥ 1 − ε (allow small slack for
        // the scaled-down schedules).
        assert!(
            rep.min_center_separation >= 0.5 * (1.0 - net.params().epsilon),
            "centers only {} apart",
            rep.min_center_separation
        );
        assert_eq!(cl.centers.len(), rep.clusters);
    }

    #[test]
    fn clustering_is_deterministic() {
        let (_, a) = cluster_net(25, 2.0, 80);
        let (_, b) = cluster_net(25, 2.0, 80);
        assert_eq!(a.cluster_of, b.cluster_of);
        assert_eq!(a.rounds, b.rounds);
    }
}
