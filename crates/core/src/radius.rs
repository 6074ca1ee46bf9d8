//! `RadiusReduction` — Algorithm 5 (Lemma 12).
//!
//! Turns an `r`-clustering (constant `r ≥ 1`) into a 1-clustering in
//! `O((Γ + log* N) log N)` rounds. Each pass: (1) `FullSparsification`
//! leaves `O(1)` nodes per cluster; (2) one Sparse Network Schedule lets
//! those survivors build their exchange graph `G`; (3) a simulated LOCAL
//! MIS of `G` picks the new cluster centers `D` (pairwise ≥ 1−ε apart,
//! because SNS guarantees delivery at that distance); (4) a second SNS from
//! `D` claims every node within distance `1 − ε` for the announcing
//! center's new cluster. Claimed nodes and centers drop out; `χ(r+1, 1−ε)`
//! passes suffice to claim everyone.

use crate::mis::{local_mis, MisStrategy};
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::run::SeedSeq;
use crate::sns::run_sns;
use crate::sparsify::full_sparsification;
use dcluster_sim::engine::Engine;
use dcluster_sim::metrics::chi_upper;
use std::collections::{BTreeMap, BTreeSet};

/// Result of a radius reduction.
#[derive(Debug, Clone)]
pub struct RadiusOutcome {
    /// New 1-clustering (`None` only if the pass cap was exhausted — the
    /// caller should treat that as a failed run; tests assert it is 0).
    pub cluster_of: Vec<Option<u64>>,
    /// The new cluster centers (node indices; cluster IDs are their IDs).
    pub centers: Vec<usize>,
}

/// Runs Algorithm 5 on the `r`-clustered set `x` (`old_cluster[v]` = the
/// existing cluster of `v`; must be assigned for every member).
pub fn radius_reduction(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    gamma: usize,
    x: &[usize],
    old_cluster: &[u64],
    r: f64,
) -> RadiusOutcome {
    let net = engine.network();
    let n = net.len();
    let eps = net.params().epsilon;
    let cap = params.cap(chi_upper(r + 1.0, 1.0 - eps));
    let mut newcluster: Vec<Option<u64>> = vec![None; n];
    let mut centers: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = x.to_vec();

    for _ in 0..cap {
        if remaining.is_empty() {
            break;
        }
        // (1) Sparsify the remaining nodes down to O(1) per old cluster.
        let fs = full_sparsification(engine, params, seeds, gamma, &remaining, old_cluster);
        let xk: Vec<usize> = fs.last().to_vec();

        // (2) Exchange graph G of the survivors via one SNS (Alg. 5 l. 4–5).
        let net = engine.network();
        let hello = run_sns(engine, params, seeds, &xk, |v| Msg::Hello {
            id: net.id(v),
            cluster: old_cluster[v],
        });
        let pairs = hello.delivered_pairs();
        let in_xk: BTreeSet<usize> = xk.iter().copied().collect();
        let mut adj: BTreeMap<usize, Vec<usize>> = xk.iter().map(|&v| (v, Vec::new())).collect();
        for &(a, b) in &pairs {
            if a < b || !pairs.contains(&(b, a)) {
                continue; // handle each mutual pair once, from the (a>b) side
            }
            if in_xk.contains(&a) && in_xk.contains(&b) {
                adj.get_mut(&a).unwrap().push(b); // lint:allow(P1, reason = "keys inserted for all of in_xk above")
                adj.get_mut(&b).unwrap().push(a); // lint:allow(P1, reason = "keys inserted for all of in_xk above")
            }
        }
        for l in adj.values_mut() {
            l.sort_unstable();
            l.dedup();
        }

        // (3) D = MIS(G), simulated over replays of the SNS unit (l. 6).
        let d = local_mis(
            engine,
            &hello.unit,
            &xk,
            &adj,
            params.mis_degree,
            MisStrategy::default(),
        );
        let d_nodes: Vec<usize> = xk.iter().copied().filter(|&v| d[v]).collect();

        // (4) Local broadcast from D (l. 7): centers claim listeners.
        let claim = run_sns(engine, params, seeds, &d_nodes, |v| Msg::ClusterOf {
            id: net.id(v),
            cluster: net.id(v),
        });
        for &v in &d_nodes {
            newcluster[v] = Some(net.id(v));
            centers.push(v);
        }
        let in_x: BTreeSet<usize> = remaining.iter().copied().collect();
        for &(recv, _sender, msg) in &claim.receptions {
            if let Msg::ClusterOf { cluster, .. } = msg {
                if in_x.contains(&recv) && newcluster[recv].is_none() {
                    newcluster[recv] = Some(cluster); // first reception wins (l. 10)
                }
            }
        }
        remaining.retain(|&v| newcluster[v].is_none());
    }

    RadiusOutcome {
        cluster_of: newcluster,
        centers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_clustering;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    /// Build a 2-clustered blob (single cluster of radius ≈ 2) and reduce.
    #[test]
    fn reduces_a_two_cluster_to_one_clustering() {
        let mut rng = Rng64::new(31);
        let net = Network::builder(deploy::uniform_square(35, 2.0, &mut rng))
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        // Everything in one big cluster "centered" at node 0 — radius ≈ 2·√2.
        let old: Vec<u64> = vec![net.id(0); net.len()];
        let out = radius_reduction(
            &mut engine,
            &params,
            &mut seeds,
            net.density(),
            &all,
            &old,
            3.0,
        );
        assert_eq!(
            out.cluster_of.iter().filter(|c| c.is_none()).count(),
            0,
            "all nodes must be claimed"
        );
        let rep = check_clustering(&net, &out.cluster_of);
        assert!(
            rep.max_radius <= 1.0 + 1e-9,
            "1-clustering radius, got {}",
            rep.max_radius
        );
        assert!(
            rep.min_center_separation >= 0.5 * (1.0 - net.params().epsilon),
            "centers too close: {}",
            rep.min_center_separation
        );
    }

    #[test]
    fn centers_cover_all_members_within_unit_distance() {
        let mut rng = Rng64::new(32);
        let net = Network::builder(deploy::uniform_square(30, 2.5, &mut rng))
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let old: Vec<u64> = vec![net.id(0); net.len()];
        let out = radius_reduction(
            &mut engine,
            &params,
            &mut seeds,
            net.density(),
            &all,
            &old,
            3.0,
        );
        for v in 0..net.len() {
            let c = out.cluster_of[v].expect("assigned");
            let center = net.index_of(c).expect("center exists");
            assert!(
                net.pos(v).dist(net.pos(center)) <= 1.0 + 1e-9,
                "node {v} is {} from its center",
                net.pos(v).dist(net.pos(center))
            );
        }
    }

    #[test]
    fn single_node_becomes_its_own_center() {
        let net = Network::builder(vec![dcluster_sim::Point::new(0.0, 0.0)])
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = radius_reduction(&mut engine, &params, &mut seeds, 1, &[0], &[1], 2.0);
        assert_eq!(out.cluster_of[0], Some(net.id(0)));
        assert_eq!(out.centers, vec![0]);
    }
}
