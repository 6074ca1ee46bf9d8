//! `ProximityGraphConstruction` — Algorithm 1 (Lemma 7).
//!
//! Builds, in `O(log N)` rounds, a constant-degree graph `H` on a
//! (clustered) node set that contains **every close pair** as an edge. The
//! three phases:
//!
//! 1. **Exchange** — one execution of an `(N,κ)`-wss (unclustered) or
//!    `(N,κ,ρ)`-wcss (clustered), every participant transmitting its
//!    `Hello`. Each node records who it heard and in which rounds.
//! 2. **Filtering** — *implicit collision detection*: if `v` heard `u` in a
//!    round where the schedule says `w` also transmitted, then `(v, w)` is
//!    certainly not a close pair (w's interference would have destroyed
//!    `u`'s message otherwise), so `w` is dropped from `v`'s candidates.
//!    The witnessed-selection property guarantees every far node is
//!    eventually dropped; if more than κ candidates survive, the whole set
//!    is purged (cannot happen for genuine close-pair endpoints).
//! 3. **Confirmation** — κ replays of the same schedule; in replay `j`
//!    every node announces its `j`-th candidate (`⟨v, ⊥⟩` padding keeps the
//!    interference pattern identical). An edge survives iff both endpoints
//!    confirmed each other — mutuality makes `H` well-defined.

use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::run::{fresh_wcss, fresh_wss, ReplayUnit, SchedHandle, SeedSeq};
use dcluster_sim::engine::Engine;
use std::collections::BTreeMap;

/// Output of Algorithm 1: the proximity graph and the replayable exchange
/// schedule (used later for tree communication and MIS simulation).
#[derive(Debug, Clone)]
pub struct Proximity {
    /// The exchange schedule + participant snapshot (length `O(log N)`).
    pub unit: ReplayUnit,
    /// Adjacency of `H` (node index → sorted neighbor indices). Only
    /// participating nodes appear as keys.
    pub adj: BTreeMap<usize, Vec<usize>>,
}

impl Proximity {
    /// Degree of `v` in `H`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj.get(&v).map_or(0, |l| l.len())
    }

    /// Maximum degree of `H`.
    pub fn max_degree(&self) -> usize {
        self.adj.values().map(|l| l.len()).max().unwrap_or(0)
    }

    /// True iff `{u, v}` is an edge of `H`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj
            .get(&u)
            .is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// Edges as canonical `(min, max)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&v, l) in &self.adj {
            for &u in l {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Runs Algorithm 1 on `members` (node indices). `cluster_of[v]` is `v`'s
/// cluster (any value when `clustered == false`; the paper's convention
/// `cluster(v) = 1` is applied internally). Costs `(κ+1)·|S|` rounds.
pub fn build_proximity_graph(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    members: &[usize],
    cluster_of: &[u64],
    clustered: bool,
) -> Proximity {
    engine.begin_phase("proximity");
    let net = engine.network();
    let n = net.len();
    let n_univ = net.max_id();
    let kappa = params.kappa;

    let cluster_view: Vec<u64> = if clustered {
        cluster_of.to_vec()
    } else {
        vec![1; n]
    };
    let sched = if clustered {
        SchedHandle::Wcss(fresh_wcss(params, seeds, n_univ))
    } else {
        SchedHandle::Wss(fresh_wss(params, seeds, n_univ))
    };
    let unit = ReplayUnit::snapshot(net, sched, members, &cluster_view);

    let mut is_member = vec![false; n];
    for &v in members {
        is_member[v] = true;
    }

    // ---- Exchange phase: record (receiver → [(round, sender)]).
    let mut heard: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n];
    {
        let net = engine.network();
        unit.run(
            engine,
            &|v| Msg::Hello {
                id: net.id(v),
                cluster: cluster_view[v],
            },
            &mut |recv, lr, sender, msg| {
                if !is_member[recv] {
                    return;
                }
                // Clustered case: ignore messages from other clusters.
                if let Msg::Hello { cluster, .. } = msg {
                    if clustered && *cluster != cluster_view[recv] {
                        return;
                    }
                }
                heard[recv].push((lr, sender));
            },
        );
    }

    // ---- Filtering phase (local computation).
    // Uv = distinct senders heard; drop w if v heard some u in a round where
    // the schedule says w was transmitting too.
    let net = engine.network();
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &v in members {
        let mut uv: Vec<usize> = heard[v].iter().map(|&(_, s)| s).collect();
        uv.sort_unstable();
        uv.dedup();
        let mut keep: Vec<usize> = Vec::new();
        'cand: for &w in &uv {
            for &(r, u) in &heard[v] {
                if u != w && unit.sched().contains(r, net.id(w), cluster_view[w]) {
                    continue 'cand; // w transmitted while v heard u ⇒ not close
                }
            }
            keep.push(w);
        }
        if keep.len() > kappa {
            keep.clear(); // |Cv| > κ ⇒ purge (Alg. 1 lines 9–10)
        }
        candidates[v] = keep;
    }

    // ---- Confirmation phase: κ replays; replay j announces candidate j.
    let mut confirmed: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..kappa {
        let net = engine.network();
        let candidates_ref = &candidates;
        let heard_confirm = &mut confirmed;
        // One call per pair: `confirmed` is read only through `contains`.
        unit.run_pairs(
            engine,
            &|v| {
                let to = candidates_ref[v].get(j).map_or(0, |&u| net.id(u));
                Msg::Confirm {
                    from: net.id(v),
                    to,
                }
            },
            &mut |recv, sender, msg| {
                if let Msg::Confirm { to, .. } = msg {
                    if is_member[recv] && *to == net.id(recv) {
                        heard_confirm[recv].push(sender);
                    }
                }
            },
        );
    }

    // Ev = {w ∈ Cv | v ∈ Cw}: candidates that confirmed us.
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &v in members {
        let mut ev: Vec<usize> = candidates[v]
            .iter()
            .copied()
            .filter(|w| confirmed[v].contains(w))
            .collect();
        ev.sort_unstable();
        ev.dedup();
        adj.insert(v, ev);
    }
    // Defensive symmetrization (mutual confirmation already implies it).
    let keys: Vec<usize> = adj.keys().copied().collect();
    for v in keys {
        let nbrs = adj[&v].clone();
        for u in nbrs {
            let lu = adj.entry(u).or_default();
            if lu.binary_search(&v).is_err() {
                // v confirmed u but u's list lacks v: drop the asymmetric edge.
                let lv = adj.get_mut(&v).unwrap(); // lint:allow(P1, reason = "key inserted for every node above")
                if let Ok(pos) = lv.binary_search(&u) {
                    lv.remove(pos);
                }
            }
        }
    }

    engine.end_phase();
    Proximity { unit, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::metrics::close_pairs;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network, Point};

    fn run_pgc(net: &Network, clustered: bool, cluster_of: Vec<u64>) -> Proximity {
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(net);
        let members: Vec<usize> = (0..net.len()).collect();
        build_proximity_graph(
            &mut engine,
            &params,
            &mut seeds,
            &members,
            &cluster_of,
            clustered,
        )
    }

    #[test]
    fn degree_is_bounded_by_kappa() {
        let mut rng = Rng64::new(42);
        let net = Network::builder(deploy::uniform_square(80, 3.0, &mut rng))
            .build()
            .unwrap();
        let p = run_pgc(&net, false, vec![0; net.len()]);
        assert!(p.max_degree() <= ProtocolParams::practical().kappa);
    }

    #[test]
    fn close_pairs_are_edges_unclustered() {
        let mut rng = Rng64::new(7);
        let net = Network::builder(deploy::uniform_square(60, 3.0, &mut rng))
            .build()
            .unwrap();
        let gamma = net.density();
        let p = run_pgc(&net, false, vec![0; net.len()]);
        let pairs = close_pairs(net.points(), None, gamma, 1.0, net.params().epsilon);
        assert!(!pairs.is_empty(), "workload should contain close pairs");
        for cp in &pairs {
            assert!(
                p.has_edge(cp.u, cp.w),
                "close pair ({}, {}) missing from H",
                cp.u,
                cp.w
            );
        }
    }

    #[test]
    fn close_pairs_are_edges_clustered() {
        // Two tight clusters far apart; every intra-cluster close pair must
        // appear, cross-cluster edges must not.
        let mut pts = Vec::new();
        let mut rng = Rng64::new(9);
        for i in 0..12 {
            pts.push(Point::new(
                rng.range_f64(0.0, 0.5),
                rng.range_f64(0.0, 0.5) + i as f64 * 0.0,
            ));
        }
        for _ in 0..12 {
            pts.push(Point::new(
                5.0 + rng.range_f64(0.0, 0.5),
                rng.range_f64(0.0, 0.5),
            ));
        }
        let net = Network::builder(pts).build().unwrap();
        let cluster_of: Vec<u64> = (0..net.len())
            .map(|v| if v < 12 { 10 } else { 20 })
            .collect();
        let p = run_pgc(&net, true, cluster_of.clone());
        let gamma = 12;
        let pairs = close_pairs(
            net.points(),
            Some(&cluster_of),
            gamma,
            1.0,
            net.params().epsilon,
        );
        assert!(!pairs.is_empty());
        for cp in &pairs {
            assert!(
                p.has_edge(cp.u, cp.w),
                "close pair ({}, {}) missing",
                cp.u,
                cp.w
            );
        }
        for (u, w) in p.edges() {
            assert_eq!(cluster_of[u], cluster_of[w], "H edge crosses clusters");
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut rng = Rng64::new(13);
        let net = Network::builder(deploy::uniform_square(50, 2.5, &mut rng))
            .build()
            .unwrap();
        let p = run_pgc(&net, false, vec![0; net.len()]);
        for (&v, l) in &p.adj {
            for &u in l {
                assert!(p.has_edge(u, v), "asymmetric edge ({v},{u})");
            }
        }
    }

    #[test]
    fn two_isolated_nodes_connect() {
        // A single pair within range is trivially a close pair.
        let net = Network::builder(vec![Point::new(0.0, 0.0), Point::new(0.3, 0.0)])
            .build()
            .unwrap();
        let p = run_pgc(&net, false, vec![0; 2]);
        assert!(p.has_edge(0, 1));
    }

    #[test]
    fn non_members_stay_out_of_the_graph() {
        let mut rng = Rng64::new(21);
        let net = Network::builder(deploy::uniform_square(40, 2.0, &mut rng))
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..20).collect();
        let p = build_proximity_graph(
            &mut engine,
            &params,
            &mut seeds,
            &members,
            &vec![0; net.len()],
            false,
        );
        for (u, w) in p.edges() {
            assert!(u < 20 && w < 20, "edge touches non-member");
        }
    }
}
