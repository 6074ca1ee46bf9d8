//! Distributed independent-set computation over proximity graphs.
//!
//! The paper (§4.1) computes independent sets two ways:
//!
//! * **Clustered sparsification** — the *local minima* of `H`
//!   ([`local_minima`]): purely local, zero extra rounds, guaranteeing one
//!   independent node per cluster component.
//! * **Unclustered sparsification & radius reduction** — a *maximal*
//!   independent set computed by simulating a deterministic LOCAL-model
//!   algorithm over the `O(log N)`-round exchange schedule (the paper cites
//!   the `log*` MIS of Schneider–Wattenhofer \[34\]; each LOCAL round = one
//!   schedule replay).
//!
//! We provide two LOCAL MIS algorithms with identical interfaces:
//! [`MisStrategy::LinialSweep`] — the theory-shaped one: Linial color
//! reduction through cover-free families down to `O(d²)` colors in
//! `O(log* N)` replays, then a color-class sweep; and
//! [`MisStrategy::GreedyById`] — iterated local-minima elimination
//! (`O(log n)` replays in practice), the engineering default.

use crate::msg::Msg;
use crate::run::ReplayUnit;
use dcluster_selectors::cff::{linial_fixed_point, CoverFreeFamily};
use dcluster_sim::engine::Engine;
use std::collections::BTreeMap;

/// Which LOCAL MIS algorithm to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MisStrategy {
    /// Iterated local-minima elimination by ID (fast in practice).
    #[default]
    GreedyById,
    /// Linial color reduction via cover-free families + color sweep
    /// (the `log*`-shaped algorithm of the paper's citation \[34\]).
    LinialSweep,
}

/// Local minima of `adj` by ID: `v` is selected iff its ID is smaller than
/// all its `H`-neighbors' IDs (isolated vertices are selected). This is an
/// independent set containing the minimum of every component — exactly what
/// clustered `Sparsification` needs (Lemma 8). Zero communication: nodes
/// already know their neighbors' IDs from the exchange phase.
pub fn local_minima(
    ids: &[u64],
    members: &[usize],
    adj: &BTreeMap<usize, Vec<usize>>,
) -> Vec<bool> {
    let mut sel = vec![false; ids.len()];
    for &v in members {
        let nbrs = adj.get(&v).map_or(&[][..], |l| l.as_slice());
        sel[v] = nbrs.iter().all(|&u| ids[v] < ids[u]);
    }
    sel
}

/// Computes a *maximal* independent set of `adj` among `members` by
/// simulating a deterministic LOCAL algorithm: each LOCAL round is one
/// replay of `unit` (delivery along every `H`-edge is guaranteed, see
/// [`crate::run`]). Returns the characteristic vector.
///
/// `degree_bound` must bound the degree of `adj` (the proximity graph's κ).
/// `max_id` bounds the initial color space.
///
/// # Panics
///
/// Panics (debug) if `adj` has adjacent equal IDs (impossible for genuine
/// networks).
pub fn local_mis(
    engine: &mut Engine<'_>,
    unit: &ReplayUnit,
    members: &[usize],
    adj: &BTreeMap<usize, Vec<usize>>,
    degree_bound: usize,
    max_id: u64,
    strategy: MisStrategy,
) -> Vec<bool> {
    engine.begin_phase("mis");
    let mis = match strategy {
        MisStrategy::GreedyById => greedy_mis(engine, unit, members, adj),
        MisStrategy::LinialSweep => linial_mis(engine, unit, members, adj, degree_bound, max_id),
    };
    engine.end_phase();
    mis
}

/// One replay delivering each member's `msg` to (at least) its H-neighbors;
/// returns per-node inbox of `(sender, Msg)` filtered to H-edges, one
/// entry per sender in order of first delivery.
fn exchange_states(
    engine: &mut Engine<'_>,
    unit: &ReplayUnit,
    adj: &BTreeMap<usize, Vec<usize>>,
    msg_of: &[Msg],
) -> Vec<Vec<(usize, Msg)>> {
    let n = engine.network().len();
    let mut inbox: Vec<Vec<(usize, Msg)>> = vec![Vec::new(); n];
    // One call per pair, in first-delivery order: each sender's first
    // delivery, which carries the state every later one repeats.
    unit.run_pairs(engine, &|v| msg_of[v], &mut |recv, sender, m| {
        if adj
            .get(&recv)
            .is_some_and(|l| l.binary_search(&sender).is_ok())
        {
            inbox[recv].push((sender, *m));
        }
    });
    inbox
}

fn greedy_mis(
    engine: &mut Engine<'_>,
    unit: &ReplayUnit,
    members: &[usize],
    adj: &BTreeMap<usize, Vec<usize>>,
) -> Vec<bool> {
    let net = engine.network();
    let n = net.len();
    let ids: Vec<u64> = (0..n).map(|v| net.id(v)).collect();
    let mut in_mis = vec![false; n];
    let mut decided = vec![false; n];
    // Iteration bound: each pass decides at least the undecided min.
    for _pass in 0..members.len().max(1) {
        if members.iter().all(|&v| decided[v]) {
            break;
        }
        let msg_of: Vec<Msg> = (0..n)
            .map(|v| Msg::Mis {
                id: ids[v],
                in_mis: in_mis[v],
                decided: decided[v],
            })
            .collect();
        let inbox = exchange_states(engine, unit, adj, &msg_of);
        // Decide this LOCAL round from the states just heard.
        let mut join = Vec::new();
        let mut drop = Vec::new();
        for &v in members {
            if decided[v] {
                continue;
            }
            let mut dominated = false;
            let mut is_min = true;
            for &(u, m) in &inbox[v] {
                if let Msg::Mis {
                    in_mis: u_in,
                    decided: u_dec,
                    ..
                } = m
                {
                    if u_in {
                        dominated = true;
                    }
                    if !u_dec {
                        debug_assert_ne!(ids[u], ids[v], "duplicate IDs on an H-edge");
                        if ids[u] < ids[v] {
                            is_min = false;
                        }
                    }
                }
            }
            if dominated {
                drop.push(v);
            } else if is_min {
                join.push(v);
            }
        }
        for v in drop {
            decided[v] = true;
        }
        for v in join {
            in_mis[v] = true;
            decided[v] = true;
        }
    }
    in_mis
}

fn linial_mis(
    engine: &mut Engine<'_>,
    unit: &ReplayUnit,
    members: &[usize],
    adj: &BTreeMap<usize, Vec<usize>>,
    degree_bound: usize,
    max_id: u64,
) -> Vec<bool> {
    let net = engine.network();
    let n = net.len();
    let ids: Vec<u64> = (0..n).map(|v| net.id(v)).collect();
    // --- Color reduction: colors start as IDs, palette [0, m).
    let mut color: Vec<u64> = ids.clone();
    let mut m = max_id + 1;
    let target = linial_fixed_point(degree_bound);
    let mut guard = 0;
    while m > target {
        let cff = CoverFreeFamily::for_colors(m, degree_bound);
        let msg_of: Vec<Msg> = (0..n)
            .map(|v| Msg::Color {
                id: ids[v],
                color: color[v],
            })
            .collect();
        let inbox = exchange_states(engine, unit, adj, &msg_of);
        for &v in members {
            let mut nbr_colors: Vec<u64> = inbox[v]
                .iter()
                .filter_map(|&(_, m)| match m {
                    Msg::Color { color, .. } => Some(color),
                    _ => None,
                })
                .collect();
            nbr_colors.sort_unstable();
            nbr_colors.dedup();
            color[v] = cff
                .select_free(color[v], &nbr_colors)
                .expect("proper coloring maintained by induction"); // lint:allow(P1, reason = "invariant: coloring stays proper by induction")
        }
        let next = cff.ground_size();
        if next >= m {
            break; // fixed point reached
        }
        m = next;
        guard += 1;
        assert!(
            guard <= 64,
            "color reduction failed to converge (log* loop)"
        );
    }
    // --- Color-class sweep: class c decides in pass c.
    let mut in_mis = vec![false; n];
    let mut decided = vec![false; n];
    for c in 0..m {
        if members.iter().all(|&v| decided[v]) {
            break; // adaptive early exit (observer)
        }
        let msg_of: Vec<Msg> = (0..n)
            .map(|v| Msg::Mis {
                id: ids[v],
                in_mis: in_mis[v],
                decided: decided[v],
            })
            .collect();
        let inbox = exchange_states(engine, unit, adj, &msg_of);
        for &v in members {
            if decided[v] {
                continue;
            }
            let dominated = inbox[v]
                .iter()
                .any(|&(_, m)| matches!(m, Msg::Mis { in_mis: true, .. }));
            if dominated {
                decided[v] = true;
            } else if color[v] == c {
                in_mis[v] = true;
                decided[v] = true;
            }
        }
    }
    // Any survivor (undecided because some class was skipped adaptively)
    // joins if still undominated — preserves maximality.
    for &v in members {
        if !decided[v] {
            let dominated = adj.get(&v).is_some_and(|l| l.iter().any(|&u| in_mis[u]));
            if !dominated {
                in_mis[v] = true;
            }
        }
    }
    in_mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;
    use crate::proximity::build_proximity_graph;
    use crate::run::SeedSeq;
    use dcluster_sim::graph::Graph;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn check_mis(adj: &BTreeMap<usize, Vec<usize>>, n: usize, sel: &[bool], members: &[usize]) {
        let mut g = Graph::new(n);
        for (&v, l) in adj {
            for &u in l {
                g.add_edge(v, u);
            }
        }
        let mut mask = vec![false; n];
        for &v in members {
            mask[v] = true;
        }
        assert!(
            g.is_mis(sel, Some(&mask)),
            "not a MIS of the induced subgraph"
        );
    }

    fn build(netseed: u64, n: usize) -> (Network, ProtocolParams) {
        let mut rng = Rng64::new(netseed);
        let net = Network::builder(deploy::uniform_square(n, 2.5, &mut rng))
            .build()
            .unwrap();
        (net, ProtocolParams::practical())
    }

    #[test]
    fn local_minima_is_independent_and_hits_components() {
        let ids = vec![5u64, 3, 9, 1, 7];
        let mut adj = BTreeMap::new();
        adj.insert(0, vec![1]);
        adj.insert(1, vec![0, 2]);
        adj.insert(2, vec![1]);
        adj.insert(3, vec![4]);
        adj.insert(4, vec![3]);
        let members = [0, 1, 2, 3, 4];
        let sel = local_minima(&ids, &members, &adj);
        assert_eq!(sel, vec![false, true, false, true, false]);
    }

    #[test]
    fn greedy_mis_is_maximal_independent() {
        let (net, params) = build(3, 60);
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..net.len()).collect();
        let p = build_proximity_graph(
            &mut engine,
            &params,
            &mut seeds,
            &members,
            &vec![0; net.len()],
            false,
        );
        let sel = local_mis(
            &mut engine,
            &p.unit,
            &members,
            &p.adj,
            params.kappa,
            net.max_id(),
            MisStrategy::GreedyById,
        );
        check_mis(&p.adj, net.len(), &sel, &members);
    }

    #[test]
    fn linial_mis_is_maximal_independent_and_matches_greedy_quality() {
        let (net, params) = build(4, 40);
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..net.len()).collect();
        let p = build_proximity_graph(
            &mut engine,
            &params,
            &mut seeds,
            &members,
            &vec![0; net.len()],
            false,
        );
        let sel = local_mis(
            &mut engine,
            &p.unit,
            &members,
            &p.adj,
            params.kappa,
            net.max_id(),
            MisStrategy::LinialSweep,
        );
        check_mis(&p.adj, net.len(), &sel, &members);
        assert!(
            sel.iter().any(|&b| b),
            "MIS of a nonempty graph is nonempty"
        );
    }

    #[test]
    fn isolated_members_always_join() {
        let (net, params) = build(5, 10);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..net.len()).collect();
        // Empty adjacency: everyone is isolated, everyone joins.
        let adj: BTreeMap<usize, Vec<usize>> = members.iter().map(|&v| (v, vec![])).collect();
        let mut seeds = SeedSeq::new(params.seed);
        let wss = crate::run::fresh_wss(&params, &mut seeds, net.max_id());
        let unit = ReplayUnit::snapshot(
            &net,
            crate::run::SchedHandle::Wss(wss),
            &members,
            &vec![0; net.len()],
        );
        let sel = local_mis(
            &mut engine,
            &unit,
            &members,
            &adj,
            params.kappa,
            net.max_id(),
            MisStrategy::GreedyById,
        );
        assert!(members.iter().all(|&v| sel[v]));
    }
}
