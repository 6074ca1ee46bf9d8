//! `LocalBroadcast` — Algorithm 7 (Theorem 2).
//!
//! The paper's headline application: deterministic local broadcast in
//! `O(∆ log N log* N)` rounds with no randomization, location, carrier
//! sensing or feedback. Pipeline: (1) [`crate::clustering`] builds a
//! 1-clustering; (2) [`crate::labeling`] assigns an imperfect labeling
//! (each label O(1) times per cluster); (3) one Sparse Network Schedule per
//! label value — the set of nodes holding any fixed label has constant
//! density, so SNS delivers each of their messages to everything within
//! `1 − ε` (Lemma 4).

use crate::check::missing_deliveries;
use crate::clustering::{clustering, Clustering};
use crate::labeling::{imperfect_labeling, Labeling};
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::run::SeedSeq;
use crate::sns::run_sns;
use crate::sparsify::full_sparsification;
use dcluster_sim::engine::Engine;
use std::collections::HashSet;

/// Result of a local broadcast execution.
#[derive(Debug, Clone)]
pub struct LocalBroadcastOutcome {
    /// Rounds consumed end-to-end.
    pub rounds: u64,
    /// `heard_by[v]` = nodes that received `v`'s message.
    pub heard_by: Vec<HashSet<usize>>, // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
    /// The clustering built in step 1.
    pub clustering: Clustering,
    /// The labeling built in step 2.
    pub labeling: Labeling,
    /// Label sweeps executed (≥ 1; adaptive repair may add sweeps).
    pub sweeps: usize,
    /// Rounds spent in step 3 only (the label-by-label SNS sweeps). This
    /// is the *steady-state* cost: clustering + labeling are one-time
    /// setup, after which each further local broadcast pays only this.
    pub sweep_rounds: u64,
    /// True iff every node was heard by all its comm-graph neighbors.
    pub complete: bool,
}

/// Runs Algorithm 7 on the whole network with density bound `delta`.
pub fn local_broadcast(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    delta: usize,
) -> LocalBroadcastOutcome {
    engine.begin_phase("local_broadcast");
    let start = engine.round();
    let net = engine.network();
    let n = net.len();
    let all: Vec<usize> = (0..n).collect();

    // Step 1: 1-clustering (Theorem 1).
    let cl = clustering(engine, params, seeds, &all, delta);
    let cluster_of = cl.cluster_or_id_all(net);

    // Step 2: imperfect labeling (Lemma 11).
    let fs = full_sparsification(engine, params, seeds, delta, &all, &cluster_of);
    let lab = imperfect_labeling(engine, &fs, params.kappa);

    // Step 3: one SNS per label (Alg. 7 lines 3–4). Nodes know the bound ∆;
    // in adaptive mode we stop at the largest label present (observer
    // shortcut — sweeping silent labels costs rounds but changes nothing).
    let label_bound = if params.adaptive {
        lab.max_label() as usize
    } else {
        delta.max(1)
    };
    let mut heard_by: Vec<HashSet<usize>> = vec![HashSet::new(); n]; // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
    let mut sweeps = 0usize;
    let sweep_start = engine.round();
    let max_repair = if params.adaptive { 3 } else { 1 };
    for _repair in 0..max_repair {
        sweeps += 1;
        for l in 1..=label_bound as u32 {
            let members: Vec<usize> = (0..n).filter(|&v| lab.label[v] == l).collect();
            if members.is_empty() {
                continue;
            }
            let net = engine.network();
            let run = run_sns(engine, params, seeds, &members, |v| Msg::Payload {
                id: net.id(v),
                cluster: cluster_of[v],
                data: net.id(v),
            });
            for (recv, sender, _) in run.receptions {
                heard_by[sender].insert(recv);
            }
        }
        if missing_deliveries(engine.network(), &heard_by).is_empty() {
            break;
        }
    }

    let complete = missing_deliveries(engine.network(), &heard_by).is_empty();
    engine.end_phase();
    LocalBroadcastOutcome {
        rounds: engine.round() - start,
        heard_by,
        clustering: cl,
        labeling: lab,
        sweeps,
        sweep_rounds: engine.round() - sweep_start,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn run(n: usize, side: f64, seed: u64) -> (Network, LocalBroadcastOutcome) {
        let mut rng = Rng64::new(seed);
        let net = Network::builder(deploy::uniform_square(n, side, &mut rng))
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let delta = net.density();
        let out = local_broadcast(&mut engine, &params, &mut seeds, delta);
        (net, out)
    }

    #[test]
    fn every_neighbor_hears_every_node() {
        let (_, out) = run(36, 2.5, 101);
        assert!(
            out.complete,
            "local broadcast must reach all comm-graph neighbors"
        );
    }

    #[test]
    fn works_on_a_dense_blob() {
        let (_, out) = run(25, 1.0, 102);
        assert!(out.complete);
        assert!(
            out.labeling.max_label() >= 2,
            "dense blob needs several labels"
        );
    }

    #[test]
    fn works_on_a_sparse_field() {
        let (_, out) = run(30, 6.0, 103);
        assert!(out.complete);
    }

    #[test]
    fn rounds_are_counted() {
        let (_, out) = run(20, 2.0, 104);
        assert!(out.rounds > 0);
        assert!(out.sweeps >= 1);
    }

    #[test]
    fn steady_state_is_much_cheaper_than_setup() {
        // Clustering and labeling are paid once; a further local broadcast
        // pays only the label sweeps.
        let (_, out) = run(35, 2.5, 401);
        assert!(out.complete, "local broadcast incomplete");
        let setup = out.rounds - out.sweep_rounds;
        assert!(
            out.sweep_rounds * 10 < setup,
            "steady state ({}) should be ≫ cheaper than setup ({setup})",
            out.sweep_rounds
        );
    }
}
