//! High-level API: the **network stack** a downstream user actually wants.
//!
//! The paper's pipeline has an expensive one-time part (clustering +
//! labeling) and a cheap recurring part (one SNS per label). [`Stack`]
//! packages that: `Stack::establish` pays the setup once; after that,
//! [`Stack::local_broadcast_round`] delivers arbitrary per-node payloads
//! to all communication-graph neighbors in `O(Δ log N)` rounds, as many
//! times as desired — the steady-state regime of a sensor network
//! exchanging readings.

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

/// An established communication stack over a network (see module docs).
#[derive(Debug, Clone)]
pub struct Stack {
    params: ProtocolParams,
    clustering: Clustering,
    labeling: Labeling,
    /// Rounds spent establishing the stack.
    pub setup_rounds: u64,
}

impl Stack {
    /// Pays the one-time setup: Theorem 1 clustering plus Lemma 11
    /// labeling.
    pub fn establish(
        engine: &mut Engine<'_>,
        params: &ProtocolParams,
        seeds: &mut SeedSeq,
        delta: usize,
    ) -> Self {
        let start = engine.round();
        let net = engine.network();
        let n = net.len();
        let all: Vec<usize> = (0..n).collect();
        let cl = clustering(engine, params, seeds, &all, delta);
        let cluster_of = cl.cluster_or_id_all(net);
        let fs = full_sparsification(engine, params, seeds, delta, &all, &cluster_of);
        let lab = imperfect_labeling(engine, &fs, params.kappa);
        Self {
            params: *params,
            clustering: cl,
            labeling: lab,
            setup_rounds: engine.round() - start,
        }
    }

    /// The clustering underlying the stack.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The labeling underlying the stack.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// One steady-state local-broadcast round-trip: every node's
    /// `payload(v)` is delivered to all its communication-graph neighbors.
    /// Returns `(rounds_used, deliveries)` where `deliveries[v]` is the set
    /// of nodes that heard `v`.
    pub fn local_broadcast_round(
        &self,
        engine: &mut Engine<'_>,
        seeds: &mut SeedSeq,
        payload: impl Fn(usize) -> u64,
        // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
    ) -> (u64, Vec<HashSet<usize>>) {
        let start = engine.round();
        let net = engine.network();
        let n = net.len();
        let cluster_of = self.clustering.cluster_or_id_all(net);
        let mut heard_by: Vec<HashSet<usize>> = vec![HashSet::new(); n]; // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
        let max_label = self.labeling.max_label();
        for l in 1..=max_label {
            let members: Vec<usize> = (0..n).filter(|&v| self.labeling.label[v] == l).collect();
            if members.is_empty() {
                continue;
            }
            let net = engine.network();
            let run = run_sns(engine, &self.params, seeds, &members, |v| Msg::Payload {
                id: net.id(v),
                cluster: cluster_of[v],
                data: payload(v),
            });
            for (recv, sender, _) in run.receptions {
                heard_by[sender].insert(recv);
            }
        }
        (engine.round() - start, heard_by)
    }

    /// Convenience: did the last round's deliveries cover the whole
    /// communication graph?
    // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
    pub fn complete(&self, engine: &Engine<'_>, heard_by: &[HashSet<usize>]) -> bool {
        missing_deliveries(engine.network(), heard_by).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn field() -> Network {
        let mut rng = Rng64::new(401);
        Network::builder(deploy::uniform_square(35, 2.5, &mut rng))
            .build()
            .unwrap()
    }

    #[test]
    fn steady_state_is_much_cheaper_than_setup() {
        let net = field();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let stack = Stack::establish(&mut engine, &params, &mut seeds, net.density());
        let (rounds, heard) = stack.local_broadcast_round(&mut engine, &mut seeds, |v| v as u64);
        assert!(
            stack.complete(&engine, &heard),
            "steady-state broadcast incomplete"
        );
        assert!(
            rounds * 10 < stack.setup_rounds,
            "steady state ({rounds}) should be ≫ cheaper than setup ({})",
            stack.setup_rounds
        );
    }

    #[test]
    fn repeated_rounds_keep_working_with_fresh_payloads() {
        let net = field();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let stack = Stack::establish(&mut engine, &params, &mut seeds, net.density());
        for epoch in 0..3u64 {
            let (_, heard) =
                stack.local_broadcast_round(&mut engine, &mut seeds, |v| epoch * 1000 + v as u64);
            assert!(stack.complete(&engine, &heard), "epoch {epoch} incomplete");
        }
    }
}
