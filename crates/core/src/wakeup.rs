//! The wake-up problem — Theorem 4.
//!
//! Some nodes activate spontaneously (adversarial times); active nodes must
//! activate everyone. With a global clock, the paper tiles time into
//! windows of length `T(N, ∆)`; each window runs `Clustering` on the nodes
//! spontaneously active before the window, then `SMSBroadcast` from the
//! resulting constant-density center set. We reproduce the construction
//! for the window containing the first activation (later windows are
//! identical repetitions) and measure rounds from first activation until
//! the whole network is awake.

use crate::clustering::clustering;
use crate::global_broadcast::sms_broadcast;
use crate::params::ProtocolParams;
use crate::run::SeedSeq;
use dcluster_sim::engine::Engine;

/// Result of a wake-up execution.
#[derive(Debug, Clone)]
pub struct WakeupOutcome {
    /// Rounds from the first spontaneous activation until everyone is
    /// awake (the wake-up cost measure).
    pub rounds: u64,
    /// True iff everyone ended up awake.
    pub all_awake: bool,
    /// Number of cluster centers the clustering stage produced.
    pub centers: usize,
}

/// Runs the Theorem 4 construction: `spontaneous` nodes are active at
/// window start; everyone else must be woken by radio.
pub fn wakeup(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    spontaneous: &[usize],
    delta: usize,
) -> WakeupOutcome {
    assert!(
        !spontaneous.is_empty(),
        "wake-up needs at least one active node"
    );
    engine.begin_phase("wakeup");
    let start = engine.round();
    // Step 1: cluster the spontaneously active set; centers form a
    // constant-density set S′ with pairwise separation ≥ 1 − ε.
    let cl = clustering(engine, params, seeds, spontaneous, delta);
    let centers = if cl.centers.is_empty() {
        spontaneous[..1.min(spontaneous.len())].to_vec()
    } else {
        cl.centers.clone()
    };
    // Step 2: SMSB from S′ wakes the whole network.
    let out = sms_broadcast(engine, params, seeds, &centers, delta, AWAKE_PAYLOAD);
    engine.end_phase();
    WakeupOutcome {
        rounds: engine.round() - start,
        all_awake: out.delivered_all,
        centers: centers.len(),
    }
}

/// Payload tag used by wake-up broadcasts.
const AWAKE_PAYLOAD: u64 = 0xA3A3;

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    #[test]
    fn one_spontaneous_node_wakes_a_corridor() {
        let mut rng = Rng64::new(90);
        let pts = deploy::corridor_with_spine(20, 5.0, 1.0, 0.5, &mut rng);
        let net = Network::builder(pts).build().unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = wakeup(&mut engine, &params, &mut seeds, &[0], net.density());
        assert!(out.all_awake);
        assert!(out.rounds > 0);
    }

    #[test]
    fn many_spontaneous_nodes_still_work() {
        let mut rng = Rng64::new(91);
        let pts = deploy::corridor_with_spine(20, 5.0, 1.0, 0.5, &mut rng);
        let net = Network::builder(pts).build().unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let spontaneous: Vec<usize> = (0..net.len()).step_by(3).collect();
        let out = wakeup(
            &mut engine,
            &params,
            &mut seeds,
            &spontaneous,
            net.density(),
        );
        assert!(out.all_awake);
        assert!(out.centers >= 1);
    }
}
