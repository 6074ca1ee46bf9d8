//! Leader election — Theorem 5.
//!
//! `Clustering` on the whole network yields the constant-density center
//! set `S`. A binary search over ID ranges then isolates the minimum
//! center ID: probing `[lo, mid]` means running `SMSBroadcast(V, S′)` with
//! `S′ = S ∩ [lo, mid]` — if `S′` is nonempty the broadcast reaches every
//! node within the window (everyone observes "signal"), otherwise the
//! window stays silent (everyone observes "empty"). `O(log N)` probes,
//! `O(D(∆ + log* N) log² N)` rounds total.

use crate::clustering::clustering;
use crate::global_broadcast::sms_broadcast;
use crate::params::ProtocolParams;
use crate::run::SeedSeq;
use dcluster_sim::engine::{Engine, RoundBehavior};
use dcluster_sim::network::Network;

/// Result of a leader election.
#[derive(Debug, Clone)]
pub struct LeaderOutcome {
    /// The elected leader's paper ID (the minimum center ID).
    pub leader_id: u64,
    /// The minimum ID over the candidate set `S` the search runs on: the
    /// clustering's centers, or node 0 when it returned none. A correct
    /// election elects it.
    pub min_center_id: u64,
    /// Rounds consumed end-to-end.
    pub rounds: u64,
    /// Binary-search probes executed.
    pub probes: usize,
}

/// No-op behavior used to burn the fixed-length silent windows of empty
/// probes (the rounds are genuinely consumed; nobody transmits).
struct Silent;
impl RoundBehavior<crate::msg::Msg> for Silent {
    fn transmit(&mut self, _: &Network, _: usize, _: u64) -> Option<crate::msg::Msg> {
        None
    }
    fn receive(&mut self, _: &Network, _: usize, _: u64, _: usize, _: &crate::msg::Msg) {}
}

/// Runs the Theorem 5 election over the whole network.
pub fn leader_election(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    delta: usize,
) -> LeaderOutcome {
    engine.begin_phase("leader");
    let start = engine.round();
    let net = engine.network();
    let n = net.len();
    let all: Vec<usize> = (0..n).collect();

    // Stage 1: clustering; centers are the candidate set S.
    let cl = clustering(engine, params, seeds, &all, delta);
    let mut candidates: Vec<usize> = cl.centers.clone();
    if candidates.is_empty() {
        candidates.push(0);
    }
    let min_center_id = candidates.iter().map(|&v| net.id(v)).min().unwrap_or(0);

    // Reference window: one full-range SMSB fixes the silent-window length
    // all nodes will assume for empty probes (T(N, ∆) in the paper).
    let w0 = engine.round();
    let _ = sms_broadcast(engine, params, seeds, &candidates, delta, u64::MAX);
    let window = (engine.round() - w0).max(1);
    let mut probes = 1usize;

    // Stage 2: binary search for the minimum candidate ID over [1, N].
    let (mut lo, mut hi) = (1u64, net.max_id());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let sub: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&v| (lo..=mid).contains(&net.id(v)))
            .collect();
        probes += 1;
        if sub.is_empty() {
            // Silent window of the agreed length.
            engine.run(&mut Silent, window);
            lo = mid + 1;
        } else {
            let out = sms_broadcast(engine, params, seeds, &sub, delta, mid);
            debug_assert!(out.delivered_all, "probe broadcast must reach everyone");
            hi = mid;
        }
    }

    engine.end_phase();
    LeaderOutcome {
        leader_id: lo,
        min_center_id,
        rounds: engine.round() - start,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    #[test]
    fn elects_the_minimum_center_id() {
        let mut rng = Rng64::new(95);
        let pts = deploy::corridor_with_spine(18, 4.0, 1.0, 0.5, &mut rng);
        let net = Network::builder(pts).seed(5).max_id(500).build().unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = leader_election(&mut engine, &params, &mut seeds, net.density());
        assert_eq!(out.leader_id, out.min_center_id);
        // The leader must be an existing node's ID.
        assert!(
            net.index_of(out.leader_id).is_some(),
            "leader {} not a node",
            out.leader_id
        );
        assert!(out.probes >= 2);
        assert!(out.rounds > 0);
    }

    #[test]
    fn leader_is_unique_and_deterministic() {
        let mut rng = Rng64::new(96);
        let pts = deploy::corridor_with_spine(15, 3.0, 1.0, 0.5, &mut rng);
        let net = Network::builder(pts).build().unwrap();
        let params = ProtocolParams::practical();
        let run = |net: &Network| {
            let mut seeds = SeedSeq::new(params.seed);
            let mut engine = Engine::new(net);
            leader_election(&mut engine, &params, &mut seeds, net.density()).leader_id
        };
        assert_eq!(run(&net), run(&net));
    }
}
