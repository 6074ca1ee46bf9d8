//! Global-broadcast baselines — the non-"this work" rows of Table 2.

use crate::GlobalOutcome;
use dcluster_selectors::ssf::RandomSsf;
use dcluster_selectors::Schedule;
use dcluster_sim::engine::{Engine, RoundBehavior};
use dcluster_sim::network::Network;
use dcluster_sim::rng::hash64;

#[inline]
fn coin(seed: u64, id: u64, round: u64, p: f64) -> bool {
    let h = hash64(seed, &[id, round]);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
}

struct Flood<F: FnMut(&Network, usize, u64, &[bool]) -> bool> {
    awake: Vec<bool>,
    decide: F,
}

impl<F: FnMut(&Network, usize, u64, &[bool]) -> bool> RoundBehavior<u64> for Flood<F> {
    fn transmit(&mut self, net: &Network, v: usize, round: u64) -> Option<u64> {
        (self.awake[v] && (self.decide)(net, v, round, &self.awake)).then(|| net.id(v))
    }
    fn receive(&mut self, _net: &Network, recv: usize, _round: u64, _sender: usize, _m: &u64) {
        self.awake[recv] = true;
    }
}

fn run_flood<F: FnMut(&Network, usize, u64, &[bool]) -> bool>(
    net: &Network,
    source: usize,
    cap: u64,
    decide: F,
) -> GlobalOutcome {
    let mut awake = vec![false; net.len()];
    awake[source] = true;
    let mut engine = Engine::new(net);
    let mut b = Flood { awake, decide };
    let rounds = engine.run_until(&mut b, cap, |b| b.awake.iter().all(|&a| a));
    GlobalOutcome {
        rounds,
        reached_all: b.awake.iter().all(|&a| a),
        awake: b.awake,
        transmissions: engine.stats().transmissions,
    }
}

/// \[10\]/\[25\]-class randomized flooding: awake nodes run Decay epochs of
/// `⌈log₂ n⌉+1` rounds, transmitting with probability `2^{−j}` in epoch
/// round `j`. Awake layers advance ~1 hop per `O(log² n)` rounds:
/// `O(D log² n)`-shaped (the \[25\] bound; \[10\] pays an extra geometric
/// factor on adversarial instances).
pub fn decay_flood(net: &Network, source: usize, seed: u64, cap: u64) -> GlobalOutcome {
    let epoch = (net.len().max(2) as f64).log2().ceil() as u64 + 1;
    run_flood(net, source, cap, move |net, v, round, _| {
        let j = round % epoch;
        coin(seed, net.id(v), round, 0.5f64.powi(j as i32 + 1))
    })
}

/// \[26\]-style deterministic flooding **with coordinates**: grid cells of
/// side `(1−ε)/(2√2)` colored in an `M × M` pattern; stripes of the time
/// axis activate one color class at a time, inside which awake nodes run an
/// `(N,k)`-ssf per cell — some round makes each awake node the unique
/// transmitter of its (far-separated) cell, pushing the wavefront one cell
/// per full sweep: `O(D · M²·k² log N)` with constant `M`, i.e.
/// `D · polylog` for bounded cell occupancy.
pub fn location_grid_flood(
    net: &Network,
    source: usize,
    delta: usize,
    color_period: usize,
    factor: f64,
    cap: u64,
) -> GlobalOutcome {
    let eps = net.params().epsilon;
    let cell = net.params().range() * (1.0 - eps) / (2.0 * std::f64::consts::SQRT_2);
    let m = color_period.max(2) as u64;
    let k = delta.max(2);
    let len = ((RandomSsf::recommended_len(net.max_id(), k) as f64 * factor).ceil() as u64).max(64);
    let ssf = RandomSsf::with_len(0x6E0_C0DE, k, len);
    run_flood(net, source, cap, move |net, v, round, _| {
        let p = net.pos(v);
        let (cx, cy) = ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let stripe = (round / len) % (m * m);
        let mine = (cx.rem_euclid(m as i64) as u64) * m + cy.rem_euclid(m as i64) as u64;
        stripe == mine && ssf.contains(round % len, net.id(v))
    })
}

/// The generic deterministic no-features flooding (the \[27\]-class row of
/// Table 2): a collision-free **ID sweep** — the awake node with
/// `id ≡ round (mod N)` transmits alone, so every sweep of `N` rounds
/// advances the frontier: `Θ(D·N)` worst case. This is the slow-but-certain
/// baseline that the paper's `O(D(∆+log* N) log N)` algorithm dominates.
pub fn round_robin_flood(net: &Network, source: usize, cap: u64) -> GlobalOutcome {
    let n_univ = net.max_id();
    run_flood(net, source, cap, move |net, v, round, _| {
        net.id(v) % n_univ == round % n_univ
    })
}

/// Deterministic ssf flooding (no location, no randomness): all awake
/// nodes run a global `(N, k)`-ssf with `k ≈ ∆`. Locally-unique selections
/// wake neighborhoods; distant same-round transmitters occasionally
/// interfere (no witnessed filtering — that is exactly the gap the paper's
/// wss machinery closes), so completion is empirical, not guaranteed.
pub fn ssf_flood(
    net: &Network,
    source: usize,
    delta: usize,
    factor: f64,
    cap: u64,
) -> GlobalOutcome {
    let k = delta.max(2);
    let len = ((RandomSsf::recommended_len(net.max_id(), k) as f64 * factor).ceil() as u64).max(64);
    let ssf = RandomSsf::with_len(0x55F_F100D, k, len);
    run_flood(net, source, cap, move |net, v, round, _| {
        ssf.contains(round % len, net.id(v))
    })
}

/// **Extension (paper's open question)**: deterministic global broadcast
/// *with carrier sensing*. The sensing oracle reports whether the summed
/// received power exceeds the noise floor ("busy"). Awake nodes hold a
/// deterministic backoff (a hash of ID and round, so equal residues cannot
/// lock-step); the counter only ticks down on idle rounds, and hitting
/// zero triggers a transmission. This is the CSMA-flavored flooding the
/// conclusion of the paper speculates about: no location, no randomness —
/// yet `D·poly(Δ)`-ish in practice, escaping the Theorem 6 regime because
/// sensing *is* an extra model feature.
pub fn carrier_sense_flood(net: &Network, source: usize, window: u64, cap: u64) -> GlobalOutcome {
    use dcluster_sim::radio::{sensed_power, AggregatedResolver, SinrResolver};
    let window = window.max(2);
    let fresh = |id: u64, round: u64| hash64(0xC5_F100D, &[id, round]) % window + 1;
    let mut awake = vec![false; net.len()];
    awake[source] = true;
    let mut backoff: Vec<u64> = (0..net.len()).map(|v| fresh(net.id(v), 0)).collect();
    let mut radio = AggregatedResolver::new();
    let mut transmissions = 0u64;
    let mut rounds = 0u64;
    let busy_threshold = net.params().noise;
    for round in 0..cap {
        rounds = round;
        if awake.iter().all(|&a| a) {
            break;
        }
        let tx: Vec<usize> = (0..net.len())
            .filter(|&v| awake[v] && backoff[v] == 0)
            .collect();
        transmissions += tx.len() as u64;
        for r in radio.resolve(net, &tx) {
            awake[r.receiver] = true;
        }
        let sensed = sensed_power(net, &tx);
        for v in 0..net.len() {
            if !awake[v] {
                continue;
            }
            if backoff[v] == 0 {
                backoff[v] = fresh(net.id(v), round + 1); // just transmitted
            } else if sensed[v] <= busy_threshold {
                backoff[v] -= 1; // carrier idle: tick down
            } // busy: freeze — someone nearby holds the channel
        }
    }
    GlobalOutcome {
        rounds,
        reached_all: awake.iter().all(|&a| a),
        awake,
        transmissions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn corridor(seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        let pts = deploy::corridor_with_spine(30, 8.0, 1.0, 0.5, &mut rng);
        Network::builder(pts).build().unwrap()
    }

    #[test]
    fn decay_flood_crosses_the_corridor() {
        let net = corridor(11);
        let out = decay_flood(&net, 0, 3, 500_000);
        assert!(out.reached_all, "decay stalled at {} rounds", out.rounds);
    }

    #[test]
    fn round_robin_flood_always_succeeds() {
        let net = corridor(12);
        let d = net.comm_graph().diameter().unwrap() as u64;
        let out = round_robin_flood(&net, 0, (d + 2) * net.max_id() + 1);
        assert!(out.reached_all);
        // Collision-free: one transmitter per round max.
        assert!(out.transmissions <= out.rounds);
    }

    #[test]
    fn location_grid_flood_is_deterministic_and_succeeds() {
        let net = corridor(13);
        let delta = net.max_degree().max(2);
        let a = location_grid_flood(&net, 0, delta, 4, 0.05, 2_000_000);
        let b = location_grid_flood(&net, 0, delta, 4, 0.05, 2_000_000);
        assert!(a.reached_all, "grid flood stalled at {} rounds", a.rounds);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn ssf_flood_succeeds_on_moderate_corridors() {
        let net = corridor(14);
        let out = ssf_flood(&net, 0, net.max_degree().max(2), 0.1, 2_000_000);
        assert!(
            out.reached_all,
            "ssf flood stalled at {} rounds",
            out.rounds
        );
    }

    #[test]
    fn carrier_sense_flood_crosses_and_is_deterministic() {
        let net = corridor(16);
        let delta = net.max_degree().max(2) as u64;
        let a = carrier_sense_flood(&net, 0, 2 * delta, 500_000);
        let b = carrier_sense_flood(&net, 0, 2 * delta, 500_000);
        assert!(
            a.reached_all,
            "carrier-sense flood stalled at {} rounds",
            a.rounds
        );
        assert_eq!(a.rounds, b.rounds, "deterministic algorithm must reproduce");
    }

    #[test]
    fn carrier_sense_beats_the_id_sweep() {
        let mut rng = Rng64::new(17);
        let pts = deploy::corridor_with_spine(25, 6.0, 1.0, 0.5, &mut rng);
        let net = Network::builder(pts).max_id(4096).seed(9).build().unwrap();
        let d = net.comm_graph().diameter().unwrap() as u64;
        let cs = carrier_sense_flood(&net, 0, 2 * net.max_degree().max(2) as u64, 500_000);
        let rr = round_robin_flood(&net, 0, (d + 2) * net.max_id() + 1);
        assert!(cs.reached_all && rr.reached_all);
        assert!(
            cs.rounds < rr.rounds,
            "sensing ({}) must beat the blind N-sweep ({})",
            cs.rounds,
            rr.rounds
        );
    }

    #[test]
    fn decay_is_faster_than_round_robin_for_large_id_space() {
        let mut rng = Rng64::new(15);
        let pts = deploy::corridor_with_spine(25, 6.0, 1.0, 0.5, &mut rng);
        // Big ID space (N = n²) punishes the ID sweep, as in the paper.
        let net = Network::builder(pts).max_id(4096).seed(9).build().unwrap();
        let d = net.comm_graph().diameter().unwrap() as u64;
        let decay = decay_flood(&net, 0, 3, 500_000);
        let rr = round_robin_flood(&net, 0, (d + 2) * net.max_id() + 1);
        assert!(decay.reached_all && rr.reached_all);
        assert!(
            decay.rounds < rr.rounds,
            "randomized decay ({}) must beat the N-sweep ({})",
            decay.rounds,
            rr.rounds
        );
    }
}
