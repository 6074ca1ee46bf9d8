//! Sparse Network Schedule — Lemma 4.
//!
//! For a node set of *constant density* γ, an `(N, k_γ)`-ssf of length
//! `O(log N)` lets every member deliver its message to every point within
//! distance `1 − ε`: some round schedules the member alone within the
//! interference-relevant ball `B(v, x)`, and Proposition 1 bounds the
//! leftover far interference below the decoding margin.
//!
//! [`label_sweep`] runs one schedule per label value of an imperfect
//! labeling: the local broadcast of Algorithm 7 and of each phase of
//! Algorithm 8.

use crate::labeling::Labeling;
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::run::{fresh_sns, ReplayUnit, SchedHandle, SeedSeq};
use dcluster_sim::engine::Engine;

/// A recorded SNS execution: the replayable unit plus every reception
/// `(receiver, sender, message)` that occurred (receivers include
/// non-members — sleeping nodes hear SNS transmissions; that is how global
/// broadcast wakes the next layer).
#[derive(Debug, Clone)]
pub struct SnsRun {
    /// The schedule + member snapshot (replayable).
    pub unit: ReplayUnit,
    /// All receptions, in round order.
    pub receptions: Vec<(usize, usize, Msg)>,
}

impl SnsRun {
    /// Distinct `(receiver, sender)` pairs.
    // lint:allow(D1, reason = "order-free pair set; compared by membership")
    pub fn delivered_pairs(&self) -> std::collections::HashSet<(usize, usize)> {
        self.receptions.iter().map(|&(r, s, _)| (r, s)).collect()
    }

    /// True iff `receiver` heard `sender` at least once.
    pub fn heard(&self, receiver: usize, sender: usize) -> bool {
        self.receptions
            .iter()
            .any(|&(r, s, _)| r == receiver && s == sender)
    }
}

/// Executes one Sparse Network Schedule on `members`, each transmitting the
/// message given by `payload`. Costs `O(log N)` rounds.
pub fn run_sns(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    members: &[usize],
    payload: impl Fn(usize) -> Msg,
) -> SnsRun {
    let net = engine.network();
    let ssf = fresh_sns(params, seeds, net.max_id());
    let unit = ReplayUnit::snapshot(net, SchedHandle::Ssf(ssf), members, &vec![0; net.len()]);
    let mut receptions = Vec::new();
    unit.run(engine, &payload, &mut |recv, _lr, sender, msg| {
        receptions.push((recv, sender, *msg));
    });
    SnsRun { unit, receptions }
}

/// Algorithm 7's label sweep (lines 3–4): for each label value up to the
/// bound, one Sparse Network Schedule run by the nodes holding that label,
/// each transmitting `payload`; every reception `(receiver, sender,
/// message)` goes to `on_reception`, by label, then in round order. The
/// nodes holding a fixed label have constant density, so each schedule
/// delivers their messages within `1 − ε` (Lemma 4). Nodes know the bound
/// ∆ (`delta`); under `params.adaptive` the sweep stops at the largest
/// label present (an observer shortcut: sweeping silent labels costs
/// rounds but changes nothing).
pub fn label_sweep(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    labeling: &Labeling,
    delta: usize,
    payload: impl Fn(usize) -> Msg,
    mut on_reception: impl FnMut(usize, usize, Msg),
) {
    let bound = if params.adaptive {
        labeling.max_label()
    } else {
        delta.max(1) as u32
    };
    for l in 1..=bound {
        let members: Vec<usize> = (0..labeling.label.len())
            .filter(|&v| labeling.label[v] == l)
            .collect();
        if members.is_empty() {
            continue;
        }
        let run = run_sns(engine, params, seeds, &members, &payload);
        for (recv, sender, msg) in run.receptions {
            on_reception(recv, sender, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    /// Lemma 4's guarantee on a constant-density set: every member is heard
    /// by every node within the communication radius.
    #[test]
    fn sparse_set_members_reach_all_comm_neighbors() {
        let mut rng = Rng64::new(3);
        // ~1 node per unit area: constant density.
        let pts = deploy::with_min_separation(deploy::uniform_square(120, 10.0, &mut rng), 0.45);
        let net = Network::builder(pts).build().unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..net.len()).collect();
        let run = run_sns(&mut engine, &params, &mut seeds, &members, |v| Msg::Hello {
            id: net.id(v),
            cluster: 0,
        });
        let g = net.comm_graph();
        for v in 0..net.len() {
            for &u in g.neighbors(v) {
                assert!(
                    run.heard(u as usize, v),
                    "comm neighbor {u} failed to hear {v} during SNS"
                );
            }
        }
    }

    #[test]
    fn non_members_receive_but_do_not_transmit() {
        let mut rng = Rng64::new(4);
        let pts = deploy::with_min_separation(deploy::uniform_square(40, 6.0, &mut rng), 0.5);
        let net = Network::builder(pts).build().unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let members: Vec<usize> = (0..net.len() / 2).collect();
        let run = run_sns(&mut engine, &params, &mut seeds, &members, |v| Msg::Hello {
            id: net.id(v),
            cluster: 0,
        });
        for &(_, sender, _) in &run.receptions {
            assert!(members.contains(&sender), "non-member transmitted");
        }
    }

    #[test]
    fn sns_length_is_logarithmic_in_ids() {
        let mut rng = Rng64::new(5);
        let pts = deploy::uniform_square(20, 4.0, &mut rng);
        let net_small = Network::builder(pts.clone())
            .max_id(1_000)
            .seed(1)
            .build()
            .unwrap();
        let net_big = Network::builder(pts)
            .max_id(1_000_000)
            .seed(1)
            .build()
            .unwrap();
        let params = ProtocolParams::theory();
        let mut seeds = SeedSeq::new(1);
        let s_small = fresh_sns(&params, &mut seeds, net_small.max_id());
        let s_big = fresh_sns(&params, &mut seeds, net_big.max_id());
        use dcluster_selectors::Schedule;
        let ratio = s_big.len() as f64 / s_small.len() as f64;
        assert!(ratio < 3.0, "length must grow ~log N, got ratio {ratio}");
    }
}
