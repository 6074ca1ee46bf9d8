//! `SMSBroadcast` — Algorithm 8 (Theorem 3): sparse multiple-source
//! broadcast, and ordinary global broadcast as its single-source case.
//!
//! Runs in phases; phase `i` makes every node awakened in phase `i−1`
//! perform local broadcast, so the awake set swallows one
//! communication-graph layer per phase (`⋃_{j≤i} V_j ⊆ ⋃_{j≤i} L_j`).
//! Each phase: **Stage 1** — imperfect labeling of the (1-clustered) layer;
//! **Stage 2** — one SNS per label value carrying the payload; sleeping
//! receivers wake and *inherit the cluster of their awakener*, giving a
//! 2-clustering of the new layer; **Stage 3** — `RadiusReduction` restores
//! a 1-clustering. Total `O(D(∆ + log* N) log N)` rounds.

use crate::check::missing_deliveries;
use crate::labeling::imperfect_labeling;
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::radius::radius_reduction;
use crate::run::SeedSeq;
use crate::sns::{label_sweep, run_sns};
use crate::sparsify::full_sparsification;
use dcluster_sim::engine::Engine;
use std::collections::HashSet;

/// Per-phase progress record (drives the Figure 1 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase number (1-based; phase 0 is the source SNS).
    pub phase: usize,
    /// Nodes awakened during this phase.
    pub newly_awake: usize,
    /// Awake total after the phase.
    pub awake_total: usize,
    /// Rounds spent in this phase.
    pub rounds: u64,
    /// Stage 1 (imperfect labeling) rounds.
    pub stage1_rounds: u64,
    /// Stage 2 (label-by-label SNS local broadcast) rounds.
    pub stage2_rounds: u64,
    /// Stage 3 (radius reduction) rounds.
    pub stage3_rounds: u64,
}

/// Result of a (multi-source) global broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Rounds consumed end-to-end.
    pub rounds: u64,
    /// Whether every node is awake (SMSB condition (a)).
    pub delivered_all: bool,
    /// Whether every node's own transmission reached all its comm-graph
    /// neighbors (SMSB condition (b)).
    pub local_broadcast_ok: bool,
    /// Awake flags at the end.
    pub awake: Vec<bool>,
    /// Final cluster of each node.
    pub cluster_of: Vec<Option<u64>>,
    /// Phase-by-phase progress.
    pub phases: Vec<PhaseRecord>,
}

/// Runs Algorithm 8 from the source set `sources` (pairwise distance
/// greater than 1 − ε, the SMSB precondition) with density bound `delta`;
/// `data` is the broadcast payload.
pub fn sms_broadcast(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    sources: &[usize],
    delta: usize,
    data: u64,
) -> BroadcastOutcome {
    engine.begin_phase("global_broadcast");
    let start = engine.round();
    let net = engine.network();
    let n = net.len();
    debug_assert!(
        sources.iter().all(|&a| sources
            .iter()
            .all(|&b| a == b || net.pos(a).dist(net.pos(b)) > net.params().comm_radius())),
        "SMSB requires pairwise source distance > 1 − ε"
    );

    let mut nodes = Nodes {
        awake: vec![false; n],
        cluster_of: vec![None; n],
        heard_by: vec![HashSet::new(); n], // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
    };
    let mut phases: Vec<PhaseRecord> = Vec::new();

    // Phase 0 (Alg. 8 lines 1–2): sources transmit via SNS; receivers wake
    // and join the cluster of their awakener (= the source's ID).
    for &s in sources {
        nodes.awake[s] = true;
        nodes.cluster_of[s] = Some(net.id(s));
    }
    let run = run_sns(engine, params, seeds, sources, |v| Msg::Payload {
        id: net.id(v),
        cluster: net.id(v),
        data,
    });
    let mut layer = Vec::new();
    for (recv, sender, msg) in run.receptions {
        nodes.hear(recv, sender, msg, &mut layer);
    }
    layer.sort_unstable();

    // Phases 1, 2, … (lines 3–6): loop while the previous phase woke nodes.
    // The paper runs ⌈D⌉ phases (D is known); we stop when a phase wakes
    // nobody — the same point, observed — and cap at n for safety.
    let mut phase_no = 0usize;
    while !layer.is_empty() && phase_no < n {
        phase_no += 1;
        let phase_start = engine.round();

        // Stage 1: imperfect labeling of the 1-clustered layer.
        let clusters: Vec<u64> = (0..n).map(|v| nodes.cluster_of[v].unwrap_or(0)).collect();
        let fs = full_sparsification(engine, params, seeds, delta, &layer, &clusters);
        let lab = imperfect_labeling(engine, &fs);
        let stage1_end = engine.round();

        // Stage 2: local broadcast from the layer, label by label; sleepers
        // wake and inherit clusters (2-clustering of the new layer). Only
        // layer nodes hold labels and only sleepers change cluster, so
        // `clusters` stays every transmitter's cluster throughout.
        let payload = |v| Msg::Payload {
            id: net.id(v),
            cluster: clusters[v],
            data,
        };
        let mut newly = Vec::new();
        label_sweep(
            engine,
            params,
            seeds,
            &lab,
            delta,
            payload,
            |recv, sender, msg| nodes.hear(recv, sender, msg, &mut newly),
        );
        newly.sort_unstable();
        let stage2_end = engine.round();

        // Stage 3: the inherited clustering has radius ≤ 2; reduce to 1.
        if !newly.is_empty() {
            let old: Vec<u64> = (0..n).map(|v| nodes.cluster_of[v].unwrap_or(0)).collect();
            let rr = radius_reduction(engine, params, seeds, delta, &newly, &old, 2.0);
            for &v in &newly {
                if let Some(c) = rr.cluster_of[v] {
                    nodes.cluster_of[v] = Some(c);
                }
            }
        }

        phases.push(PhaseRecord {
            phase: phase_no,
            newly_awake: newly.len(),
            awake_total: nodes.awake.iter().filter(|&&a| a).count(),
            rounds: engine.round() - phase_start,
            stage1_rounds: stage1_end - phase_start,
            stage2_rounds: stage2_end - stage1_end,
            stage3_rounds: engine.round() - stage2_end,
        });
        layer = newly;
    }

    let delivered_all = nodes.awake.iter().all(|&a| a);
    let local_broadcast_ok =
        delivered_all && missing_deliveries(engine.network(), &nodes.heard_by).is_empty();
    engine.end_phase();
    BroadcastOutcome {
        rounds: engine.round() - start,
        delivered_all,
        local_broadcast_ok,
        awake: nodes.awake,
        cluster_of: nodes.cluster_of,
        phases,
    }
}

/// What SMSB knows of every node.
struct Nodes {
    /// Woken so far.
    awake: Vec<bool>,
    /// Cluster joined on waking (`None` while asleep).
    cluster_of: Vec<Option<u64>>,
    /// `heard_by[v]` = the nodes that received `v`'s transmissions.
    heard_by: Vec<HashSet<usize>>, // lint:allow(D1, reason = "delivery-witness sets; membership queries only")
}

impl Nodes {
    /// Records a reception of phase 0 or of a stage 2 as a delivery; a
    /// sleeping receiver wakes, joins the cluster its awakener announced
    /// and is pushed onto `woken`.
    fn hear(&mut self, recv: usize, sender: usize, msg: Msg, woken: &mut Vec<usize>) {
        self.heard_by[sender].insert(recv);
        if let Msg::Payload { cluster, .. } = msg {
            if !self.awake[recv] {
                self.awake[recv] = true;
                self.cluster_of[recv] = Some(cluster);
                woken.push(recv);
            }
        }
    }
}

/// Global broadcast (Theorem 3's corollary): SMSB from a single source.
pub fn global_broadcast(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    source: usize,
    delta: usize,
    data: u64,
) -> BroadcastOutcome {
    sms_broadcast(engine, params, seeds, &[source], delta, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn corridor_net(seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        let pts = deploy::corridor_with_spine(25, 6.0, 1.0, 0.5, &mut rng);
        Network::builder(pts).build().unwrap()
    }

    #[test]
    fn broadcast_wakes_the_whole_corridor() {
        let net = corridor_net(201);
        assert!(net.comm_graph().is_connected());
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = global_broadcast(&mut engine, &params, &mut seeds, 0, net.density(), 42);
        assert!(out.delivered_all, "some nodes never woke: {:?}", out.awake);
        assert!(out.rounds > 0);
        assert!(!out.phases.is_empty());
    }

    #[test]
    fn awake_set_grows_monotonically_over_phases() {
        let net = corridor_net(202);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = global_broadcast(&mut engine, &params, &mut seeds, 0, net.density(), 7);
        let mut prev = 0;
        for p in &out.phases {
            assert!(p.awake_total >= prev);
            prev = p.awake_total;
        }
    }

    #[test]
    fn multi_source_broadcast_is_faster_than_single() {
        let net = corridor_net(203);
        let params = ProtocolParams::practical();
        let delta = net.density();
        // Two sources at opposite ends (far apart ⇒ valid SMSB input).
        let left = (0..net.len())
            .min_by(|&a, &b| net.pos(a).x.partial_cmp(&net.pos(b).x).unwrap())
            .unwrap();
        let right = (0..net.len())
            .max_by(|&a, &b| net.pos(a).x.partial_cmp(&net.pos(b).x).unwrap())
            .unwrap();

        let mut seeds1 = SeedSeq::new(params.seed);
        let mut e1 = Engine::new(&net);
        let single = global_broadcast(&mut e1, &params, &mut seeds1, left, delta, 1);

        let mut seeds2 = SeedSeq::new(params.seed);
        let mut e2 = Engine::new(&net);
        let double = sms_broadcast(&mut e2, &params, &mut seeds2, &[left, right], delta, 1);

        assert!(single.delivered_all && double.delivered_all);
        assert!(
            double.phases.len() <= single.phases.len(),
            "two opposite sources can't need more phases"
        );
    }

    #[test]
    fn every_awake_node_eventually_broadcasts_locally() {
        let net = corridor_net(204);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = global_broadcast(&mut engine, &params, &mut seeds, 0, net.density(), 9);
        assert!(out.delivered_all);
        assert!(
            out.local_broadcast_ok,
            "SMSB condition (b): every node transmits to all its neighbors"
        );
    }
}
