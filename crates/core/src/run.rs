//! Schedule execution and **replay units**.
//!
//! Every communication step in the paper is an execution of a combinatorial
//! schedule by a known participant set. Because everything is
//! deterministic, *re-running a schedule with the same participant set
//! reproduces the exact same receptions* — the paper exploits this
//! ("v and parent(v) exchange messages during an execution of S", later
//! replayed for tree communication in Lemma 11). [`ReplayUnit`] captures a
//! (schedule, participant snapshot) pair so it can be re-executed with
//! fresh payloads while preserving the interference pattern: each member's
//! transmit pattern is determined by its ID and its cluster *at snapshot
//! time* (a value the node remembers locally).
//!
//! A unit has two entry points:
//!
//! * [`ReplayUnit::run`] executes the schedule and hands every reception,
//!   with its local round, to the caller. It serves callers that read the
//!   round or every message: Algorithm 1's exchange phase and the Sparse
//!   Network Schedule. Each execution resolves every round.
//! * [`ReplayUnit::run_pairs`] serves callers that ask only which
//!   (receiver, sender) pairs connected, with a payload that depends on
//!   the sender alone: Algorithm 1's confirmations, the MIS simulation,
//!   sparsification's parent notification, Lemma 11's labeling and the
//!   clustering's adoption. It hands each distinct pair to the caller
//!   once, in order of first delivery.
//!
//! The simulator uses the same fact. A unit keeps the [`Recording`] of
//! its last execution: [`ReplayUnit::run`] records into it
//! ([`Engine::run_recorded`]), and when the engine that made it runs the
//! unit again, whatever ran on it in between, [`ReplayUnit::run_pairs`]
//! replays its summary instead of polling the members and resolving each
//! round again ([`Engine::run_pairs`]): the same pairs, rounds, counts and
//! traced round events as a fresh execution. Another engine's run records
//! into it afresh. The schedule and the snapshot are private, so a
//! recording always holds the unit's own pattern, and it is freed with the
//! unit.

use crate::msg::Msg;
use crate::params::ProtocolParams;
use dcluster_selectors::ssf::RandomSsf;
use dcluster_selectors::wcss::{RandomWcss, WcssRound};
use dcluster_selectors::wss::RandomWss;
use dcluster_selectors::{ClusterSchedule, HashRound, Schedule};
use dcluster_sim::engine::{Engine, Recording, RoundBehavior};
use dcluster_sim::network::Network;
use dcluster_sim::rng::hash64;
use std::cell::RefCell;

/// Deterministic seed sequence: invocation `i` of any selector across the
/// whole protocol stack draws seed `hash(master, i)`. The invocation order
/// is globally known (the protocols are deterministic), so every node
/// derives the same families — the seeds are protocol constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSeq {
    master: u64,
    counter: u64,
}

impl SeedSeq {
    /// Starts the sequence from the protocol master seed.
    pub fn new(master: u64) -> Self {
        Self { master, counter: 0 }
    }

    /// Next fresh seed.
    pub fn next_seed(&mut self) -> u64 {
        let s = hash64(self.master, &[self.counter]);
        self.counter += 1;
        s
    }
}

/// A schedule of any of the three selector kinds, unified for storage in
/// replay units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedHandle {
    /// Strongly-selective family (cluster-oblivious).
    Ssf(RandomSsf),
    /// Witnessed strong selector (cluster-oblivious).
    Wss(RandomWss),
    /// Witnessed cluster-aware strong selector.
    Wcss(RandomWcss),
}

impl SchedHandle {
    /// Number of rounds.
    pub fn len(&self) -> u64 {
        match self {
            SchedHandle::Ssf(s) => Schedule::len(s),
            SchedHandle::Wss(s) => Schedule::len(s),
            SchedHandle::Wcss(s) => ClusterSchedule::len(s),
        }
    }

    /// True iff the schedule has no rounds (never, for valid selectors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership for `(id, cluster)` at `round` (cluster ignored by the
    /// cluster-oblivious kinds).
    #[inline]
    pub fn contains(&self, round: u64, id: u64, cluster: u64) -> bool {
        self.round(round).contains(id, cluster)
    }

    /// Round `round` of the schedule, for testing many members against it.
    #[inline]
    pub(crate) fn round(&self, round: u64) -> SchedRound {
        match self {
            SchedHandle::Ssf(s) => SchedRound::Ids(s.round(round)),
            SchedHandle::Wss(s) => SchedRound::Ids(s.round(round)),
            SchedHandle::Wcss(s) => SchedRound::Clustered(s.round(round)),
        }
    }
}

/// One round of a [`SchedHandle`]: the selector's per-round view.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SchedRound {
    /// A round of a cluster-oblivious kind (ssf, wss).
    Ids(HashRound),
    /// A round of a wcss.
    Clustered(WcssRound),
}

impl SchedRound {
    /// Membership for `(id, cluster)` (cluster ignored by [`SchedRound::Ids`]).
    #[inline]
    pub(crate) fn contains(&self, id: u64, cluster: u64) -> bool {
        match self {
            SchedRound::Ids(r) => r.contains(id),
            SchedRound::Clustered(r) => r.contains(id, cluster),
        }
    }
}

/// A participant snapshot: node index plus the (id, cluster) pair that
/// determines its transmit pattern. The cluster is frozen at unit-creation
/// time — replaying later with updated clusters would change the pattern
/// and void the delivery guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Node index in the network.
    pub node: usize,
    /// Paper ID.
    pub id: u64,
    /// Cluster at snapshot time (0 = unclustered).
    pub cluster: u64,
}

/// A replayable (schedule, participants) pair. See module docs.
#[derive(Debug, Clone)]
pub struct ReplayUnit {
    sched: SchedHandle,
    /// Participant snapshot, as listed.
    members: Vec<Member>,
    /// The last execution's summary, which [`ReplayUnit::run_pairs`]
    /// replays on the engine that made it.
    recording: RefCell<Recording>,
}

/// Delivery callback: `(receiver, local_round, sender, message)`.
pub type OnRx<'a> = &'a mut dyn FnMut(usize, u64, usize, &Msg);

/// Pair callback: `(receiver, sender, message)`.
pub type OnPair<'a> = &'a mut dyn FnMut(usize, usize, &Msg);

struct UnitBehavior<'a> {
    sched: &'a SchedHandle,
    /// The snapshot as listed: `transmit` reads it.
    members: &'a [Member],
    /// One member per node, ascending by node (of a node listed twice, its
    /// last snapshot): `transmitters` walks it.
    by_node: Vec<Member>,
    start: u64,
    payload: &'a dyn Fn(usize) -> Msg,
    on_rx: OnRx<'a>,
}

impl<'a> UnitBehavior<'a> {
    fn new(
        unit: &'a ReplayUnit,
        start: u64,
        payload: &'a dyn Fn(usize) -> Msg,
        on_rx: OnRx<'a>,
    ) -> Self {
        // Reversed, a stable sort puts a node's last snapshot first among
        // its entries, and dedup keeps the first.
        let mut by_node: Vec<Member> = unit.members.iter().rev().copied().collect();
        by_node.sort_by_key(|m| m.node);
        by_node.dedup_by_key(|m| m.node);
        Self {
            sched: &unit.sched,
            members: &unit.members,
            by_node,
            start,
            payload,
            on_rx,
        }
    }
}

impl RoundBehavior<Msg> for UnitBehavior<'_> {
    /// The reference decision: `v`'s last snapshot, tested against the
    /// schedule.
    fn transmit(&mut self, _net: &Network, v: usize, round: u64) -> Option<Msg> {
        let m = self.members.iter().rev().find(|m| m.node == v)?;
        self.sched
            .contains(round - self.start, m.id, m.cluster)
            .then(|| (self.payload)(v))
    }

    /// Tests only the members, in ascending node order, against one
    /// per-round view of the schedule.
    fn transmitters(
        &mut self,
        _net: &Network,
        round: u64,
        nodes: &mut Vec<usize>,
        msgs: &mut Vec<Msg>,
    ) {
        let view = self.sched.round(round - self.start);
        for m in &self.by_node {
            if view.contains(m.id, m.cluster) {
                nodes.push(m.node);
                msgs.push((self.payload)(m.node));
            }
        }
    }

    fn receive(&mut self, _net: &Network, v: usize, round: u64, sender: usize, msg: &Msg) {
        (self.on_rx)(v, round - self.start, sender, msg);
    }
}

impl ReplayUnit {
    /// A unit over `members`, not yet recorded.
    fn new(sched: SchedHandle, members: Vec<Member>) -> Self {
        Self {
            sched,
            members,
            recording: RefCell::default(),
        }
    }

    /// Creates a unit from node indices, snapshotting `(id, cluster)` from
    /// the network and the supplied cluster view (0 = none).
    pub fn snapshot(
        net: &Network,
        sched: SchedHandle,
        nodes: &[usize],
        cluster_of: &[u64],
    ) -> Self {
        let members = nodes
            .iter()
            .map(|&v| Member {
                node: v,
                id: net.id(v),
                cluster: cluster_of[v],
            })
            .collect();
        Self::new(sched, members)
    }

    /// The schedule.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Executes the unit: every member transmits its pattern with the
    /// message given by `payload`; every reception is reported to `on_rx`.
    /// Costs `sched.len()` rounds, each resolved, and records them for
    /// [`ReplayUnit::run_pairs`].
    ///
    /// A node listed twice transmits by its last snapshot. Each round
    /// lists its transmitters ([`RoundBehavior::transmitters`]) by testing
    /// only the members, in ascending node order, against one per-round
    /// view of the schedule: `O(members)` work instead of a poll of all n
    /// nodes, with the same transmitters in the same order.
    pub fn run(&self, engine: &mut Engine<'_>, payload: &dyn Fn(usize) -> Msg, on_rx: OnRx<'_>) {
        let mut b = UnitBehavior::new(self, engine.round(), payload, on_rx);
        engine.run_recorded(&mut self.recording.borrow_mut(), &mut b, self.sched.len());
    }

    /// Re-executes the unit with the message `payload(v)` for every
    /// member `v` — a function of the sender alone — and calls `on_pair`
    /// exactly once for each distinct (receiver, sender) pair, in order of
    /// first delivery. Costs `sched.len()` rounds, with the transmissions
    /// and receptions of [`ReplayUnit::run`]. When `engine` made the unit's
    /// recording, it is replayed without resolving a round
    /// ([`Engine::run_pairs`]); otherwise the unit runs and records.
    /// `on_pair` sees the same pairs either way.
    pub fn run_pairs(
        &self,
        engine: &mut Engine<'_>,
        payload: &dyn Fn(usize) -> Msg,
        on_pair: OnPair<'_>,
    ) {
        #[cfg(test)]
        if tests::EVERY_DELIVERY.get() {
            return self.run(engine, payload, &mut |r, _, s, m| on_pair(r, s, m));
        }
        let mut ignore = |_: usize, _: u64, _: usize, _: &Msg| {};
        let mut b = UnitBehavior::new(self, engine.round(), payload, &mut ignore);
        let rec = &mut self.recording.borrow_mut();
        engine.run_pairs(rec, &mut b, self.sched.len(), payload, on_pair);
    }
}

/// Builds a fresh `(N, κ)`-wss for this invocation (unclustered proximity
/// graphs).
pub fn fresh_wss(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomWss {
    let len = params.sched_len(RandomWss::recommended_len(n_univ, params.kappa));
    RandomWss::with_len(seeds.next_seed(), params.kappa, len)
}

/// Builds a fresh `(N, κ, ρ)`-wcss for this invocation (clustered proximity
/// graphs).
pub fn fresh_wcss(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomWcss {
    let len = params.sched_len(RandomWcss::recommended_len(
        n_univ,
        params.kappa,
        params.rho,
    ));
    RandomWcss::with_len(seeds.next_seed(), params.kappa, params.rho, len)
}

/// Builds a fresh Sparse-Network-Schedule ssf (Lemma 4's `L_γ`).
pub fn fresh_sns(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomSsf {
    let len = params.sched_len(RandomSsf::recommended_len(n_univ, params.sns_k));
    RandomSsf::with_len(seeds.next_seed(), params.sns_k, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::clustering;
    use crate::labeling::imperfect_labeling;
    use crate::mis::{local_mis, MisStrategy};
    use crate::proximity::build_proximity_graph;
    use crate::sparsify::{full_sparsification, Link};
    use dcluster_obs::{Event, PhaseSummary, Tracer};
    use dcluster_sim::engine::FnBehavior;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, EngineStats, ResolverKind};
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::rc::Rc;

    thread_local! {
        /// While set, [`ReplayUnit::run_pairs`] on this thread hands every
        /// delivery to `on_pair`, as [`ReplayUnit::run`] makes them.
        pub(super) static EVERY_DELIVERY: Cell<bool> = const { Cell::new(false) };
    }

    /// Takes the trait's default `transmitters`: the all-node poll of the
    /// wrapped behavior's `transmit`.
    struct PollAll<'b, B>(&'b mut B);

    impl<B: RoundBehavior<Msg>> RoundBehavior<Msg> for PollAll<'_, B> {
        fn transmit(&mut self, net: &Network, v: usize, round: u64) -> Option<Msg> {
            self.0.transmit(net, v, round)
        }
        fn receive(&mut self, net: &Network, v: usize, round: u64, sender: usize, msg: &Msg) {
            self.0.receive(net, v, round, sender, msg)
        }
    }

    fn sched_of(kind: u8, seed: u64, k: usize, l: usize, len: u64) -> SchedHandle {
        match kind {
            0 => SchedHandle::Ssf(RandomSsf::with_len(seed, k, len)),
            1 => SchedHandle::Wss(RandomWss::with_len(seed, k, len)),
            _ => SchedHandle::Wcss(RandomWcss::with_len(seed, k, l, len)),
        }
    }

    /// Every traced event, in order.
    #[derive(Debug, Default)]
    struct Events(Vec<Event>);

    impl Tracer for Events {
        fn on_event(&mut self, ev: &Event) {
            self.0.push(ev.clone());
        }
    }

    /// An engine over `net` with an event recorder attached.
    fn traced(net: &Network, kind: ResolverKind) -> (Engine<'_>, Rc<RefCell<Events>>) {
        let mut engine = Engine::with_resolver_kind(net, kind);
        let events = dcluster_obs::shared(Events::default());
        engine.set_tracer(events.clone());
        (engine, events)
    }

    /// What one run of a unit shows from outside.
    #[derive(Debug, PartialEq)]
    struct Seen {
        /// `(receiver, sender, message)` for each distinct pair, in order
        /// of first delivery.
        pairs: Vec<(usize, usize, Msg)>,
        /// The engine's counters over the run, `replayed` left at 0.
        stats: EngineStats,
        /// The run's phase span.
        phase: Option<PhaseSummary>,
        /// Every event the run traced.
        events: Vec<Event>,
    }

    /// The entry point a test run takes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Via {
        Run,
        Pairs,
    }

    const PHASES: [&str; 4] = ["run0", "run1", "run2", "run3"];

    /// Runs `unit` as the `tag`-th run, in a phase span of its own, with a
    /// payload that depends on `tag`. Through [`ReplayUnit::run`] the
    /// pairs are the first delivery of each, and every reception the
    /// engine counts must reach `on_rx`. Returns what the run showed and
    /// how many of its rounds the engine replayed.
    fn run_seen(
        engine: &mut Engine<'_>,
        events: &Rc<RefCell<Events>>,
        unit: &ReplayUnit,
        tag: usize,
        via: Via,
    ) -> (Seen, u64) {
        let before = engine.stats();
        let first = events.borrow().0.len();
        let net = engine.network();
        let payload = |v: usize| Msg::Hello {
            id: net.id(v),
            cluster: tag as u64,
        };
        let mut pairs: Vec<(usize, usize, Msg)> = Vec::new();
        let mut deliveries = 0;
        engine.begin_phase(PHASES[tag]);
        match via {
            Via::Run => unit.run(engine, &payload, &mut |r, _lr, s, m| {
                deliveries += 1;
                if !pairs.iter().any(|&(pr, ps, _)| (pr, ps) == (r, s)) {
                    pairs.push((r, s, *m));
                }
            }),
            Via::Pairs => unit.run_pairs(engine, &payload, &mut |r, s, m| pairs.push((r, s, *m))),
        }
        engine.end_phase();
        let after = engine.stats();
        let stats = EngineStats {
            rounds: after.rounds - before.rounds,
            transmissions: after.transmissions - before.transmissions,
            receptions: after.receptions - before.receptions,
            replayed: 0,
        };
        if via == Via::Run {
            assert_eq!(
                deliveries, stats.receptions,
                "run {tag}: one delivery per reception"
            );
        }
        let seen = Seen {
            pairs,
            stats,
            phase: engine
                .phase_table()
                .summaries()
                .iter()
                .find(|p| p.phase == PHASES[tag])
                .cloned(),
            events: events.borrow().0[first..].to_vec(),
        };
        (seen, after.replayed - before.replayed)
    }

    /// The `tag`-th run of `unit` as an engine that never ran it shows it
    /// through [`ReplayUnit::run`]: a fresh engine, brought to the same
    /// round by silent rounds. It runs a clone, so `unit` keeps its
    /// recording.
    fn fresh_seen(
        net: &Network,
        kind: ResolverKind,
        start: u64,
        unit: &ReplayUnit,
        tag: usize,
    ) -> Seen {
        let (mut engine, events) = traced(net, kind);
        let mut silent = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<Msg>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &Msg| {},
        };
        engine.run(&mut silent, start);
        let (seen, replayed) = run_seen(&mut engine, &events, &unit.clone(), tag, Via::Run);
        assert_eq!(replayed, 0, "a fresh engine has nothing to replay");
        seen
    }

    /// The outputs of every stage that runs its units through
    /// [`ReplayUnit::run_pairs`].
    #[derive(Debug, PartialEq)]
    struct StageOutputs {
        proximity: BTreeMap<usize, Vec<usize>>,
        greedy_mis: Vec<bool>,
        linial_mis: Vec<bool>,
        levels: Vec<Vec<usize>>,
        links: Vec<Link>,
        label: Vec<u32>,
        subtree_size: Vec<u32>,
        cluster_of: Vec<Option<u64>>,
        centers: Vec<usize>,
        /// The engine's counters, `replayed` left at 0.
        stats: EngineStats,
        phases: Vec<PhaseSummary>,
    }

    /// Runs proximity (its confirmations), the MIS by both strategies,
    /// full sparsification (its notifications), the labeling (both
    /// passes) and the clustering (its adoptions, and the stages it nests)
    /// on one engine over all of `net`. With `every_delivery` set each
    /// `run_pairs` call takes every delivery instead of each pair once.
    /// Returns the outputs and the rounds the engine replayed.
    fn stage_outputs(
        net: &Network,
        kind: ResolverKind,
        every_delivery: bool,
    ) -> (StageOutputs, u64) {
        EVERY_DELIVERY.set(every_delivery);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::with_resolver_kind(net, kind);
        let (n, gamma) = (net.len(), net.density());
        let all: Vec<usize> = (0..n).collect();
        let p = build_proximity_graph(&mut engine, &params, &mut seeds, &all, &vec![0; n], false);
        let mis = |engine: &mut Engine<'_>, strategy| {
            local_mis(
                engine,
                &p.unit,
                &all,
                &p.adj,
                params.kappa,
                net.max_id(),
                strategy,
            )
        };
        let greedy_mis = mis(&mut engine, MisStrategy::GreedyById);
        let linial_mis = mis(&mut engine, MisStrategy::LinialSweep);
        let fs = full_sparsification(&mut engine, &params, &mut seeds, gamma, &all, &vec![3; n]);
        let labeling = imperfect_labeling(&mut engine, &fs, params.kappa);
        let c = clustering(&mut engine, &params, &mut seeds, &all, gamma);
        EVERY_DELIVERY.set(false);
        let outputs = StageOutputs {
            proximity: p.adj,
            greedy_mis,
            linial_mis,
            levels: fs.levels,
            links: fs.links,
            label: labeling.label,
            subtree_size: labeling.subtree_size,
            cluster_of: c.cluster_of,
            centers: c.centers,
            stats: EngineStats {
                replayed: 0,
                ..engine.stats()
            },
            phases: engine.phase_table().summaries().to_vec(),
        };
        (outputs, engine.stats().replayed)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Every round, the unit's member walk lists the same nodes in the
        /// same order, with the same messages, as polling `transmit` for
        /// all n nodes: members in shuffled order, one node listed twice
        /// with a different snapshot, random clusters (0 = none).
        #[test]
        fn member_walk_equals_the_all_node_poll(
            seed in 0u64..1_000_000,
            n in 1usize..60,
            kind in 0u8..3,
            k in 1usize..5,
            l in 1usize..4,
        ) {
            let mut rng = Rng64::new(seed);
            let side = (n as f64 / 8.0).sqrt().max(0.5);
            let net = Network::builder(deploy::uniform_square(n, side, &mut rng))
                .build()
                .expect("nonempty deployment");
            let mut members = Vec::new();
            for v in 0..n {
                if rng.chance(0.6) {
                    members.push(Member { node: v, id: net.id(v), cluster: rng.range_u64(4) });
                }
            }
            let twice = rng.range_usize(n);
            members.push(Member {
                node: twice,
                id: 1 + rng.range_u64(1_000),
                cluster: rng.range_u64(4),
            });
            rng.shuffle(&mut members);
            let len = 96;
            let unit = ReplayUnit::new(sched_of(kind, seed, k, l, len), members);
            let start = rng.range_u64(10_000);
            let payload = |v: usize| Msg::Hello { id: 7 * v as u64, cluster: v as u64 };
            let mut ignore = |_: usize, _: u64, _: usize, _: &Msg| {};
            let mut b = UnitBehavior::new(&unit, start, &payload, &mut ignore);
            for lr in 0..len {
                let (mut nodes, mut msgs) = (Vec::new(), Vec::new());
                b.transmitters(&net, start + lr, &mut nodes, &mut msgs);
                let (mut polled, mut polled_msgs) = (Vec::new(), Vec::new());
                PollAll(&mut b).transmitters(&net, start + lr, &mut polled, &mut polled_msgs);
                prop_assert_eq!(&nodes, &polled, "nodes of local round {}", lr);
                prop_assert_eq!(&msgs, &polled_msgs, "messages of local round {}", lr);
            }
        }

        /// A unit run four times on one engine, through `run_pairs`
        /// (a miss, then a hit), `run` (which records again) and
        /// `run_pairs` (a hit): each run shows exactly what a fresh
        /// engine's `run` shows, its pairs being the first delivery of
        /// each, with the run's own messages; and the engine counters,
        /// phase span and traced events (field rounds' `cache` included)
        /// are a fresh run's. Ssf, wss and wcss units; uniform and
        /// heterogeneous power; both backends.
        #[test]
        fn replayed_runs_equal_fresh_runs(
            seed in 0u64..1_000_000,
            n in 2usize..60,
            kind in 0u8..3,
            k in 1usize..4,
            l in 1usize..4,
            het in 0u8..2,
        ) {
            let mut rng = Rng64::new(seed);
            let side = (n as f64 / 10.0).sqrt().max(0.5);
            let mut builder = Network::builder(deploy::uniform_square(n, side, &mut rng));
            if het == 1 {
                let base = dcluster_sim::SinrParams::default().power;
                builder = builder.powers(deploy::power_profile(n, base, 0.3, seed));
            }
            let net = builder.build().expect("nonempty deployment");
            let mut nodes: Vec<usize> = (0..n).filter(|_| rng.chance(0.7)).collect();
            if nodes.is_empty() {
                nodes.push(0);
            }
            rng.shuffle(&mut nodes);
            let cluster_of: Vec<u64> = (0..n).map(|_| rng.range_u64(3)).collect();
            let len = 64;
            let unit = ReplayUnit::snapshot(&net, sched_of(kind, seed, k, l, len), &nodes, &cluster_of);
            let runs = [(Via::Pairs, 0), (Via::Pairs, len), (Via::Run, 0), (Via::Pairs, len)];
            for backend in ResolverKind::ALL {
                let (mut engine, events) = traced(&net, backend);
                for (tag, (via, replays)) in runs.into_iter().enumerate() {
                    let start = engine.round();
                    let (seen, replayed) = run_seen(&mut engine, &events, &unit, tag, via);
                    prop_assert_eq!(replayed, replays, "run {}", tag);
                    prop_assert_eq!(&seen, &fresh_seen(&net, backend, start, &unit, tag), "run {} ({})", tag, backend);
                }
                prop_assert_eq!(
                    engine.resolver_stats().rounds + engine.stats().replayed,
                    engine.stats().rounds
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Every stage that takes each pair once through `run_pairs`
        /// gives the outputs, counters and phase table it gives when it
        /// takes every delivery through `run`: random dense deployments,
        /// uniform and heterogeneous power, both backends.
        #[test]
        fn stages_give_equal_outputs_through_run_and_run_pairs(
            seed in 0u64..1_000_000,
            n in 8usize..32,
            het in 0u8..2,
        ) {
            let mut rng = Rng64::new(seed);
            let side = (n as f64 / 12.0).sqrt();
            let mut builder = Network::builder(deploy::uniform_square(n, side, &mut rng));
            if het == 1 {
                let base = dcluster_sim::SinrParams::default().power;
                builder = builder.powers(deploy::power_profile(n, base, 0.3, seed));
            }
            let net = builder.build().expect("nonempty deployment");
            for backend in ResolverKind::ALL {
                let (pairs, replayed) = stage_outputs(&net, backend, false);
                let (every, none) = stage_outputs(&net, backend, true);
                prop_assert!(replayed > 0 && none == 0, "{} replayed, {} through run", replayed, none);
                prop_assert_eq!(&pairs, &every, "{}", backend);
            }
        }
    }

    fn small_net() -> Network {
        let mut rng = Rng64::new(1);
        Network::builder(deploy::uniform_square(30, 2.0, &mut rng))
            .build()
            .unwrap()
    }

    fn all_nodes_unit(net: &Network, seed: u64) -> ReplayUnit {
        let params = ProtocolParams::practical();
        let wss = fresh_wss(&params, &mut SeedSeq::new(seed), net.max_id());
        let nodes: Vec<usize> = (0..net.len()).collect();
        ReplayUnit::snapshot(net, SchedHandle::Wss(wss), &nodes, &vec![0; net.len()])
    }

    #[test]
    fn seed_seq_is_deterministic_and_fresh() {
        let mut a = SeedSeq::new(5);
        let mut b = SeedSeq::new(5);
        let s1 = a.next_seed();
        let s2 = a.next_seed();
        assert_ne!(s1, s2);
        assert_eq!(s1, b.next_seed());
        assert_eq!(s2, b.next_seed());
    }

    #[test]
    fn replay_reproduces_identical_receptions() {
        let net = small_net();
        let unit = all_nodes_unit(&net, 3);
        let mut engine = Engine::new(&net);
        let mut first: Vec<(usize, u64, usize)> = Vec::new();
        unit.run(
            &mut engine,
            &|v| Msg::Hello {
                id: net.id(v),
                cluster: 0,
            },
            &mut |r, lr, s, _| first.push((r, lr, s)),
        );
        let mut second: Vec<(usize, u64, usize)> = Vec::new();
        unit.run(
            &mut engine,
            &|v| Msg::ClusterOf {
                id: net.id(v),
                cluster: 7,
            },
            &mut |r, lr, s, _| second.push((r, lr, s)),
        );
        assert_eq!(
            first, second,
            "same members + same schedule ⇒ same receptions"
        );
        assert!(
            !first.is_empty(),
            "some receptions should occur in a 30-node cloud"
        );
    }

    /// Units A, B, A, B on one engine, each through `run_pairs`: each
    /// unit keeps its own recording, so B's run leaves A's in place and
    /// both replay on their second run.
    #[test]
    fn interleaved_units_keep_their_recordings() {
        let net = small_net();
        let (a, b) = (all_nodes_unit(&net, 11), all_nodes_unit(&net, 12));
        let kind = ResolverKind::default();
        let (mut engine, events) = traced(&net, kind);
        for (tag, (unit, replays)) in [(&a, false), (&b, false), (&a, true), (&b, true)]
            .into_iter()
            .enumerate()
        {
            let start = engine.round();
            let (seen, replayed) = run_seen(&mut engine, &events, unit, tag, Via::Pairs);
            let len = unit.sched().len();
            assert_eq!(replayed, if replays { len } else { 0 }, "run {tag}");
            assert_eq!(seen, fresh_seen(&net, kind, start, unit, tag), "run {tag}");
        }
    }

    /// A second engine, over a rebuilt copy of the network, does not see
    /// the first engine's recording: its first `run_pairs` of the unit
    /// resolves every round, with the same pairs.
    #[test]
    fn an_engine_over_a_rebuilt_network_never_replays() {
        let net = small_net();
        let unit = all_nodes_unit(&net, 13);
        let rebuilt = Network::builder(net.points().to_vec())
            .ids(net.ids().to_vec())
            .max_id(net.max_id())
            .build()
            .unwrap();
        assert_ne!(net.stamp(), rebuilt.stamp());
        let (mut engine, events) = traced(&net, ResolverKind::default());
        let (first, _) = run_seen(&mut engine, &events, &unit, 0, Via::Pairs);
        let (mut other, other_events) = traced(&rebuilt, ResolverKind::default());
        let (seen, replayed) = run_seen(&mut other, &other_events, &unit, 0, Via::Pairs);
        assert_eq!(replayed, 0);
        assert_eq!(other.resolver_stats().rounds, unit.sched().len());
        assert_eq!(seen, first);
    }

    /// Replaying a unit's recording after changing its member set breaks
    /// the contract of `Engine::run_pairs`; debug builds catch it on the
    /// first replayed round whose transmitters differ.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a recording reused for another pattern")]
    fn a_recording_reused_for_other_members_is_caught() {
        let net = small_net();
        let mut unit = all_nodes_unit(&net, 14);
        let mut engine = Engine::new(&net);
        let hello = |v: usize| Msg::Hello {
            id: net.id(v),
            cluster: 0,
        };
        unit.run_pairs(&mut engine, &hello, &mut |_, _, _| {});
        unit.members.truncate(1);
        unit.run_pairs(&mut engine, &hello, &mut |_, _, _| {});
    }

    #[test]
    fn non_members_never_transmit() {
        let net = small_net();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(4);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        // Only node 0 participates: nobody can receive (others silent, and
        // the sole member cannot receive its own transmissions).
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &[0], &vec![0; net.len()]);
        let mut engine = Engine::new(&net);
        let mut senders: Vec<usize> = Vec::new();
        unit.run(
            &mut engine,
            &|v| Msg::Hello {
                id: net.id(v),
                cluster: 0,
            },
            &mut |_, _, s, _| senders.push(s),
        );
        assert!(
            senders.iter().all(|&s| s == 0),
            "only the member may be heard"
        );
    }

    #[test]
    fn sched_handle_delegates_membership() {
        let ssf = RandomSsf::with_len(1, 3, 50);
        let h = SchedHandle::Ssf(ssf);
        assert_eq!(h.len(), 50);
        for r in 0..50 {
            assert_eq!(h.contains(r, 9, 0), ssf.contains(r, 9));
        }
        assert!(!h.is_empty());
    }

    #[test]
    fn fresh_selector_lengths_respect_params() {
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(9);
        let wss = fresh_wss(&params, &mut seeds, 10_000);
        let wcss = fresh_wcss(&params, &mut seeds, 10_000);
        let sns = fresh_sns(&params, &mut seeds, 10_000);
        assert!(Schedule::len(&wss) >= params.min_sched_len);
        assert!(ClusterSchedule::len(&wcss) >= params.min_sched_len);
        assert!(Schedule::len(&sns) >= params.min_sched_len);
    }
}
