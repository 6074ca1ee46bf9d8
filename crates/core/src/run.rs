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

use crate::msg::Msg;
use crate::params::ProtocolParams;
use dcluster_selectors::ssf::RandomSsf;
use dcluster_selectors::wcss::{RandomWcss, WcssRound};
use dcluster_selectors::wss::RandomWss;
use dcluster_selectors::{ClusterSchedule, HashRound, Schedule};
use dcluster_sim::engine::{Engine, RoundBehavior};
use dcluster_sim::network::Network;
use dcluster_sim::rng::hash64;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayUnit {
    /// The schedule.
    pub sched: SchedHandle,
    /// Participant snapshot.
    pub members: Vec<Member>,
}

/// Provenance record of one (re-)execution of a [`ReplayUnit`]: which
/// resolver backend produced the trace, and its extent. Replays are only
/// guaranteed identical when the reception sets are — which holds across
/// backends by the resolver equivalence contract, but recording the
/// backend makes any violation attributable when auditing a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitTrace {
    /// The backend that resolved every round of this execution.
    pub resolver: dcluster_sim::ResolverKind,
    /// Global engine round at which the execution started.
    pub start_round: u64,
    /// Rounds executed (= the schedule length).
    pub rounds: u64,
    /// Successful receptions delivered to `on_rx`.
    pub receptions: u64,
}

/// Delivery callback: `(receiver, local_round, sender, message)`.
pub type OnRx<'a> = &'a mut dyn FnMut(usize, u64, usize, &Msg);

struct UnitBehavior<'a, P: Fn(usize) -> Msg> {
    sched: &'a SchedHandle,
    /// The snapshot as listed: `transmit` reads it.
    members: &'a [Member],
    /// One member per node, ascending by node: `transmitters` walks it.
    by_node: Vec<Member>,
    start: u64,
    payload: P,
    on_rx: OnRx<'a>,
}

impl<'a, P: Fn(usize) -> Msg> UnitBehavior<'a, P> {
    fn new(unit: &'a ReplayUnit, start: u64, payload: P, on_rx: OnRx<'a>) -> Self {
        Self {
            sched: &unit.sched,
            members: &unit.members,
            by_node: unit.members_by_node(),
            start,
            payload,
            on_rx,
        }
    }
}

impl<P: Fn(usize) -> Msg> RoundBehavior<Msg> for UnitBehavior<'_, P> {
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
        Self { sched, members }
    }

    /// Executes (or re-executes) the unit: every member transmits its
    /// pattern with the message given by `payload`; every reception is
    /// reported to `on_rx`. Costs `sched.len()` rounds. Returns the
    /// [`UnitTrace`] recording which resolver backend produced the trace.
    ///
    /// A node listed twice transmits by its last snapshot. Each round
    /// lists its transmitters ([`RoundBehavior::transmitters`]) by testing
    /// only the members, in ascending node order, against one per-round
    /// view of the schedule: `O(members)` work instead of a poll of all n
    /// nodes, with the same transmitters in the same order.
    pub fn run<P>(&self, engine: &mut Engine<'_>, payload: P, on_rx: OnRx<'_>) -> UnitTrace
    where
        P: Fn(usize) -> Msg,
    {
        let start_round = engine.round();
        let receptions_before = engine.stats().receptions;
        let mut b = UnitBehavior::new(self, start_round, payload, on_rx);
        engine.run(&mut b, self.sched.len());
        UnitTrace {
            resolver: engine.resolver_kind(),
            start_round,
            rounds: self.sched.len(),
            receptions: engine.stats().receptions - receptions_before,
        }
    }

    /// Node indices of the members.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|m| m.node)
    }

    /// One member per node, ascending by node; of a node listed twice,
    /// its last snapshot. (Outside the payload-generic [`UnitBehavior`],
    /// so the sort is compiled once.)
    fn members_by_node(&self) -> Vec<Member> {
        // Reversed, a stable sort puts a node's last snapshot first among
        // its entries, and dedup keeps the first.
        let mut by_node: Vec<Member> = self.members.iter().rev().copied().collect();
        by_node.sort_by_key(|m| m.node);
        by_node.dedup_by_key(|m| m.node);
        by_node
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
    use dcluster_sim::deploy;
    use dcluster_sim::rng::Rng64;
    use proptest::prelude::*;

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
            let sched = match kind {
                0 => SchedHandle::Ssf(RandomSsf::with_len(seed, k, len)),
                1 => SchedHandle::Wss(RandomWss::with_len(seed, k, len)),
                _ => SchedHandle::Wcss(RandomWcss::with_len(seed, k, l, len)),
            };
            let unit = ReplayUnit { sched, members };
            let start = rng.range_u64(10_000);
            let payload = |v: usize| Msg::Hello { id: 7 * v as u64, cluster: v as u64 };
            let mut ignore = |_: usize, _: u64, _: usize, _: &Msg| {};
            let mut b = UnitBehavior::new(&unit, start, payload, &mut ignore);
            for lr in 0..len {
                let (mut nodes, mut msgs) = (Vec::new(), Vec::new());
                b.transmitters(&net, start + lr, &mut nodes, &mut msgs);
                let (mut polled, mut polled_msgs) = (Vec::new(), Vec::new());
                PollAll(&mut b).transmitters(&net, start + lr, &mut polled, &mut polled_msgs);
                prop_assert_eq!(&nodes, &polled, "nodes of local round {}", lr);
                prop_assert_eq!(&msgs, &polled_msgs, "messages of local round {}", lr);
            }
        }
    }

    fn small_net() -> Network {
        let mut rng = Rng64::new(1);
        Network::builder(deploy::uniform_square(30, 2.0, &mut rng))
            .build()
            .unwrap()
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
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(3);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        let nodes: Vec<usize> = (0..net.len()).collect();
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &nodes, &vec![0; net.len()]);
        let mut engine = Engine::new(&net);
        let mut first: Vec<(usize, u64, usize)> = Vec::new();
        unit.run(
            &mut engine,
            |v| Msg::Hello {
                id: net.id(v),
                cluster: 0,
            },
            &mut |r, lr, s, _| first.push((r, lr, s)),
        );
        let mut second: Vec<(usize, u64, usize)> = Vec::new();
        unit.run(
            &mut engine,
            |v| Msg::ClusterOf {
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
            |v| Msg::Hello {
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
    fn unit_trace_records_backend_and_extent() {
        let net = small_net();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(6);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        let nodes: Vec<usize> = (0..net.len()).collect();
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &nodes, &vec![0; net.len()]);
        for kind in dcluster_sim::ResolverKind::ALL {
            let mut engine = dcluster_sim::Engine::with_resolver_kind(&net, kind);
            let mut count = 0u64;
            let trace = unit.run(
                &mut engine,
                |v| Msg::Hello {
                    id: net.id(v),
                    cluster: 0,
                },
                &mut |_, _, _, _| count += 1,
            );
            assert_eq!(trace.resolver, kind);
            assert_eq!(trace.start_round, 0);
            assert_eq!(trace.rounds, unit.sched.len());
            assert_eq!(trace.receptions, count, "trace counts what on_rx saw");
        }
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
