//! Synchronous round execution engine.
//!
//! The paper's model (§1.1): algorithms work in synchronous rounds; in each
//! round a node either transmits or listens, receptions are resolved by the
//! SINR rule, and nodes perform local computation. [`RoundBehavior`] is the
//! protocol interface; the [`Engine`] drives it against a [`Network`].
//!
//! **Locality discipline.** A behavior's `transmit` decision for node `v`
//! must depend only on `v`'s own state, `v`'s id/parameters, and the current
//! round number (which is global knowledge in the synchronous model);
//! `receive` is the only channel through which information crosses nodes.
//! Behaviors in this workspace keep per-node state in indexed vectors and
//! touch only the entry of the node passed in.
//!
//! The engine asks for each round's transmitters through
//! [`RoundBehavior::transmitters`]. Its default polls `transmit` for every
//! node in ascending order. A behavior that knows which nodes can transmit
//! (a replay unit knows its members) may list them directly instead, at a
//! cost independent of n. The list must equal the default poll: the same
//! nodes, in ascending order, with equal messages. So `transmit` stays the
//! per-node decision, held to the discipline above, and tests compare the
//! two. The order matters as much as the set: every resolver sums signals
//! in transmitter order, so a reordered list can change receptions.
//!
//! **Recordings.** The paper's protocols re-execute one schedule by one
//! frozen participant set many times (Algorithm 1's confirmation replays,
//! Algorithm 2's notification, Lemma 11's tree communication, which runs
//! every notification unit again bottom-up and then top-down).
//! [`Engine::run_recorded`] runs such a schedule and writes a summary of it
//! into a caller-owned [`Recording`], which names the engine that made it.
//! [`Engine::run_pairs`] re-executes it for a caller that asks only which
//! (receiver, sender) pairs connected: on a hit (the recording was made by
//! this engine, over the same round count, and holds per-round records if
//! the engine has a tracer) it replays the summary without polling the
//! behavior, resolving a round or delivering a message; on a miss it runs
//! and records. Whatever ran on the engine in between does
//! not matter, so each caller keeps its recording as long as it keeps the
//! pattern. Either way the caller gets each distinct pair once, in order
//! of first delivery. A replay equals a fresh run by construction: the
//! engine's network never changes, and each backend is a deterministic
//! function of (network, transmitter list). Only the resolver's work
//! counters see the difference; [`EngineStats::replayed`] counts the
//! rounds it skipped.

use crate::network::Network;
use crate::radio::{Reception, ResolverKind, ResolverStats, SinrResolver};
use dcluster_obs::{CacheOp, Event, PhaseTable, SharedTracer};
use std::sync::atomic::{AtomicU64, Ordering};

/// A synchronous per-node protocol executed by the [`Engine`].
///
/// `M` is the message type; the model limits messages to `O(log N)` bits,
/// so message types carry a constant number of IDs/labels.
pub trait RoundBehavior<M> {
    /// Decides whether node `node` transmits in `round`, and with what
    /// message. Returning `None` means the node listens.
    fn transmit(&mut self, net: &Network, node: usize, round: u64) -> Option<M>;

    /// Lists the transmitters of `round` in `nodes`, in ascending order,
    /// with their messages at the same positions in `msgs`; the engine
    /// passes both empty. The default polls [`RoundBehavior::transmit`]
    /// for every node of `net` in ascending order. An override must give
    /// exactly what that poll gives (see the module docs); debug builds
    /// check that `nodes` ascends strictly, stays below `net.len()` and is
    /// as long as `msgs`.
    fn transmitters(
        &mut self,
        net: &Network,
        round: u64,
        nodes: &mut Vec<usize>,
        msgs: &mut Vec<M>,
    ) {
        for v in 0..net.len() {
            if let Some(m) = self.transmit(net, v, round) {
                nodes.push(v);
                msgs.push(m);
            }
        }
    }

    /// Delivers a message received by `node` in `round` from `sender`.
    fn receive(&mut self, net: &Network, node: usize, round: u64, sender: usize, msg: &M);

    /// Hook invoked once per round after all deliveries (optional).
    fn end_round(&mut self, _net: &Network, _round: u64) {}
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Total transmissions (≈ energy).
    pub transmissions: u64,
    /// Total successful receptions.
    pub receptions: u64,
    /// Rounds replayed from a [`Recording`] ([`Engine::run_pairs`]):
    /// counted in `rounds`, but neither polled nor resolved. The
    /// resolver's own `rounds` counter plus this one equals `rounds`.
    pub replayed: u64,
}

/// Engine ids: each engine draws one when it is built, and a
/// [`Recording`] names the engine that made it.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(1);

/// One active round of a [`Recording`]: a round with transmitters or a
/// resolver cache operation.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// Silent rounds between the previous active round (or the run's
    /// start) and this one.
    gap: u64,
    /// Transmitters, |T|.
    tx: u64,
    /// Receptions.
    rx: u64,
    /// The resolver built a field ([`CacheOp::Rebuilt`]).
    field: bool,
}

/// The summary of one run of a transmit pattern, made by
/// [`Engine::run_recorded`] (or a miss of [`Engine::run_pairs`]) and
/// replayed by [`Engine::run_pairs`] on the engine that made it (see the
/// module docs). The caller owns it and keeps it with the pattern it
/// recorded; a new recording starts from [`Recording::default`], which
/// never replays.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// The id of the engine that made it; `None` while it holds no
    /// replayable run.
    engine: Option<u64>,
    rounds: u64,
    transmissions: u64,
    receptions: u64,
    /// The run's distinct (receiver, sender) pairs, in order of first
    /// delivery.
    pairs: Vec<(u32, u32)>,
    /// Whether `active` holds the run's active rounds. Only a traced
    /// replay (its round events) and the debug replay check read them, so
    /// they are kept only when the recording engine had a tracer or debug
    /// assertions are on.
    per_round: bool,
    /// The active rounds, each after its gap of silent rounds; silent
    /// rounds follow the last one up to `rounds`.
    active: Vec<Active>,
    /// Every active round's transmitters, in order: debug builds poll the
    /// behavior on each replayed round and compare.
    #[cfg(debug_assertions)]
    nodes: Vec<usize>,
}

impl Recording {
    /// The recording round by round, `None` for a silent round (read
    /// only when `per_round`).
    fn walk(&self) -> impl Iterator<Item = Option<&Active>> + '_ {
        self.active
            .iter()
            .flat_map(|a| std::iter::repeat_n(None, a.gap as usize).chain([Some(a)]))
            .chain(std::iter::repeat(None))
            .take(self.rounds as usize)
    }
}

/// Drives [`RoundBehavior`]s over a network, maintaining a global round
/// counter across sequential protocol stages (deterministic protocols are
/// time-multiplexed by round number, so the counter must persist).
///
/// Reception resolution is delegated to a [`SinrResolver`] backend owned
/// by the engine; [`Engine::new`] picks the default
/// ([`ResolverKind::Aggregated`]), [`Engine::with_resolver_kind`] pins a
/// specific one. Both backends produce identical receptions, so the
/// choice affects wall clock only — never protocol outcomes.
///
/// A round allocates nothing once the buffers have grown: the engine
/// keeps its transmitter and reception vectors and its pair lookup, and
/// [`Engine::run`], [`Engine::run_recorded`], [`Engine::run_pairs`] and
/// [`Engine::run_until`] keep one message vector across their rounds.
#[derive(Debug)]
pub struct Engine<'n> {
    net: &'n Network,
    resolver: Box<dyn SinrResolver>,
    round: u64,
    stats: EngineStats,
    tx_nodes: Vec<usize>,
    /// The latest round's receptions (reused across rounds).
    receptions: Vec<Reception>,
    /// Optional event sink (`None` = tracing disabled; the per-round cost
    /// is then a single `Option` check).
    tracer: Option<SharedTracer>,
    /// Always-on per-phase aggregation (pays only at phase boundaries),
    /// so traced and untraced runs render byte-identical reports.
    phases: PhaseTable,
    /// Open [`Engine::begin_phase`] frames:
    /// `(phase, start_round, start_tx, start_rx)`.
    phase_stack: Vec<(&'static str, u64, u64, u64)>,
    /// Drawn when the engine is built; a [`Recording`] names it.
    id: u64,
    /// Per receiver, the senders the run being recorded has delivered to
    /// it so far (the lookup behind [`Recording`]'s distinct pairs); empty
    /// between runs.
    senders: Vec<Vec<u32>>,
}

impl<'n> Engine<'n> {
    /// Creates an engine over `net` starting at round 0, with the default
    /// resolver backend.
    pub fn new(net: &'n Network) -> Self {
        Self::with_resolver_kind(net, ResolverKind::default())
    }

    /// Creates an engine with an explicit resolver backend.
    pub fn with_resolver_kind(net: &'n Network, kind: ResolverKind) -> Self {
        Self::with_resolver(net, kind.build())
    }

    /// Creates an engine with a caller-constructed resolver backend.
    pub fn with_resolver(net: &'n Network, resolver: Box<dyn SinrResolver>) -> Self {
        Self {
            net,
            resolver,
            round: 0,
            stats: EngineStats::default(),
            tx_nodes: Vec::new(),
            receptions: Vec::new(),
            tracer: None,
            phases: PhaseTable::new(),
            phase_stack: Vec::new(),
            id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
            senders: Vec::new(),
        }
    }

    /// Attaches an event tracer; every subsequent round and phase span is
    /// emitted into it. Tracing never changes protocol outcomes — the
    /// tracer observes the event stream and nothing flows back.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Opens a named phase span. Spans nest; an inner phase's rounds also
    /// count toward its enclosing phases. Protocol code brackets its
    /// stages with this and [`Engine::end_phase`].
    pub fn begin_phase(&mut self, phase: &'static str) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::PhaseStart {
                phase,
                round: self.round,
            });
        }
        self.phase_stack.push((
            phase,
            self.round,
            self.stats.transmissions,
            self.stats.receptions,
        ));
    }

    /// Closes the innermost open phase span, folding its costs into the
    /// per-phase table ([`Engine::phase_table`]). A stray call with no
    /// open span is ignored (debug builds assert).
    pub fn end_phase(&mut self) {
        let Some((phase, round0, tx0, rx0)) = self.phase_stack.pop() else {
            debug_assert!(false, "end_phase with no open phase span");
            return;
        };
        let rounds = self.round - round0;
        let tx = self.stats.transmissions - tx0;
        let rx = self.stats.receptions - rx0;
        self.phases.record(phase, rounds, tx, rx);
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::PhaseEnd {
                phase,
                round: self.round,
                rounds,
                tx,
                rx,
            });
        }
    }

    /// The per-phase cost table accumulated so far (always on, tracer or
    /// not). Rendered by the scenario `Report`.
    pub fn phase_table(&self) -> &PhaseTable {
        &self.phases
    }

    /// The network being simulated.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The backend resolving receptions.
    pub fn resolver_kind(&self) -> ResolverKind {
        self.resolver.kind()
    }

    /// The resolver backend's cumulative work counters.
    pub fn resolver_stats(&self) -> ResolverStats {
        self.resolver.stats()
    }

    /// Audits the state the resolver keeps across rounds (the aggregated
    /// backend's gain cache of received signals) against a fresh
    /// computation, bit for bit. Backends without such state trivially
    /// pass.
    pub fn audit_resolver(&self) -> Result<(), String> {
        self.resolver.audit(self.net)
    }

    /// Current global round number (next round to execute).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Runs `rounds` rounds of `behavior`.
    pub fn run<M, B>(&mut self, behavior: &mut B, rounds: u64)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut msgs = Vec::new();
        for _ in 0..rounds {
            self.step_with(behavior, &mut msgs);
        }
    }

    /// Executes a single round; returns its receptions.
    pub fn step<M, B>(&mut self, behavior: &mut B) -> &[Reception]
    where
        B: RoundBehavior<M> + ?Sized,
    {
        self.step_with(behavior, &mut Vec::new());
        &self.receptions
    }

    /// Runs `rounds` rounds of `behavior` as [`Engine::run`] does, and
    /// records their summary in `rec` (see the module docs), replacing
    /// what it held. It never replays: a later [`Engine::run_pairs`] with
    /// `rec` does.
    ///
    /// The caller owes that every run with `rec` lists the same
    /// transmitters in each local round.
    pub fn run_recorded<M, B>(&mut self, rec: &mut Recording, behavior: &mut B, rounds: u64)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut msgs = Vec::new();
        // Unreplayable until the run completes.
        rec.engine = None;
        (rec.rounds, rec.transmissions, rec.receptions) = (rounds, 0, 0);
        rec.pairs.clear();
        rec.per_round = cfg!(debug_assertions) || self.tracer.is_some();
        rec.active.clear();
        #[cfg(debug_assertions)]
        rec.nodes.clear();
        self.senders.resize_with(self.net.len(), Vec::new);
        let (mut gap, mut recorded) = (0, true);
        for _ in 0..rounds {
            self.step_with(behavior, &mut msgs);
            for r in &self.receptions {
                let (receiver, sender) = (r.receiver as u32, r.sender as u32);
                let senders = &mut self.senders[r.receiver];
                if !senders.contains(&sender) {
                    senders.push(sender);
                    rec.pairs.push((receiver, sender));
                }
            }
            let (tx, rx) = (self.tx_nodes.len() as u64, self.receptions.len() as u64);
            rec.transmissions += tx;
            rec.receptions += rx;
            let field = match self.resolver.last_cache_op() {
                None if tx == 0 => {
                    gap += 1;
                    continue;
                }
                None => false,
                Some(CacheOp::Rebuilt) => true,
                // No resolver patches a field, and the flag cannot hold
                // one: the run is left unrecorded.
                Some(CacheOp::Patched { .. }) => {
                    recorded = false;
                    false
                }
            };
            if rec.per_round {
                rec.active.push(Active { gap, tx, rx, field });
                #[cfg(debug_assertions)]
                rec.nodes.extend_from_slice(&self.tx_nodes);
            }
            gap = 0;
        }
        for &(receiver, _) in &rec.pairs {
            self.senders[receiver as usize].clear();
        }
        rec.engine = recorded.then_some(self.id);
    }

    /// Runs `rounds` rounds of `behavior` with `rec` (see the module
    /// docs), then calls `on_pair(receiver, sender, &payload(sender))`
    /// once for each distinct (receiver, sender) pair the rounds
    /// delivered, in order of first delivery.
    ///
    /// On a hit (`rec` was made by this engine over `rounds` rounds, with
    /// its per-round records if this engine has a tracer) the recording is
    /// replayed: the stats, the phase accounting and the traced round
    /// events are those of a fresh run, but the behavior is neither polled
    /// nor told of receptions or round ends. On a miss the rounds run as
    /// [`Engine::run_recorded`] runs them, `receive` and `end_round`
    /// included, and `rec` records them.
    ///
    /// The caller owes that every run with `rec` lists the same
    /// transmitters in each local round, and that `payload(v)` is the
    /// message the behavior lists for transmitter `v` in every round.
    /// Debug builds poll the behavior on every replayed round and assert
    /// that it lists the recorded transmitters.
    pub fn run_pairs<M, B>(
        &mut self,
        rec: &mut Recording,
        behavior: &mut B,
        rounds: u64,
        payload: &dyn Fn(usize) -> M,
        on_pair: &mut dyn FnMut(usize, usize, &M),
    ) where
        B: RoundBehavior<M> + ?Sized,
    {
        if rec.engine == Some(self.id)
            && rec.rounds == rounds
            && (rec.per_round || self.tracer.is_none())
        {
            #[cfg(debug_assertions)]
            self.check_replay(rec, behavior);
            self.replay(rec);
        } else {
            self.run_recorded(rec, behavior, rounds);
        }
        for &(receiver, sender) in &rec.pairs {
            let sender = sender as usize;
            on_pair(receiver as usize, sender, &payload(sender));
        }
    }

    /// Replays `rec`: its traced round events, if a tracer is attached,
    /// and its rounds and counts.
    fn replay(&mut self, rec: &Recording) {
        if let Some(t) = &self.tracer {
            let mut t = t.borrow_mut();
            for (round, a) in (self.round..).zip(rec.walk()) {
                t.on_event(&Event::Round {
                    round,
                    tx: a.map_or(0, |a| a.tx),
                    rx: a.map_or(0, |a| a.rx),
                    cache: a.and_then(|a| a.field.then_some(CacheOp::Rebuilt)),
                });
            }
        }
        self.round += rec.rounds;
        self.stats.rounds += rec.rounds;
        self.stats.transmissions += rec.transmissions;
        self.stats.receptions += rec.receptions;
        self.stats.replayed += rec.rounds;
    }

    /// Polls `behavior` for each round `rec` is about to replay, and
    /// asserts that it lists the recorded transmitters.
    #[cfg(debug_assertions)]
    fn check_replay<M, B>(&self, rec: &Recording, behavior: &mut B)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let (mut nodes, mut msgs) = (Vec::new(), Vec::new());
        let mut recorded = rec.nodes.as_slice();
        for (round, a) in (self.round..).zip(rec.walk()) {
            let tx = a.map_or(0, |a| a.tx as usize);
            nodes.clear();
            msgs.clear();
            behavior.transmitters(self.net, round, &mut nodes, &mut msgs);
            assert_eq!(
                nodes,
                recorded[..tx],
                "round {round}: the behavior lists other transmitters than the \
                 replayed recording (a recording reused for another pattern)"
            );
            recorded = &recorded[tx..];
        }
    }

    /// Executes a single round, collecting its messages in `msgs` (cleared
    /// first; a buffer the caller reuses across rounds).
    fn step_with<M, B>(&mut self, behavior: &mut B, msgs: &mut Vec<M>)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let round = self.round;
        self.tx_nodes.clear();
        msgs.clear();
        behavior.transmitters(self.net, round, &mut self.tx_nodes, msgs);
        debug_assert!(
            self.tx_nodes.windows(2).all(|w| w[0] < w[1]),
            "round {round}: transmitters {:?} not strictly ascending",
            self.tx_nodes
        );
        debug_assert!(
            self.tx_nodes.last().is_none_or(|&v| v < self.net.len()),
            "round {round}: transmitter index past n = {}",
            self.net.len()
        );
        debug_assert_eq!(
            self.tx_nodes.len(),
            msgs.len(),
            "round {round}: one message per transmitter"
        );
        self.resolver
            .resolve_into(self.net, &self.tx_nodes, &mut self.receptions);
        for r in &self.receptions {
            behavior.receive(self.net, r.receiver, round, r.sender, &msgs[r.slot]);
        }
        behavior.end_round(self.net, round);
        let (tx, rx) = (self.tx_nodes.len() as u64, self.receptions.len() as u64);
        self.stats.rounds += 1;
        self.stats.transmissions += tx;
        self.stats.receptions += rx;
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::Round {
                round,
                tx,
                rx,
                cache: self.resolver.last_cache_op(),
            });
        }
        self.round += 1;
    }

    /// Runs `behavior` until `done` returns true or `max_rounds` elapse;
    /// returns the number of rounds executed in this call.
    ///
    /// The `done` predicate is a *harness* (observer) facility — e.g. "stop
    /// simulating once every node is awake"; per-node behavior must not rely
    /// on it.
    pub fn run_until<M, B, F>(&mut self, behavior: &mut B, max_rounds: u64, mut done: F) -> u64
    where
        B: RoundBehavior<M> + ?Sized,
        F: FnMut(&B) -> bool,
    {
        let start = self.round;
        let mut msgs = Vec::new();
        while self.round - start < max_rounds {
            if done(behavior) {
                break;
            }
            self.step_with(behavior, &mut msgs);
        }
        self.round - start
    }
}

/// A behavior defined by closures — handy for tests and tiny protocols.
pub struct FnBehavior<T, R> {
    /// Transmit decision closure.
    pub tx: T,
    /// Reception handler closure.
    pub rx: R,
}

impl<M, T, R> RoundBehavior<M> for FnBehavior<T, R>
where
    T: FnMut(&Network, usize, u64) -> Option<M>,
    R: FnMut(&Network, usize, u64, usize, &M),
{
    fn transmit(&mut self, net: &Network, node: usize, round: u64) -> Option<M> {
        (self.tx)(net, node, round)
    }
    fn receive(&mut self, net: &Network, node: usize, round: u64, sender: usize, msg: &M) {
        (self.rx)(net, node, round, sender, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn line(n: usize, spacing: f64) -> Network {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Network::builder(pts).build().unwrap()
    }

    #[test]
    fn round_robin_flood_crosses_a_line() {
        // Node i transmits in rounds ≡ i (mod n) once it knows the token.
        let net = line(5, 0.7);
        let n = net.len();
        let mut knows = vec![false; n];
        knows[0] = true;
        let mut engine = Engine::new(&net);
        // Can't borrow `knows` in both closures at once; use a tiny struct.
        struct Flood {
            knows: Vec<bool>,
        }
        impl RoundBehavior<u8> for Flood {
            fn transmit(&mut self, net: &Network, v: usize, round: u64) -> Option<u8> {
                (self.knows[v] && round % net.len() as u64 == v as u64).then_some(1)
            }
            fn receive(&mut self, _net: &Network, v: usize, _r: u64, _s: usize, _m: &u8) {
                self.knows[v] = true;
            }
        }
        let mut flood = Flood { knows };
        let used = engine.run_until(&mut flood, 1000, |b| b.knows.iter().all(|&k| k));
        assert!(flood.knows.iter().all(|&k| k), "token reached everyone");
        assert!(used <= 5 * 5, "at most n rounds per hop, got {used}");
        assert_eq!(engine.stats().rounds, used);
    }

    #[test]
    fn engine_counts_transmissions_and_receptions() {
        let net = line(2, 0.5);
        let mut engine = Engine::new(&net);
        let mut b = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(42u32),
            rx: |_: &Network, _: usize, _: u64, _: usize, m: &u32| assert_eq!(*m, 42),
        };
        engine.run(&mut b, 3);
        let s = engine.stats();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.receptions, 3);
        assert_eq!(engine.round(), 3);
    }

    #[test]
    fn backends_are_selectable_and_tracked() {
        let net = line(3, 0.6); // node 2 at 1.2 > range: exactly one hearer
        for kind in crate::radio::ResolverKind::ALL {
            let mut engine = Engine::with_resolver_kind(&net, kind);
            assert_eq!(engine.resolver_kind(), kind);
            let mut b = FnBehavior {
                tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(1u8),
                rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
            };
            engine.run(&mut b, 2);
            assert_eq!(engine.resolver_stats().rounds, 2);
            let want = EngineStats {
                rounds: 2,
                transmissions: 2,
                receptions: 2,
                replayed: 0,
            };
            assert_eq!(engine.stats(), want, "node 1 hears node 0 ({kind})");
        }
    }

    #[test]
    fn stats_accumulate_across_sequential_behaviors() {
        // The engine outlives individual behaviors: a protocol stack runs
        // stage after stage on one engine, and EngineStats and the phase
        // table must both account across that whole sequence.
        let net = line(2, 0.5);
        let (mut engine, recorder) = traced(&net, ResolverKind::default().build());

        engine.begin_phase("chatter");
        let mut chatter = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(7u8),
            rx: |_: &Network, _: usize, _: u64, _: usize, m: &u8| assert_eq!(*m, 7),
        };
        engine.run(&mut chatter, 3);
        engine.end_phase();

        engine.begin_phase("silence");
        let mut silence = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<u8>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        engine.run(&mut silence, 2);
        engine.end_phase();

        // Cumulative stats span both behaviors: the silent rounds add
        // rounds only.
        let s = engine.stats();
        assert_eq!(s.rounds, 5);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.receptions, 3);
        assert_eq!(engine.round(), 5);
        // The phase table kept the two stages apart, in first-seen order.
        let phases = engine.phase_table().summaries();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            (phases[0].phase.as_str(), phases[0].rounds, phases[0].tx),
            ("chatter", 3, 3)
        );
        assert_eq!(
            (phases[1].phase.as_str(), phases[1].rounds, phases[1].tx),
            ("silence", 2, 0)
        );
        // The tracer saw every round plus both span brackets.
        let rec = recorder.borrow();
        let kinds: Vec<&str> = rec.0.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "round").count(), 5);
        assert_eq!(kinds.iter().filter(|k| **k == "phase_start").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "phase_end").count(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn transmitters_out_of_order_are_caught() {
        struct Descending;
        impl RoundBehavior<u8> for Descending {
            fn transmit(&mut self, _: &Network, v: usize, _: u64) -> Option<u8> {
                (v == 1 || v == 2).then_some(0)
            }
            fn transmitters(
                &mut self,
                _: &Network,
                _: u64,
                nodes: &mut Vec<usize>,
                msgs: &mut Vec<u8>,
            ) {
                nodes.extend([2, 1]);
                msgs.extend([0, 0]);
            }
            fn receive(&mut self, _: &Network, _: usize, _: u64, _: usize, _: &u8) {}
        }
        let net = line(3, 0.5);
        Engine::new(&net).step(&mut Descending);
    }

    #[test]
    fn run_until_stops_immediately_when_done() {
        let net = line(2, 0.5);
        let mut engine = Engine::new(&net);
        let mut b = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<u8>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        let used = engine.run_until(&mut b, 100, |_| true);
        assert_eq!(used, 0);
    }

    /// Every traced event, in order.
    #[derive(Debug, Default)]
    struct Recorded(Vec<Event>);

    impl dcluster_obs::Tracer for Recorded {
        fn on_event(&mut self, ev: &Event) {
            self.0.push(ev.clone());
        }
    }

    /// An engine with an event recorder attached.
    fn traced(
        net: &Network,
        resolver: Box<dyn SinrResolver>,
    ) -> (Engine<'_>, Rc<RefCell<Recorded>>) {
        let mut engine = Engine::with_resolver(net, resolver);
        let events = dcluster_obs::shared(Recorded::default());
        engine.set_tracer(events.clone());
        (engine, events)
    }

    /// Node v transmits `10·start + v` in the rounds where `round − start
    /// + v` is a multiple of 3; `heard` collects every delivery.
    struct Every3 {
        start: u64,
        heard: Vec<(usize, usize, u64)>,
    }

    impl RoundBehavior<u64> for Every3 {
        fn transmit(&mut self, _: &Network, v: usize, round: u64) -> Option<u64> {
            (round - self.start + v as u64)
                .is_multiple_of(3)
                .then_some(10 * self.start + v as u64)
        }
        fn receive(&mut self, _: &Network, v: usize, _: u64, s: usize, m: &u64) {
            self.heard.push((v, s, *m));
        }
    }

    /// What one six-round run of [`Every3`] shows from outside.
    #[derive(Debug, PartialEq)]
    struct Seen {
        /// `(receiver, sender, message)`, one per distinct pair.
        pairs: Vec<(usize, usize, u64)>,
        /// The engine's counters over the run, `replayed` left at 0.
        stats: EngineStats,
        /// Every event the run traced.
        events: Vec<Event>,
    }

    /// Runs [`Every3`] for six rounds through `run_pairs` with `rec`, or
    /// through `run` when `rec` is `None` (its pairs are then the first
    /// delivery of each). Returns what the run showed, how many
    /// deliveries the behavior saw and how many rounds were replayed.
    fn six_rounds(
        engine: &mut Engine<'_>,
        events: &RefCell<Recorded>,
        rec: Option<&mut Recording>,
    ) -> (Seen, usize, u64) {
        let (start, before, first) = (engine.round(), engine.stats(), events.borrow().0.len());
        let mut b = Every3 {
            start,
            heard: Vec::new(),
        };
        let mut pairs: Vec<(usize, usize, u64)> = Vec::new();
        if let Some(rec) = rec {
            let payload = |v: usize| 10 * start + v as u64;
            engine.run_pairs(rec, &mut b, 6, &payload, &mut |r, s, m| {
                pairs.push((r, s, *m))
            });
        } else {
            engine.run(&mut b, 6);
            for &(r, s, m) in &b.heard {
                if !pairs.iter().any(|&(pr, ps, _)| (pr, ps) == (r, s)) {
                    pairs.push((r, s, m));
                }
            }
        }
        let after = engine.stats();
        let seen = Seen {
            pairs,
            stats: EngineStats {
                rounds: after.rounds - before.rounds,
                transmissions: after.transmissions - before.transmissions,
                receptions: after.receptions - before.receptions,
                replayed: 0,
            },
            events: events.borrow().0[first..].to_vec(),
        };
        (seen, b.heard.len(), after.replayed - before.replayed)
    }

    /// The six-round run from `start` as a fresh engine shows it, brought
    /// to `start` by silent rounds.
    fn fresh(net: &Network, resolver: Box<dyn SinrResolver>, start: u64) -> Seen {
        let (mut engine, events) = traced(net, resolver);
        let mut silent = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<u64>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u64| {},
        };
        engine.run(&mut silent, start);
        six_rounds(&mut engine, &events, None).0
    }

    /// A miss records, and each later run with the recording replays:
    /// every run shows the pairs of a fresh run's first deliveries, with
    /// this run's payload, and a fresh engine's counters and traced events.
    #[test]
    fn a_keyed_run_replays_its_recording() {
        let net = line(4, 0.5);
        let kind = ResolverKind::default();
        let (mut engine, events) = traced(&net, kind.build());
        let mut rec = Recording::default();
        for (run, hit) in [(0, false), (1, true), (2, true)] {
            let start = engine.round();
            let (seen, heard, replayed) = six_rounds(&mut engine, &events, Some(&mut rec));
            assert_eq!(replayed, if hit { 6 } else { 0 }, "run {run}");
            assert_eq!(heard == 0, hit, "only a miss delivers (run {run})");
            assert!(
                !seen.pairs.is_empty() && 2 * seen.pairs.len() == seen.stats.receptions as usize,
                "each pair arrives twice, and is handed over once (run {run})"
            );
            assert_eq!(seen, fresh(&net, kind.build(), start), "run {run}");
        }
        assert_eq!(engine.resolver_stats().rounds, 6);
        six_rounds(&mut engine, &events, Some(&mut Recording::default()));
        assert_eq!(engine.stats().replayed, 12, "a new recording misses");
    }

    /// A recording made on an untraced engine, rerun once a tracer is
    /// attached, traces what a fresh traced run traces. Debug builds keep
    /// every recording's per-round records, so the rerun replays; release
    /// builds keep them only for a traced engine, so it records again, and
    /// the run after it replays.
    #[test]
    fn an_untraced_recording_rerun_with_a_tracer_traces_a_fresh_run() {
        let net = line(4, 0.5);
        let kind = ResolverKind::default();
        let mut engine = Engine::with_resolver_kind(&net, kind);
        let events = dcluster_obs::shared(Recorded::default());
        let mut rec = Recording::default();
        let (_, _, replayed) = six_rounds(&mut engine, &events, Some(&mut rec));
        assert_eq!(replayed, 0);
        assert!(events.borrow().0.is_empty(), "untraced");
        engine.set_tracer(events.clone());
        let rerun = if cfg!(debug_assertions) { 6 } else { 0 };
        for want in [rerun, 6] {
            let start = engine.round();
            let (seen, _, replayed) = six_rounds(&mut engine, &events, Some(&mut rec));
            assert_eq!(replayed, want);
            assert!(!seen.events.is_empty());
            assert_eq!(seen, fresh(&net, kind.build(), start));
        }
    }

    /// A recording that another engine made again names that engine, so
    /// its first engine misses: it runs the rounds and records them.
    #[test]
    fn a_recording_another_engine_remade_misses() {
        let net = line(4, 0.5);
        let kind = ResolverKind::default();
        let (mut first, events) = traced(&net, kind.build());
        let (mut second, second_events) = traced(&net, kind.build());
        let mut rec = Recording::default();
        six_rounds(&mut first, &events, Some(&mut rec));
        let (_, _, replayed) = six_rounds(&mut second, &second_events, Some(&mut rec));
        assert_eq!(replayed, 0, "made by the first engine");
        for want in [0, 6] {
            let start = first.round();
            let (seen, _, replayed) = six_rounds(&mut first, &events, Some(&mut rec));
            assert_eq!(replayed, want);
            assert_eq!(seen, fresh(&net, kind.build(), start));
        }
    }

    /// A resolver that breaks the order [`SinrResolver`] promises.
    #[derive(Debug)]
    struct Reversed(crate::radio::NaiveResolver);

    impl SinrResolver for Reversed {
        fn kind(&self) -> ResolverKind {
            self.0.kind()
        }
        fn resolve_into(&mut self, net: &Network, tx: &[usize], out: &mut Vec<Reception>) {
            self.0.resolve_into(net, tx, out);
            out.reverse();
        }
        fn stats(&self) -> ResolverStats {
            self.0.stats()
        }
    }

    /// A recording keeps pairs in the order they were delivered, whatever
    /// the resolver's order, so a replay still equals a fresh run.
    #[test]
    fn receptions_out_of_receiver_order_replay_in_delivery_order() {
        let net = line(4, 0.5);
        let reversed = || Box::new(Reversed(Default::default()));
        let (mut engine, events) = traced(&net, reversed());
        let mut rec = Recording::default();
        for _ in 0..2 {
            let start = engine.round();
            let (seen, _, _) = six_rounds(&mut engine, &events, Some(&mut rec));
            let in_order = fresh(&net, ResolverKind::Naive.build(), start);
            assert_ne!(
                seen.pairs, in_order.pairs,
                "delivery order, not receiver order"
            );
            assert_eq!(seen, fresh(&net, reversed(), start));
        }
        assert_eq!(engine.stats().replayed, 6);
        assert_eq!(engine.resolver_stats().rounds, 6);
    }
}
