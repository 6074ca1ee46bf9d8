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
//! **The replay memo.** The paper's protocols re-execute one schedule by
//! one frozen participant set many times (Algorithm 1's confirmation
//! replays, Algorithm 2's notification, Lemma 11's tree communication).
//! [`Engine::run_keyed`] runs such a re-execution under a [`ReplayKey`]
//! that names its transmit pattern. The engine keeps one memo slot: on a
//! miss it runs the rounds as [`Engine::run`] does and records each
//! active round's transmitters, receptions and resolver cache operation,
//! replacing whatever the slot held; on a hit (same key, same round count)
//! it replays the recording without polling the behavior or calling the
//! resolver. A replay equals a fresh run by construction: the engine's
//! network never changes, and each backend is a deterministic function of
//! (network, transmitter list). Only the resolver's work counters see the
//! difference; [`EngineStats::replayed`] counts the rounds it skipped.

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
    /// Rounds served from the replay memo ([`Engine::run_keyed`]): counted
    /// in `rounds`, but neither polled nor resolved. The resolver's own
    /// `rounds` counter plus this one equals `rounds`.
    pub replayed: u64,
}

/// Names one transmit pattern for [`Engine::run_keyed`]: every run under
/// the key must list the same transmitters in every local round. Keys
/// come from a process-global counter, so a key observed once is never
/// issued again; only a copy of it compares equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayKey(u64);

static REPLAY_KEYS: AtomicU64 = AtomicU64::new(1);

impl ReplayKey {
    /// A key no earlier call returned.
    pub fn fresh() -> Self {
        Self(REPLAY_KEYS.fetch_add(1, Ordering::Relaxed))
    }
}

/// The engine's one memo slot: the recording of the last keyed run that
/// missed. `bytes` is a stream of LEB128 varints, one record per round
/// that had transmitters or a cache operation: the number of unrecorded
/// (silent) rounds before it, `|T| << 1 | f` (`f` = 1 when the resolver
/// built a field, [`CacheOp::Rebuilt`]), the transmitters as differences
/// from their predecessor, the reception count, and per reception
/// `d·|T| + slot`, where `d` is the receiver's difference from its
/// predecessor (so a round with one transmitter stores no slot). Rounds
/// after the last record are silent.
#[derive(Debug, Default)]
struct Memo {
    key: Option<ReplayKey>,
    rounds: u64,
    bytes: Vec<u8>,
}

fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

fn get(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends one recorded round to a [`Memo`] stream. Returns false when
/// the stream cannot hold the round: receptions out of receiver order
/// (against the [`SinrResolver`] contract) or a patched field (which no
/// resolver produces).
fn record(
    bytes: &mut Vec<u8>,
    gap: u64,
    tx: &[usize],
    receptions: &[Reception],
    op: Option<CacheOp>,
) -> bool {
    let field = match op {
        None => 0,
        Some(CacheOp::Rebuilt) => 1,
        Some(CacheOp::Patched { .. }) => return false,
    };
    put(bytes, gap);
    put(bytes, (tx.len() as u64) << 1 | field);
    let mut prev = 0usize;
    for &v in tx {
        put(bytes, v.wrapping_sub(prev) as u64);
        prev = v;
    }
    put(bytes, receptions.len() as u64);
    prev = 0;
    for r in receptions {
        if r.receiver < prev {
            return false;
        }
        put(bytes, ((r.receiver - prev) * tx.len() + r.slot) as u64);
        prev = r.receiver;
    }
    true
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
/// keeps its transmitter and reception vectors and its memo slot, and
/// [`Engine::run`], [`Engine::run_keyed`] and [`Engine::run_until`] keep
/// one message vector across their rounds.
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
    /// The recording [`Engine::run_keyed`] replays.
    memo: Memo,
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
            memo: Memo::default(),
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

    /// Runs `rounds` rounds of `behavior` under `key` (see the module
    /// docs). On a hit — the memo slot holds `key` with the same round
    /// count — the recorded rounds are replayed: the messages come from
    /// `payload` (one per listed transmitter, in order), and deliveries,
    /// `end_round`, the stats, the phase accounting and the traced round
    /// events are those of a fresh run. On a miss the rounds run as
    /// [`Engine::run`] runs them, `payload` is not called, and their
    /// recording replaces the slot's.
    ///
    /// The caller owes that every run under `key` lists the same
    /// transmitters in each local round, and that `payload(v)` is the
    /// message the behavior lists for transmitter `v`. Debug builds poll
    /// the behavior on every replayed round and assert that it lists the
    /// recorded transmitters.
    pub fn run_keyed<M, B>(
        &mut self,
        key: ReplayKey,
        behavior: &mut B,
        rounds: u64,
        payload: &dyn Fn(usize) -> M,
    ) where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut msgs = Vec::new();
        // Taken out (the slot reads empty) until the run completes.
        let mut memo = std::mem::take(&mut self.memo);
        if memo.key == Some(key) && memo.rounds == rounds {
            self.replay(&memo.bytes, behavior, rounds, payload, &mut msgs);
        } else {
            memo.bytes.clear();
            let (mut gap, mut recorded) = (0, true);
            for _ in 0..rounds {
                self.step_with(behavior, &mut msgs);
                let op = self.resolver.last_cache_op();
                if self.tx_nodes.is_empty() && op.is_none() {
                    gap += 1;
                } else if recorded {
                    recorded = record(&mut memo.bytes, gap, &self.tx_nodes, &self.receptions, op);
                    gap = 0;
                }
            }
            (memo.key, memo.rounds) = (recorded.then_some(key), rounds);
        }
        self.memo = memo;
    }

    /// Replays a [`Memo`] stream of `rounds` rounds (see
    /// [`Engine::run_keyed`]).
    fn replay<M, B>(
        &mut self,
        bytes: &[u8],
        behavior: &mut B,
        rounds: u64,
        payload: &dyn Fn(usize) -> M,
        msgs: &mut Vec<M>,
    ) where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut pos = 0;
        let mut next = if bytes.is_empty() {
            u64::MAX
        } else {
            get(bytes, &mut pos)
        };
        for local in 0..rounds {
            self.tx_nodes.clear();
            self.receptions.clear();
            msgs.clear();
            let mut cache = None;
            if local == next {
                let head = get(bytes, &mut pos);
                cache = (head & 1 == 1).then_some(CacheOp::Rebuilt);
                let mut v = 0usize;
                for _ in 0..head >> 1 {
                    v = v.wrapping_add(get(bytes, &mut pos) as usize);
                    self.tx_nodes.push(v);
                    msgs.push(payload(v));
                }
                let t = self.tx_nodes.len().max(1);
                let mut receiver = 0usize;
                for _ in 0..get(bytes, &mut pos) {
                    let x = get(bytes, &mut pos) as usize;
                    receiver += x / t;
                    let slot = x % t;
                    self.receptions.push(Reception {
                        receiver,
                        sender: self.tx_nodes[slot],
                        slot,
                    });
                }
                next = if pos < bytes.len() {
                    local + 1 + get(bytes, &mut pos)
                } else {
                    u64::MAX
                };
            }
            #[cfg(debug_assertions)]
            {
                let (mut nodes, mut polled) = (Vec::new(), Vec::new());
                behavior.transmitters(self.net, self.round, &mut nodes, &mut polled);
                assert_eq!(
                    nodes, self.tx_nodes,
                    "round {}: the behavior lists other transmitters than the \
                     replayed recording (a replay key reused for another pattern)",
                    self.round
                );
            }
            self.finish_round(behavior, msgs, cache);
            self.stats.replayed += 1;
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
        self.finish_round(behavior, msgs, self.resolver.last_cache_op());
    }

    /// Completes the current round from the transmitters and receptions in
    /// the engine's buffers: deliveries, `end_round`, stats and the traced
    /// round event. Shared by executed and replayed rounds.
    fn finish_round<M, B>(&mut self, behavior: &mut B, msgs: &[M], cache: Option<CacheOp>)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let round = self.round;
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
                cache,
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
        let mut engine = Engine::new(&net);
        #[derive(Debug)]
        struct Events(Vec<Event>);
        impl dcluster_obs::Tracer for Events {
            fn on_event(&mut self, ev: &Event) {
                self.0.push(ev.clone());
            }
        }
        let recorder = dcluster_obs::shared(Events(Vec::new()));
        engine.set_tracer(recorder.clone());

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

    /// Node v transmits `10·round + v` in the rounds where `round + v` is
    /// a multiple of 3 (rounds counted from the run's start).
    fn keyed_run(engine: &mut Engine<'_>, key: ReplayKey) -> Vec<(usize, u64, usize, u64)> {
        let start = engine.round();
        let pattern = |v: usize, round: u64| (round - start + v as u64).is_multiple_of(3);
        let mut heard = Vec::new();
        let mut b = FnBehavior {
            tx: |_: &Network, v: usize, r: u64| pattern(v, r).then_some(10 * r + v as u64),
            rx: |_: &Network, v: usize, r: u64, s: usize, m: &u64| {
                heard.push((v, r - start, s, *m))
            },
        };
        engine.run_keyed(key, &mut b, 6, &|v| 10 * start + v as u64);
        heard
    }

    #[test]
    fn a_keyed_run_replays_its_recording() {
        let net = line(4, 0.5);
        let mut engine = Engine::new(&net);
        let key = ReplayKey::fresh();
        let first = keyed_run(&mut engine, key);
        assert!(!first.is_empty());
        assert_eq!(engine.stats().replayed, 0, "a miss records");
        let second = keyed_run(&mut engine, key);
        assert_eq!(engine.stats().replayed, 6, "a hit replays every round");
        assert_eq!(engine.resolver_stats().rounds, 6);
        let strip = |h: &[(usize, u64, usize, u64)]| -> Vec<_> {
            h.iter().map(|&(v, lr, s, _)| (v, lr, s)).collect()
        };
        assert_eq!(strip(&first), strip(&second));
        assert!(
            second.iter().all(|&(_, _, s, m)| m == 60 + s as u64),
            "replayed messages come from the payload: {second:?}"
        );
        keyed_run(&mut engine, ReplayKey::fresh());
        assert_eq!(engine.stats().replayed, 6, "another key misses");
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

    #[test]
    fn receptions_out_of_receiver_order_are_never_replayed() {
        let net = line(4, 0.5);
        let mut engine = Engine::with_resolver(&net, Box::new(Reversed(Default::default())));
        let key = ReplayKey::fresh();
        let first = keyed_run(&mut engine, key);
        assert_eq!(keyed_run(&mut engine, key).len(), first.len());
        assert_eq!(engine.stats().replayed, 0);
        assert_eq!(engine.resolver_stats().rounds, 12);
    }
}
