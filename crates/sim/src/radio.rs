//! SINR reception resolution — the paper's Eq. (1) — behind two resolver
//! backends.
//!
//! Given the set `T` of nodes transmitting in a round, node `u` (which must
//! itself be silent: half-duplex) receives the message of `v ∈ T` iff
//!
//! ```text
//! SINR(v, u, T) = signal(d(v,u)) / (noise + Σ_{w ∈ T, w≠v} signal(d(w,u))) ≥ β.
//! ```
//!
//! Because `β > 1`, at most one transmitter can be decoded by any receiver,
//! and it is necessarily the one with the strongest signal (the nearest,
//! under uniform power). Reception resolution is the hot path of every
//! experiment binary, so it sits behind the [`SinrResolver`] trait with
//! two backends ([`ResolverKind`]):
//!
//! * [`NaiveResolver`] — the oracle. Evaluates Eq. (1) literally at every
//!   listener in `O(n·|T|)`; the fast backend must match it **exactly**.
//! * [`AggregatedResolver`] — the fast backend and the default. A round
//!   with `|T| ≤` [`EXACT_MAX_TX`] runs the oracle's own per-listener
//!   routine, so it equals the oracle by construction; the paper's
//!   protocols spend almost all their rounds there. The routine's
//!   received signals are read from a gain cache instead of recomputed:
//!   a network's positions and powers never change after its build, so
//!   each pair's `P_w / d(w,u)^α` is a constant, and the cache keeps one column
//!   of them per node that has transmitted in an exact round, filled on
//!   first use from the same [`Network::signal_between`] the oracle calls
//!   and keyed on the network's [stamp](Network::stamp). An exact round
//!   then costs `n·|T|` loads and adds rather than `2·n·|T|` `sqrt` +
//!   `powf`, and its values are the oracle's bit for bit. The cache holds
//!   at most `max(2²⁰, EXACT_MAX_TX·n)` signals (the whole matrix up to
//!   `n = 1024`) and is cleared whole when a round's missing columns do
//!   not fit. Larger rounds build a cell-aggregated [`InterferenceField`]
//!   over their transmitters. Two exact facts cut the work: (1) a
//!   decodable transmitter lies within range (`signal(d) ≥ β·noise` is
//!   necessary), so candidates come from a grid query; (2) the
//!   second-strongest transmitter alone contributes its
//!   signal as interference, so a receiver failing `s₁ ≥ β·(noise + s₂)`
//!   is skipped without summing.
//!   Survivors are decided by exact cell-grouped partial sums, ring by ring
//!   around the receiver, plus a count-based residual bound for everything
//!   farther; the rare inconclusive case falls back to the exact far-field
//!   sum (see [`crate::field`] for the full argument).
//!
//! **Heterogeneous power.** Nodes may transmit at per-node powers
//! ([`Network::powers`](crate::Network::powers)); signals are then
//! `P_w / d^α` via [`Network::signal_from`](crate::Network::signal_from).
//! The field path keeps its exactness: any decodable transmitter must
//! satisfy `P_w/d^α ≥ β·noise`, i.e. lie within
//! [`Network::max_range`](crate::Network::max_range) of the receiver, so
//! the candidate search stays a bounded disk query — but the decodable
//! transmitter is the *strongest-signal* one, which under heterogeneous
//! power need not be the nearest, so the candidate is found by a
//! strongest-two scan instead of the nearest-two distance query (the
//! uniform-power fast path is untouched).
//!
//! Equivalence with the oracle is enforced by property tests on random,
//! clumped and grid-boundary deployments
//! (`crates/sim/tests/radio_equivalence.rs`).

use crate::field::{FieldStats, InterferenceField};
use crate::grid::Grid;
use crate::network::Network;
use dcluster_obs::CacheOp;
use std::fmt;
use std::str::FromStr;

/// A successful reception in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Receiving node (index).
    pub receiver: usize,
    /// Transmitting node (index).
    pub sender: usize,
    /// Position of `sender` in the round's transmitter slice (lets callers
    /// look up the transmitted message without a search).
    pub slot: usize,
}

/// The available [`SinrResolver`] backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResolverKind {
    /// Literal Eq. (1): `O(n·|T|)` oracle.
    Naive,
    /// The oracle's exact routine up to [`EXACT_MAX_TX`] transmitters, a
    /// cell-aggregated interference field above it.
    #[default]
    Aggregated,
}

impl ResolverKind {
    /// Every backend: the oracle first.
    pub const ALL: [ResolverKind; 2] = [ResolverKind::Naive, ResolverKind::Aggregated];

    /// Stable lower-case name (CLI flags, traces, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            ResolverKind::Naive => "naive",
            ResolverKind::Aggregated => "aggregated",
        }
    }

    /// Instantiates the backend.
    pub fn build(self) -> Box<dyn SinrResolver> {
        match self {
            ResolverKind::Naive => Box::new(NaiveResolver::new()),
            ResolverKind::Aggregated => Box::new(AggregatedResolver::new()),
        }
    }
}

impl fmt::Display for ResolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ResolverKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(ResolverKind::Naive),
            "aggregated" | "agg" => Ok(ResolverKind::Aggregated),
            other => Err(format!(
                "unknown resolver '{other}' (expected naive|aggregated)"
            )),
        }
    }
}

/// Cumulative per-backend work counters (both backends fill `rounds` and
/// `candidates`; the rest apply where meaningful).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Rounds resolved.
    pub rounds: u64,
    /// Decode candidates: receivers with some transmitter within range in
    /// field rounds; decoded receivers in exact-routine rounds (which have
    /// no candidate search).
    pub candidates: u64,
    /// Field rounds: candidates killed by the second-strongest
    /// short-circuit.
    pub short_circuited: u64,
    /// Exact full-interference sums over all of `T`, one per listener of
    /// an exact-routine round (every round of the naive oracle; rounds
    /// with `|T| ≤` [`EXACT_MAX_TX`] of the aggregated backend).
    pub exact_sums: u64,
    /// Field rounds: candidates decided by cell sums + residual bound.
    pub residual_decided: u64,
    /// Field rounds: candidates that needed the exact far-field fallback.
    pub exact_fallbacks: u64,
}

impl ResolverStats {
    /// Folds another backend's counters into this one (the maintenance
    /// driver sums per-epoch engines into run totals for the report).
    pub fn absorb(&mut self, other: &ResolverStats) {
        self.rounds += other.rounds;
        self.candidates += other.candidates;
        self.short_circuited += other.short_circuited;
        self.exact_sums += other.exact_sums;
        self.residual_decided += other.residual_decided;
        self.exact_fallbacks += other.exact_fallbacks;
    }
}

/// A reception-resolution backend: given a round's transmitter set,
/// produce the exact reception set of Eq. (1).
///
/// Both backends are **observationally identical** — they differ only in
/// how much work they do. Implementations may keep scratch allocations
/// (hence `&mut self`) and must be deterministic: the same network and
/// transmitter slice always yield the same receptions in the same order
/// (sorted by receiver index).
pub trait SinrResolver: fmt::Debug {
    /// Which backend this is (recorded in traces and stats).
    fn kind(&self) -> ResolverKind;

    /// Resolves one round into `out` (cleared first), sorted by receiver.
    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>);

    /// Convenience wrapper allocating a fresh output vector.
    fn resolve(&mut self, net: &Network, transmitters: &[usize]) -> Vec<Reception> {
        let mut out = Vec::new();
        self.resolve_into(net, transmitters, &mut out);
        out
    }

    /// Cumulative work counters.
    fn stats(&self) -> ResolverStats;

    /// Verifies any state kept across rounds against a fresh computation
    /// (backends without such state trivially pass). The aggregated
    /// backend compares every cached received signal, bit for bit, with a
    /// fresh computation.
    fn audit(&self, net: &Network) -> Result<(), String> {
        let _ = net;
        Ok(())
    }

    /// Whether the most recent [`SinrResolver::resolve_into`] call built
    /// an interference field: [`CacheOp::Rebuilt`] when it did, `None` for
    /// backends without a field and for rounds that built none (no
    /// transmitters, or few enough for the exact routine). Feeds the
    /// engine's per-round trace events.
    fn last_cache_op(&self) -> Option<CacheOp> {
        None
    }
}

/// Candidate sender at receiver position `u`: the strongest and
/// second-strongest received signals over the transmitters stored in
/// `grid`, scanning the disk of radius `r` (the network's
/// [`max_range`](Network::max_range), which contains every decodable
/// transmitter). Returns `(sender, s1, s2)` with `s2 = 0.0` when a single
/// candidate is in range. Ties keep the first-scanned transmitter — the
/// scan order is deterministic, and tied top signals can never be decoded
/// anyway (`β > 1`).
fn two_strongest_within(net: &Network, grid: &Grid, u: crate::Point, r: f64) -> CandidateSignals {
    let mut best: Option<(usize, f64)> = None;
    let mut second = 0.0f64;
    for w in grid.within(net.points(), u, r) {
        let s = net.signal_from(w, net.pos(w).dist(u));
        match best {
            None => best = Some((w, s)),
            Some((_, bs)) if s > bs => {
                second = bs;
                best = Some((w, s));
            }
            Some(_) => second = second.max(s),
        }
    }
    best.map(|(w, s1)| (w, s1, second))
}

/// `(sender, strongest signal, second-strongest signal)` or `None` when no
/// transmitter is in range.
type CandidateSignals = Option<(usize, f64, f64)>;

/// Candidate search of the field path: nearest-two distance query under
/// uniform power, strongest-two signal scan under heterogeneous power.
fn candidate_signals(net: &Network, tx_grid: &Grid, u: usize) -> CandidateSignals {
    let r = net.max_range();
    if net.has_uniform_power() {
        let p = net.params();
        let tn = tx_grid.two_nearest_within(net.points(), net.pos(u), r)?;
        let s2 = if tn.d2.is_finite() {
            p.signal(tn.d2)
        } else {
            0.0
        };
        Some((tn.nearest, p.signal(tn.d1), s2))
    } else {
        two_strongest_within(net, tx_grid, net.pos(u), r)
    }
}

/// Marks `transmitters` in the reusable `is_tx`/`slot_of` scratch vectors.
fn mark_transmitters(
    n: usize,
    transmitters: &[usize],
    is_tx: &mut Vec<bool>,
    slot_of: &mut Vec<u32>,
) {
    is_tx.clear();
    is_tx.resize(n, false);
    slot_of.clear();
    slot_of.resize(n, u32::MAX);
    for (slot, &t) in transmitters.iter().enumerate() {
        debug_assert!(!is_tx[t], "node {t} listed twice as transmitter");
        is_tx[t] = true;
        slot_of[t] = slot as u32;
    }
}

/// Largest transmitter count that [`AggregatedResolver`] resolves with the
/// oracle's exact routine instead of its interference field.
///
/// Per round the exact routine costs `O(n·|T|)`, and the field path one
/// grid query per listener plus an `O(|T|)` build. Both grow
/// linearly in `n`, so the threshold is on `|T|` alone; the field's fixed
/// costs move the crossover from about 5 at `n ≥ 10⁴` to past 16 at
/// `n = 52`. The value minimises the worst per-round slowdown against the
/// faster path over the fixed-`|T|` points of the `scale_resolvers` sweep
/// at its quick tier (`n = 52 … 2·10⁴`), which prints that threshold: 8
/// in two of three recorded runs and 6 in the third, where the two worst
/// slowdowns were within about 5 % (EXPERIMENTS.md, "Resolver
/// crossover"). The protocol workloads play no part in it.
///
/// That sweep timed the exact routine computing every signal afresh. The
/// aggregated backend now reads them from its gain cache, which makes its
/// exact rounds several times cheaper, so the value is conservative: the
/// true crossover against the field path lies higher.
pub const EXACT_MAX_TX: usize = 8;

/// Fewest received signals the gain cache may hold, whatever `n`: 2²⁰
/// `f64`s (8 MiB), the whole gain matrix up to `n = 1024`.
const GAIN_CACHE_MIN_ENTRIES: usize = 1 << 20;

/// A cross-round cache of received signals for the exact routine, keyed on
/// the network's build [stamp](Network::stamp). It holds one column per
/// node that has transmitted in an exact round on that network: the
/// node's signal [`Network::signal_between`] at every node. A column is
/// computed on first use, so a cached value is the oracle's bit for bit.
/// At most `max(2²⁰, EXACT_MAX_TX·n)` signals are held, which always fits
/// one exact round; when a round's missing columns do not fit, the whole
/// cache is cleared.
#[derive(Debug, Default)]
struct GainCache {
    /// Network stamp the columns were computed against (0 = nothing
    /// cached; real stamps start at 1).
    stamp: u64,
    /// Column index of each node's signals, `u32::MAX` when uncached.
    col_of: Vec<u32>,
    /// The columns back to back: column `c` of node `w` holds
    /// `signal_between(w, u)` at `cols[c·n + u]`.
    cols: Vec<f64>,
    /// Where each transmitter slot's column starts in `cols`, for the
    /// round being resolved.
    offsets: Vec<usize>,
}

impl GainCache {
    /// Most signals held on an `n`-node network.
    fn budget(n: usize) -> usize {
        GAIN_CACHE_MIN_ENTRIES.max(EXACT_MAX_TX * n)
    }

    /// Drops every column and keys the cache to `net`.
    fn clear(&mut self, net: &Network) {
        self.stamp = net.stamp();
        self.col_of.clear();
        self.col_of.resize(net.len(), u32::MAX);
        self.cols.clear();
    }

    /// Makes the column of every transmitter present, computing the
    /// missing ones, and records where each slot's column starts.
    fn load(&mut self, net: &Network, transmitters: &[usize]) {
        let n = net.len();
        if self.stamp != net.stamp() {
            self.clear(net);
        }
        let mut missing = transmitters
            .iter()
            .filter(|&&w| self.col_of[w] == u32::MAX)
            .count();
        let budget = Self::budget(n);
        if self.cols.len() + missing * n > budget {
            self.clear(net);
            missing = transmitters.len();
        }
        // Grow by doubling, but never past the budget.
        let needed = self.cols.len() + missing * n;
        if needed > self.cols.capacity() {
            let grown = (2 * self.cols.capacity()).min(budget).max(needed);
            self.cols.reserve_exact(grown - self.cols.len());
        }
        self.offsets.clear();
        for &w in transmitters {
            if self.col_of[w] == u32::MAX {
                self.col_of[w] = (self.cols.len() / n) as u32;
                self.cols.extend((0..n).map(|u| net.signal_between(w, u)));
            }
            self.offsets.push(self.col_of[w] as usize * n);
        }
    }

    /// Signal of the transmitter in `slot` of the latest
    /// [`GainCache::load`] at listener `u`.
    #[inline]
    fn signal(&self, slot: usize, u: usize) -> f64 {
        self.cols[self.offsets[slot] + u]
    }

    /// Compares every cached column, if the cache is keyed to `net`, bit
    /// for bit against a fresh computation.
    fn audit(&self, net: &Network) -> Result<(), String> {
        if self.stamp != net.stamp() {
            return Ok(()); // nothing cached, or stale: the next load clears
        }
        let n = net.len();
        for (w, &col) in self.col_of.iter().enumerate() {
            if col == u32::MAX {
                continue;
            }
            let column = &self.cols[col as usize * n..(col as usize + 1) * n];
            for (u, &cached) in column.iter().enumerate() {
                let fresh = net.signal_between(w, u);
                if cached.to_bits() != fresh.to_bits() {
                    return Err(format!(
                        "gain cache: transmitter {w} at listener {u} holds {cached:e}, \
                         a fresh computation gives {fresh:e}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The oracle's exact routine: Eq. (1) evaluated literally at every
/// listener, each listener's total signal summed in transmitter order.
/// [`NaiveResolver`] runs it every round and [`AggregatedResolver`] on
/// rounds with `|T| ≤` [`EXACT_MAX_TX`], so those rounds agree bit for bit.
/// `signal(slot, u)` is the received signal of `transmitters[slot]` at
/// listener `u`, i.e. [`Network::signal_between`]: the oracle computes it,
/// the aggregated backend reads it from its gain cache. Counts one exact
/// sum per listener and one candidate per decoded receiver.
fn resolve_exact(
    net: &Network,
    transmitters: &[usize],
    signal: impl Fn(usize, usize) -> f64,
    is_tx: &mut Vec<bool>,
    stats: &mut ResolverStats,
    out: &mut Vec<Reception>,
) {
    let p = net.params();
    is_tx.clear();
    is_tx.resize(net.len(), false);
    for &t in transmitters {
        debug_assert!(!is_tx[t], "node {t} listed twice as transmitter");
        is_tx[t] = true;
    }
    for (u, _) in is_tx.iter().enumerate().filter(|&(_, &tx)| !tx) {
        stats.exact_sums += 1;
        let total: f64 = (0..transmitters.len()).map(|slot| signal(slot, u)).sum();
        let mut decoded: Option<(usize, usize)> = None;
        for (slot, &v) in transmitters.iter().enumerate() {
            let s = signal(slot, u);
            if s >= p.beta * (p.noise + (total - s)) {
                debug_assert!(decoded.is_none(), "beta > 1 forbids two decodable senders");
                decoded = Some((v, slot));
            }
        }
        if let Some((v, slot)) = decoded {
            stats.candidates += 1;
            out.push(Reception {
                receiver: u,
                sender: v,
                slot,
            });
        }
    }
}

/// Reference backend: evaluates Eq. (1) literally, `O(n·|T|)`, no
/// geometric shortcuts. The oracle the aggregated backend is tested
/// against.
#[derive(Debug, Default)]
pub struct NaiveResolver {
    is_tx: Vec<bool>,
    stats: ResolverStats,
}

impl NaiveResolver {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SinrResolver for NaiveResolver {
    fn kind(&self) -> ResolverKind {
        ResolverKind::Naive
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        out.clear();
        self.stats.rounds += 1;
        if !transmitters.is_empty() {
            let signal = |slot: usize, u: usize| net.signal_between(transmitters[slot], u);
            resolve_exact(
                net,
                transmitters,
                signal,
                &mut self.is_tx,
                &mut self.stats,
                out,
            );
        }
    }

    fn stats(&self) -> ResolverStats {
        self.stats
    }
}

/// The fast backend (see the module docs): the oracle's exact routine over
/// cached received signals on rounds with `|T| ≤` [`EXACT_MAX_TX`], a
/// cell-aggregated [`InterferenceField`] built for each round above it.
/// Scales to 10⁵-node deployments with thousands of transmitters per round.
#[derive(Debug, Default)]
pub struct AggregatedResolver {
    is_tx: Vec<bool>,
    slot_of: Vec<u32>,
    stats: ResolverStats,
    /// [`CacheOp::Rebuilt`] after a field round, `None` after an exact or
    /// transmitter-less one.
    last_op: Option<CacheOp>,
    /// The received signals of exact rounds' transmitters; field rounds
    /// leave it idle.
    gains: GainCache,
}

impl AggregatedResolver {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves one round with the interference field whatever its `|T|`:
    /// what [`SinrResolver::resolve_into`] does above [`EXACT_MAX_TX`].
    /// Public so that `scale_resolvers` can time the field against the
    /// oracle at small `|T|` (the sweep that sets the constant) and the
    /// equivalence tests can hold the field to the oracle on small rounds.
    pub fn resolve_field_into(
        &mut self,
        net: &Network,
        transmitters: &[usize],
        out: &mut Vec<Reception>,
    ) {
        out.clear();
        self.stats.rounds += 1;
        if transmitters.is_empty() {
            self.last_op = None;
            return;
        }
        self.last_op = Some(CacheOp::Rebuilt);
        let n = net.len();
        let p = net.params();
        mark_transmitters(n, transmitters, &mut self.is_tx, &mut self.slot_of);
        let field = InterferenceField::build(net.points(), net.powers(), transmitters, p.range());
        let mut fs = FieldStats::default();
        for u in 0..n {
            if self.is_tx[u] {
                continue; // half-duplex: transmitters do not receive
            }
            let Some((v, s1, i_low)) = candidate_signals(net, field.grid(), u) else {
                continue;
            };
            self.stats.candidates += 1;
            // Short-circuit: interference ≥ the second-strongest signal.
            if s1 < p.beta * (p.noise + i_low) {
                self.stats.short_circuited += 1;
                continue;
            }
            if field.decide(net.points(), net.powers(), p, net.pos(u), v, s1, &mut fs) {
                out.push(Reception {
                    receiver: u,
                    sender: v,
                    slot: self.slot_of[v] as usize,
                });
            }
        }
        self.stats.residual_decided += fs.residual_decided + fs.exhausted;
        self.stats.exact_fallbacks += fs.exact_fallbacks;
    }
}

impl SinrResolver for AggregatedResolver {
    fn kind(&self) -> ResolverKind {
        ResolverKind::Aggregated
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        if transmitters.len() > EXACT_MAX_TX {
            return self.resolve_field_into(net, transmitters, out);
        }
        out.clear();
        self.stats.rounds += 1;
        self.last_op = None;
        if !transmitters.is_empty() {
            self.gains.load(net, transmitters);
            let gains = &self.gains;
            let signal = |slot: usize, u: usize| gains.signal(slot, u);
            resolve_exact(
                net,
                transmitters,
                signal,
                &mut self.is_tx,
                &mut self.stats,
                out,
            );
        }
    }

    fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Audits every cached signal column against a fresh computation.
    fn audit(&self, net: &Network) -> Result<(), String> {
        self.gains.audit(net)
    }

    fn last_cache_op(&self) -> Option<CacheOp> {
        self.last_op
    }
}

/// Resolves one round with the naive oracle (shorthand for tests and
/// auditing).
pub fn resolve_naive(net: &Network, transmitters: &[usize]) -> Vec<Reception> {
    NaiveResolver::new().resolve(net, transmitters)
}

/// Total received power (noise excluded) at every node for a transmitter
/// set — the quantity a **carrier-sensing** radio would measure. This is a
/// *model feature* the paper's pure setting forbids; it exists here for
/// the extension experiments (the paper's conclusion names carrier sensing
/// as an open direction).
pub fn sensed_power(net: &Network, transmitters: &[usize]) -> Vec<f64> {
    (0..net.len())
        .map(|u| {
            transmitters
                .iter()
                .filter(|&&w| w != u)
                .map(|&w| net.signal_between(w, u))
                .sum()
        })
        .collect()
}

/// Computes `SINR(v, u, T)` literally per Eq. (1) of the paper (diagnostic
/// helper; `v` must be in `transmitters`).
pub fn sinr(net: &Network, v: usize, u: usize, transmitters: &[usize]) -> f64 {
    let p = net.params();
    debug_assert!(transmitters.contains(&v));
    let s = net.signal_between(v, u);
    let interference: f64 = transmitters
        .iter()
        .filter(|&&w| w != v)
        .map(|&w| net.signal_between(w, u))
        .sum();
    s / (p.noise + interference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::rng::Rng64;
    use crate::SinrParams;

    fn net_of(points: Vec<Point>) -> Network {
        Network::builder(points).build().unwrap()
    }

    /// One round's receptions from every resolution path: the oracle, the
    /// aggregated backend as dispatched, and its field path forced at any
    /// `|T|`, so the small hand-built rounds below hold the field to the
    /// oracle too.
    fn all_paths(net: &Network, tx: &[usize]) -> [(&'static str, Vec<Reception>); 3] {
        let mut field = Vec::new();
        AggregatedResolver::new().resolve_field_into(net, tx, &mut field);
        [
            ("naive", NaiveResolver::new().resolve(net, tx)),
            ("aggregated", AggregatedResolver::new().resolve(net, tx)),
            ("field", field),
        ]
    }

    #[test]
    fn lone_transmitter_reaches_exactly_its_range() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),   // transmitter
            Point::new(0.999, 0.0), // inside range
            Point::new(1.001, 0.0), // outside range
        ]);
        for (path, got) in all_paths(&net, &[0]) {
            assert_eq!(
                got,
                vec![Reception {
                    receiver: 1,
                    sender: 0,
                    slot: 0
                }],
                "path {path}"
            );
        }
    }

    #[test]
    fn transmitters_do_not_receive() {
        let net = net_of(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for (path, got) in all_paths(&net, &[0, 1]) {
            assert!(got.is_empty(), "{path}: both transmit, nobody listens");
        }
    }

    #[test]
    fn two_distant_transmitters_interfere_at_boundary() {
        // Receiver at midpoint of two transmitters 1.8 apart: each signal
        // arrives at distance 0.9; equal signals cannot beat beta > 1.
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(1.8, 0.0),
            Point::new(0.9, 0.0),
        ]);
        for (path, got) in all_paths(&net, &[0, 1]) {
            assert!(got.is_empty(), "path {path}");
        }
    }

    #[test]
    fn close_transmitter_beats_distant_interferer() {
        // Sender 0.1 from receiver, interferer 1.9 away: SINR is huge.
        let net = net_of(vec![
            Point::new(0.0, 0.0), // sender
            Point::new(2.0, 0.0), // interferer
            Point::new(0.1, 0.0), // receiver
        ]);
        for (path, got) in all_paths(&net, &[0, 1]) {
            assert_eq!(
                got,
                vec![Reception {
                    receiver: 2,
                    sender: 0,
                    slot: 0
                }],
                "path {path}"
            );
        }
    }

    #[test]
    fn sinr_matches_reception_threshold() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(0.7, 0.0),
            Point::new(1.5, 0.0),
        ]);
        let tx = [0, 2];
        let s = sinr(&net, 0, 1, &tx);
        for (path, got) in all_paths(&net, &tx) {
            let received = got.iter().any(|x| x.receiver == 1);
            assert_eq!(received, s >= net.params().beta, "path {path}");
        }
    }

    #[test]
    fn exact_rounds_match_naive_bit_for_bit_at_the_threshold() {
        // A listener at the origin, EXACT_MAX_TX - 1 fixed interferers and
        // a sender slid along the x-axis ulp by ulp across the distance at
        // which its SINR is exactly β. Every step is an exact-routine round
        // for the aggregated backend, so it must decide like the oracle
        // even where the decision flips: a fresh instance and one warm
        // instance reused across the steps alike.
        let p = SinrParams::default();
        let interferers: Vec<Point> = (1..EXACT_MAX_TX)
            .map(|i| {
                let (r, a) = (2.5 + 0.37 * i as f64, 1.1 * i as f64);
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let interference: f64 = interferers
            .iter()
            .map(|w| p.signal(w.dist(Point::new(0.0, 0.0))))
            .sum();
        let d_star = (p.power / (p.beta * (p.noise + interference))).powf(1.0 / p.alpha);
        let mut d = d_star;
        for _ in 0..64 {
            d = d.next_down();
        }
        let tx: Vec<usize> = (1..=EXACT_MAX_TX).collect();
        let mut outcomes = std::collections::BTreeSet::new();
        let mut warm = AggregatedResolver::new();
        for step in 0..128 {
            let mut pts = vec![Point::new(0.0, 0.0), Point::new(d, 0.0)];
            pts.extend(interferers.iter().copied());
            let net = net_of(pts);
            let naive = NaiveResolver::new().resolve(&net, &tx);
            let agg = AggregatedResolver::new().resolve(&net, &tx);
            assert_eq!(agg, naive, "step {step}: d = {d:e}");
            assert_eq!(warm.resolve(&net, &tx), naive, "warm, step {step}");
            warm.audit(&net).unwrap();
            outcomes.insert(naive.len());
            d = d.next_up();
        }
        assert_eq!(
            outcomes.len(),
            2,
            "the sweep must cross the threshold: SINR = β·(1 ± a few ulps)"
        );
    }

    /// `n` nodes spread uniformly over a `side × side` square.
    fn random_net(n: usize, side: f64, rng: &mut Rng64) -> Network {
        net_of(
            (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
                .collect(),
        )
    }

    #[test]
    fn warm_gain_cache_follows_transmitter_mutations() {
        // Rebuilding the network with a transmitter moved or re-powered
        // between exact rounds must reach the cached signals: the stamp
        // changes, the columns go.
        let mut pts = random_net(90, 3.0, &mut Rng64::new(808)).points().to_vec();
        let base = SinrParams::default().power;
        let mut powers = vec![base; pts.len()];
        let tx = [4, 17, 33, 60, 71];
        let mut agg = AggregatedResolver::new();
        let mut check = |pts: &[Point], powers: &[f64], what: &str| {
            let net = Network::builder(pts.to_vec())
                .powers(powers.to_vec())
                .build()
                .unwrap();
            assert_eq!(
                agg.resolve(&net, &tx),
                resolve_naive(&net, &tx),
                "{what}: stale signals leaked into an exact round"
            );
            agg.audit(&net).unwrap();
        };
        check(&pts, &powers, "cold");
        pts[17] = Point::new(1.5, 1.5);
        check(&pts, &powers, "moved");
        powers[33] = 6.0 * base;
        check(&pts, &powers, "re-powered");
        powers[33] = base;
        check(&pts, &powers, "power restored");
        pts[4] = Point::new(1.45, 1.5);
        check(&pts, &powers, "second move");
    }

    #[test]
    fn warm_gain_cache_serves_two_networks_alternately() {
        // Same size, different geometry: only the stamp tells them apart.
        let mut rng = Rng64::new(909);
        let nets = [random_net(90, 3.0, &mut rng), random_net(90, 3.0, &mut rng)];
        let mut agg = AggregatedResolver::new();
        for round in 0..8 {
            // The same transmitters on both, so a stale column would be read.
            let mut tx: Vec<usize> = (0..90).collect();
            rng.shuffle(&mut tx);
            tx.truncate(1 + round % EXACT_MAX_TX);
            for (i, net) in nets.iter().enumerate() {
                assert_eq!(
                    agg.resolve(net, &tx),
                    resolve_naive(net, &tx),
                    "round {round}, network {i}: the other network's signals leaked"
                );
                agg.audit(net).unwrap();
            }
        }
    }

    #[test]
    fn gain_cache_clears_when_its_budget_is_full() {
        // n = 4096 leaves room for 2²⁰ / 4096 = 256 columns, i.e. 32 exact
        // rounds of 8 fresh transmitters; n = 3000 for 349, a remainder
        // that plain doubling would overshoot. The round after the cache
        // is full starts afresh, and neither the columns held nor their
        // allocation ever exceed the bound.
        assert_eq!(GainCache::budget(4096) / 4096, 256);
        for n in [4096, 3000] {
            let budget = GainCache::budget(n);
            let per_round = EXACT_MAX_TX * n;
            let fitting = budget / per_round;
            let mut rng = Rng64::new(n as u64);
            let net = random_net(n, 18.0, &mut rng);
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut agg = AggregatedResolver::new();
            for (round, tx) in order.chunks(EXACT_MAX_TX).take(fitting + 4).enumerate() {
                let naive = resolve_naive(&net, tx);
                assert_eq!(agg.resolve(&net, tx), naive, "n = {n}, round {round}");
                let cols = &agg.gains.cols;
                let held = if round < fitting {
                    round + 1
                } else {
                    round + 1 - fitting
                };
                assert_eq!(cols.len(), held * per_round, "n = {n}, round {round}");
                assert!(cols.capacity() <= budget, "n = {n}, round {round}");
            }
            agg.audit(&net).unwrap();
        }
    }

    #[test]
    fn gain_cache_audit_names_a_corrupted_pair() {
        let mut rng = Rng64::new(1212);
        let net = random_net(40, 2.0, &mut rng);
        let mut agg = AggregatedResolver::new();
        let _ = agg.resolve(&net, &[3, 9]);
        agg.audit(&net).unwrap();
        let col = agg.gains.col_of[9] as usize;
        let entry = &mut agg.gains.cols[col * net.len() + 21];
        *entry = f64::from_bits(entry.to_bits() + 1);
        let err = agg.audit(&net).unwrap_err();
        assert!(
            err.contains("transmitter 9 at listener 21"),
            "audit must name the pair: {err}"
        );
    }

    #[test]
    fn all_backends_match_naive_on_random_instances() {
        let mut rng = Rng64::new(2024);
        for trial in 0..30 {
            let n = 20 + trial * 7;
            let side = 4.0;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
                .collect();
            let net = Network::builder(pts)
                .params(SinrParams::normalized(
                    2.5 + rng.next_f64() * 2.0,
                    1.2 + rng.next_f64(),
                    1.0,
                    0.2,
                ))
                .build()
                .unwrap();
            let k = 1 + rng.range_usize(n);
            let mut all: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut all);
            all.truncate(k);
            let [(_, naive), rest @ ..] = all_paths(&net, &all);
            for (path, got) in rest {
                assert_eq!(got, naive, "trial {trial}: {path} and naive disagree");
            }
        }
    }

    #[test]
    fn all_backends_match_naive_under_heterogeneous_power() {
        let mut rng = Rng64::new(4040);
        for trial in 0..25 {
            let n = 15 + trial * 9;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
                .collect();
            let base = SinrParams::default().power;
            // Power spread of up to 8x: ranges up to 2 under alpha = 3.
            let powers: Vec<f64> = (0..n)
                .map(|_| base * (1.0 + 7.0 * rng.next_f64()))
                .collect();
            let net = Network::builder(pts).powers(powers).build().unwrap();
            assert!(!net.has_uniform_power());
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.25)).collect();
            let [(_, naive), rest @ ..] = all_paths(&net, &tx);
            for (path, got) in rest {
                assert_eq!(
                    got, naive,
                    "trial {trial}: {path} disagrees with naive under heterogeneous power"
                );
            }
        }
    }

    #[test]
    fn strong_far_transmitter_beats_a_nearer_weak_one() {
        // Receiver at x=1.0; weak transmitter at 0.8 (d=0.2), strong one at
        // 2.0 (d=1.0) with 64x the power: the strong one's signal wins
        // 128/1 vs 2/0.008 = 250 — nearest still wins here, so instead make
        // the strong one the decodable sender by silencing geometry:
        // weak at d=0.9 → signal 2/0.729 ≈ 2.74; strong at d=1.0 → 128.
        let p = SinrParams::default();
        let net = Network::builder(vec![
            Point::new(0.1, 0.0), // weak tx, d = 0.9
            Point::new(2.0, 0.0), // strong tx, d = 1.0
            Point::new(1.0, 0.0), // receiver
        ])
        .powers(vec![p.power, 64.0 * p.power, p.power])
        .params(p)
        .build()
        .unwrap();
        // Strongest ≠ nearest: a nearest-sender search would pick node 0
        // and reject; the field's strongest-signal path must decode node 1.
        let naive = resolve_naive(&net, &[0, 1]);
        assert_eq!(naive.len(), 1);
        assert_eq!(naive[0].sender, 1, "the high-power transmitter decodes");
        for (path, got) in all_paths(&net, &[0, 1]) {
            assert_eq!(got, naive, "path {path}");
        }
    }

    #[test]
    fn at_most_one_sender_decoded_per_receiver() {
        let mut rng = Rng64::new(7);
        let pts: Vec<Point> = (0..120)
            .map(|_| Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)))
            .collect();
        let net = net_of(pts);
        let tx: Vec<usize> = (0..120).filter(|_| rng.chance(0.3)).collect();
        for (path, rec) in all_paths(&net, &tx) {
            let mut seen = std::collections::HashSet::new();
            for x in &rec {
                assert!(
                    seen.insert(x.receiver),
                    "{path}: receiver {} decoded twice",
                    x.receiver
                );
                assert_eq!(tx[x.slot], x.sender, "slot must index the sender");
            }
        }
    }

    #[test]
    fn empty_transmitter_set_yields_no_receptions() {
        let net = net_of(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for (path, got) in all_paths(&net, &[]) {
            assert!(got.is_empty(), "path {path}");
        }
    }

    #[test]
    fn resolver_stats_track_work() {
        let mut rng = Rng64::new(11);
        let pts: Vec<Point> = (0..80)
            .map(|_| Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)))
            .collect();
        let net = net_of(pts);
        let tx: Vec<usize> = (0..80).filter(|_| rng.chance(0.25)).collect();
        assert!(tx.len() > EXACT_MAX_TX, "a field round");
        let mut agg = AggregatedResolver::new();
        let _ = agg.resolve(&net, &tx);
        let st = agg.stats();
        assert_eq!(st.rounds, 1);
        assert_eq!(st.exact_sums, 0, "field rounds never do full naive sums");
        assert_eq!(
            st.candidates,
            st.short_circuited + st.residual_decided + st.exact_fallbacks,
            "every candidate is accounted for exactly once"
        );
        // An exact-routine round counts its work exactly like the oracle.
        let small = &tx[..EXACT_MAX_TX];
        let mut agg = AggregatedResolver::new();
        let mut naive = NaiveResolver::new();
        assert_eq!(agg.resolve(&net, small), naive.resolve(&net, small));
        assert_eq!(agg.stats(), naive.stats());
        assert_eq!(agg.stats().exact_sums, (80 - EXACT_MAX_TX) as u64);
        assert_eq!(agg.last_cache_op(), None, "exact rounds build no field");
    }

    #[test]
    fn resolver_kind_parses_and_prints() {
        for kind in ResolverKind::ALL {
            assert_eq!(kind.name().parse::<ResolverKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!(ResolverKind::default(), ResolverKind::Aggregated);
        assert_eq!(
            "AGG".parse::<ResolverKind>().unwrap(),
            ResolverKind::Aggregated
        );
        // Typos and the retired backends alike name what is available.
        for bad in ["fft", "grid", "parallel", "par"] {
            let err = bad.parse::<ResolverKind>().unwrap_err();
            for name in ["naive", "aggregated"] {
                assert!(
                    err.contains(name),
                    "'{bad}': error must list '{name}': {err}"
                );
            }
        }
    }

    #[test]
    fn persistent_aggregated_matches_the_default_aggregated() {
        // One instance reused across rounds (its scratch buffers reused)
        // must equal a fresh instance every round.
        let mut rng = Rng64::new(5150);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
            .collect();
        let net = net_of(pts);
        let mut persistent = AggregatedResolver::new();
        for round in 0..10 {
            let tx: Vec<usize> = (0..200).filter(|_| rng.chance(0.3)).collect();
            assert_eq!(
                persistent.resolve(&net, &tx),
                AggregatedResolver::new().resolve(&net, &tx),
                "round {round}: persistence changed receptions"
            );
            persistent.audit(&net).expect("audit");
        }
    }

    #[test]
    fn sensed_power_excludes_own_signal_and_decays() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let p = sensed_power(&net, &[0]);
        assert_eq!(p[0], 0.0, "a node does not sense its own transmission");
        assert!(p[1] > p[2], "closer listener senses more power");
        let both = sensed_power(&net, &[0, 1]);
        assert!(both[2] > p[2], "more transmitters, more power");
    }
}
