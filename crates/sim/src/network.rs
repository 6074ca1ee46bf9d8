//! Description of a deployed wireless network.
//!
//! A [`Network`] is built once from a deployment and never changes after
//! that: the protocols only query it. A world that moves nodes or changes
//! their powers between epochs builds a new network over the updated
//! deployment (the dynamics crate's `World::apply`).
//!
//! Nodes may carry **heterogeneous transmit powers** (builder:
//! [`NetworkBuilder::powers`]); all SINR evaluation goes through
//! [`Network::signal_from`], and per-node ranges through
//! [`Network::range_of`]. With uniform power (the paper's setting and the
//! default) every formula reduces bit-for-bit to the classic
//! `SinrParams::signal` path.
//!
//! Every position must be finite ([`NetworkError::NonFinitePosition`]):
//! the network's [`Grid`] tiles a finite box of cells around its nodes.

use crate::graph::Graph;
use crate::grid::Grid;
use crate::point::Point;
use crate::SinrParams;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global source of network stamps. Every build draws a fresh
/// value, so a stamp observed once is never reissued — caches keyed on it
/// can trust a match absolutely. A [`Network::clone`] shares its origin's
/// stamp, which is sound because neither can change.
static STAMP_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    STAMP_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Error building a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The deployment contains no nodes.
    Empty,
    /// Two nodes share the same identifier.
    DuplicateId(u64),
    /// An identifier is zero or exceeds `max_id` (IDs live in `[1, N]`).
    IdOutOfRange(u64),
    /// `ids` and `points` have different lengths.
    LengthMismatch {
        /// Number of deployment points.
        points: usize,
        /// Number of identifiers supplied.
        ids: usize,
    },
    /// `powers` and `points` have different lengths.
    PowerLengthMismatch {
        /// Number of deployment points.
        points: usize,
        /// Number of powers supplied.
        powers: usize,
    },
    /// A transmit power is not strictly positive and finite.
    BadPower {
        /// Node index with the offending power.
        node: usize,
        /// The offending value.
        power: f64,
    },
    /// A node position has a coordinate that is not finite.
    NonFinitePosition {
        /// Node index with the offending position.
        node: usize,
        /// The offending position.
        position: Point,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Empty => write!(f, "deployment contains no nodes"),
            NetworkError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
            NetworkError::IdOutOfRange(id) => {
                write!(f, "node id {id} outside the allowed range [1, N]")
            }
            NetworkError::LengthMismatch { points, ids } => {
                write!(f, "{points} points but {ids} ids")
            }
            NetworkError::PowerLengthMismatch { points, powers } => {
                write!(f, "{points} points but {powers} powers")
            }
            NetworkError::BadPower { node, power } => {
                write!(f, "node {node} has power {power}, not positive and finite")
            }
            NetworkError::NonFinitePosition { node, position } => {
                write!(f, "node {node} has non-finite position {position}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// An immutable deployed network: node positions, identifiers in `[1, N]`
/// (the paper's ID space with `N = n^{O(1)}`), SINR parameters, and cached
/// geometric structures (spatial grid, communication graph).
///
/// Nodes are referred to by *index* (`0..n`) internally; messages and
/// transmission schedules use the paper *IDs*. [`Network::id`] and
/// [`Network::index_of`] translate.
#[derive(Debug, Clone)]
pub struct Network {
    points: Vec<Point>,
    ids: Vec<u64>,
    max_id: u64,
    params: SinrParams,
    /// Per-node transmit powers (all equal to `params.power` unless the
    /// builder set heterogeneous ones).
    powers: Vec<f64>,
    /// Cached per-node transmission ranges `(powers[v]/(β·noise))^{1/α}`.
    ranges: Vec<f64>,
    /// Cached [`Network::max_reach`].
    max_reach: f64,
    /// True iff every node transmits at `params.power` (the paper's
    /// uniform-power setting).
    uniform_power: bool,
    grid: Grid,
    comm: Graph,
    id_to_idx: HashMap<u64, usize>, // lint:allow(D1, reason = "id-to-index lookup table; never iterated")
    /// Build stamp: process-globally unique. See [`Network::stamp`].
    stamp: u64,
}

impl Network {
    /// Starts building a network over the given positions.
    pub fn builder(points: Vec<Point>) -> NetworkBuilder {
        NetworkBuilder {
            points,
            ids: None,
            max_id: None,
            params: SinrParams::default(),
            powers: None,
            seed: 0,
        }
    }

    /// Number of nodes `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the network has no nodes (builders reject this, so `false`
    /// for any constructed network).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of node `v` (by index).
    #[inline]
    pub fn pos(&self, v: usize) -> Point {
        self.points[v]
    }

    /// All positions, indexable by node index.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Paper ID of node `v` (in `[1, N]`).
    #[inline]
    pub fn id(&self, v: usize) -> u64 {
        self.ids[v]
    }

    /// All ids, indexable by node index.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Index of the node with paper ID `id`, if present.
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.id_to_idx.get(&id).copied()
    }

    /// The ID-space bound `N` (all IDs are ≤ `N`; schedules are built over
    /// `[N]`).
    pub fn max_id(&self) -> u64 {
        self.max_id
    }

    /// SINR model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// Spatial index over all nodes. Its cell side is the transmission
    /// range, doubled while the grid's cell box exceeds its cap of
    /// `max(4096, 4·n)` cells (never for a deployment that fits in that
    /// many range-sized cells).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The communication graph: edges between nodes at distance ≤
    /// `range·(1−ε)` (paper §1.1).
    pub fn comm_graph(&self) -> &Graph {
        &self.comm
    }

    /// Network density Γ: the largest number of nodes in a unit ball
    /// (radius = transmission range), measured over balls centered at nodes.
    ///
    /// Any unit ball containing `m` nodes yields a node-centered ball of
    /// radius 2 containing those `m` nodes, so node-centered measurements
    /// bound the true density within a constant factor (Fact 1 of the paper
    /// ties density and communication-graph degree the same way).
    pub fn density(&self) -> usize {
        let r = self.params.range();
        (0..self.len())
            .map(|v| self.grid.count_within(&self.points, self.points[v], r))
            .max()
            .unwrap_or(0)
    }

    /// Maximum communication-graph degree ∆.
    pub fn max_degree(&self) -> usize {
        self.comm.max_degree()
    }

    /// Transmit power of node `v`.
    #[inline]
    pub fn power_of(&self, v: usize) -> f64 {
        self.powers[v]
    }

    /// All transmit powers, indexable by node index.
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// True iff every node transmits at the model power `params.power`
    /// (the paper's uniform-power setting). It describes the deployment
    /// only: no resolver branches on it, since every path computes signals
    /// through [`Network::signal_from`]. perfbench's profile reads it.
    #[inline]
    pub fn has_uniform_power(&self) -> bool {
        self.uniform_power
    }

    /// Transmission range of node `v`: `(P_v / (β·noise))^{1/α}`, the
    /// farthest distance at which `v` alone can be decoded, up to
    /// rounding: the rounded `1/α` and `powf` can put the computed range a
    /// few ulps short of the farthest decoder (66 ulps at a power of
    /// 2·10³⁰⁰). [`Network::max_reach`] is the proved bound.
    #[inline]
    pub fn range_of(&self, v: usize) -> f64 {
        self.ranges[v]
    }

    /// A radius that holds every decoder: no listener decodes, in any
    /// round, a transmitter farther than this from it, rounding included.
    /// It is the largest [`Network::range_of`] times `1 + 10⁻⁹`, a margin
    /// whose proof (`REACH_MARGIN` in this module) bounds the rounding of
    /// the ranges, the signals and the distances. Where the proof's
    /// conditions fail (`α ≤ 2`, `β ≤ 1`, `noise ≤ 0`, or a `β·noise` or
    /// `P_v/(β·noise)` that is not a normal float), it is infinite. It is
    /// the radius of the field path's candidate search.
    #[inline]
    pub fn max_reach(&self) -> f64 {
        self.max_reach
    }

    /// Received signal strength of transmitter `w` at distance `d`:
    /// `P_w / d^α`. Bit-identical to [`SinrParams::signal`] when `w`
    /// transmits at the model power.
    #[inline]
    pub fn signal_from(&self, w: usize, d: f64) -> f64 {
        crate::received_signal(self.powers[w], d, self.params.alpha)
    }

    /// Received signal of transmitter `w` at node `u`:
    /// `signal_from(w, d(w, u))`. The one expression every exact SINR sum
    /// evaluates, so a value cached from it equals a fresh evaluation bit
    /// for bit.
    #[inline]
    pub fn signal_between(&self, w: usize, u: usize) -> f64 {
        self.signal_from(w, self.pos(w).dist(self.pos(u)))
    }

    /// An opaque build stamp for cache invalidation: two observations of
    /// the same stamp guarantee the same geometry and powers. Stamps are
    /// drawn from a process-global counter at build and never reissued, so
    /// distinct builds (including fresh builds over identical deployments)
    /// never alias each other's stamps; a clone shares its origin's.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

/// Transmission range for a transmit power under the model parameters.
fn range_for(power: f64, params: &SinrParams) -> f64 {
    (power / (params.beta * params.noise)).powf(1.0 / params.alpha)
}

/// Relative margin of [`Network::max_reach`] over the largest range: every
/// node that can decode transmitter `w` lies within
/// `R = range_of(w)·(1 + REACH_MARGIN)` of it, with `R` and the distance
/// rounded as [`Grid::within`] and the field's candidate scan round them.
///
/// **The proof.** Write `t` for the rounded `β·noise`, `P` for `w`'s
/// power, `q` for the rounded `P/t`, `X = (P/t)^{1/α}` for the exact
/// range, `u = 2⁻⁵³` for the unit roundoff and `ε` for a bound on `powf`'s
/// relative error. The argument needs `ε < 10⁻¹⁰`; glibc and musl document
/// under one ulp, about `2.2·10⁻¹⁶`. It also needs `α > 2` finite,
/// `β > 1`, `noise > 0`, and `t` and `q` normal. [`reach_for`] checks
/// those for every node, and where one fails the reach is infinite.
///
/// 1. A decode needs `s ≥ t`, where `s` is `w`'s signal at the
///    listener. The oracle decodes when `s ≥ β·(noise + (total − s))`,
///    and `total` is the slot-order sum of every transmitter's signal at
///    the listener, `s` among them. Every term is non-negative and rounding is monotone, so the
///    partial sum that adds `s` is at least `s` and no later one falls
///    below it. Hence `total ≥ s`, `total − s ≥ 0`, and the right-hand
///    side is at least `t`. Where `total − s` is NaN the test fails;
///    where it is infinite, `s` must be infinite too.
/// 2. A decoder lies within `X·(1 + ε + u)`. Here `s` is the rounded
///    `P/g`, `g = powf(d′, α)`, `d′ = max(d, 10⁻¹²)` and `d` the rounded
///    distance. Since `t` is normal, `s ≥ t` gives `P/g ≥ t·(1 − u)`. If
///    `g` is normal, `d′^α ≤ g/(1 − ε) ≤ (P/t)/((1 − u)(1 − ε))`, and the
///    `α`-th root, `α > 2`, gives the bound. If `g` is subnormal or zero,
///    `d′^α` lies below the smallest normal up to `powf`'s error, so
///    `d′^α < 2⁻¹⁰²²/(1 − ε) ≤ q/(1 − ε) ≤ (P/t)(1 + u)/(1 − ε)`, because
///    `q` is normal: the same bound.
/// 3. `range_of(w) ≥ X·(1 − ε − 5·10⁻¹⁴)`. It is `powf(q, a)` with
///    `q ≥ (P/t)(1 − u)`, `a` the rounded `1/α`, `|a − 1/α| ≤ u/α` and
///    `|ln q| < 745`. So it is at least
///    `X·(1 − ε)(1 − u)·e^{−745·u/α}`.
/// 4. Together, a decoder has `d ≤ d′ ≤ range_of(w)·(1 + 2ε + 10⁻¹³)`,
///    below `range_of(w)·(1 + 3·10⁻¹⁰)`. Rounding `R`, `R²`, the squared
///    distance and its square root costs a few more units of `u`, far
///    inside the margin of `10⁻⁹`. For the same reason each coordinate of
///    a decoder lies within `R` of `w`'s, so the cell keys of a disk
///    query's walk, which are monotone in the coordinates, reach its cell.
///
/// `max_reach` is at least every node's `R`, so a disk query of that
/// radius around a listener holds every transmitter it can decode. A
/// margin of 0, or a radius one ulp short of the range, drops decoders:
/// `radio`'s `reach_lists_hold_every_decoder_at_the_range` places
/// listeners at the range and up to 72 ulps past it.
const REACH_MARGIN: f64 = 1e-9;

/// [`Network::max_reach`] for these parameters and per-node powers and
/// ranges: the largest range times `1 + REACH_MARGIN` where the margin's
/// proof holds for every node, and infinite where it does not.
fn reach_for(params: &SinrParams, powers: &[f64], ranges: &[f64]) -> f64 {
    let t = params.beta * params.noise;
    let modelled = params.alpha > 2.0
        && params.alpha.is_finite()
        && params.beta > 1.0
        && params.noise > 0.0
        && t.is_normal()
        && powers.iter().all(|&p| (p / t).is_normal());
    if modelled {
        ranges.iter().copied().fold(0.0, f64::max) * (1.0 + REACH_MARGIN)
    } else {
        f64::INFINITY
    }
}

/// Builder for [`Network`] (see [`Network::builder`]).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    points: Vec<Point>,
    ids: Option<Vec<u64>>,
    max_id: Option<u64>,
    params: SinrParams,
    powers: Option<Vec<f64>>,
    seed: u64,
}

impl NetworkBuilder {
    /// Sets SINR parameters (default: [`SinrParams::default`]).
    pub fn params(mut self, params: SinrParams) -> Self {
        self.params = params;
        self
    }

    /// Sets heterogeneous per-node transmit powers (default: every node at
    /// the model power `params.power`). Each power must be strictly
    /// positive and finite.
    pub fn powers(mut self, powers: Vec<f64>) -> Self {
        self.powers = Some(powers);
        self
    }

    /// Sets explicit node IDs (must be distinct, in `[1, max_id]`).
    pub fn ids(mut self, ids: Vec<u64>) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Sets the ID-space bound `N` (default: `max(4, n²)` when IDs are
    /// auto-assigned, or the largest explicit ID). A bound below `n` is
    /// raised to `n`.
    pub fn max_id(mut self, max_id: u64) -> Self {
        self.max_id = Some(max_id);
        self
    }

    /// Seed used when auto-assigning random distinct IDs; `seed = 0` assigns
    /// the deterministic sequence `1..=n` instead.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the deployment is empty, a position is
    /// not finite, IDs are duplicated/out of range, a power is not
    /// positive and finite, or lengths mismatch.
    pub fn build(self) -> Result<Network, NetworkError> {
        let n = self.points.len();
        if n == 0 {
            return Err(NetworkError::Empty);
        }
        let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
        if let Some(node) = self.points.iter().position(|p| !finite(p)) {
            return Err(NetworkError::NonFinitePosition {
                node,
                position: self.points[node],
            });
        }
        let max_id = self.max_id.unwrap_or_else(|| {
            self.ids
                .as_ref()
                .map(|ids| ids.iter().copied().max().unwrap_or(0))
                .unwrap_or((n as u64 * n as u64).max(4))
        });
        // An ID space smaller than n widens to n on every path.
        let id_space = max_id.max(n as u64);
        let ids = match self.ids {
            Some(ids) => {
                if ids.len() != n {
                    return Err(NetworkError::LengthMismatch {
                        points: n,
                        ids: ids.len(),
                    });
                }
                ids
            }
            None if self.seed == 0 => (1..=n as u64).collect(),
            None => {
                let mut rng = crate::rng::Rng64::new(self.seed);
                rng.sample_distinct(id_space, n)
                    .into_iter()
                    .map(|v| v + 1)
                    .collect()
            }
        };
        let mut id_to_idx = HashMap::with_capacity(n); // lint:allow(D1, reason = "id-to-index lookup table; never iterated")
        for (i, &id) in ids.iter().enumerate() {
            if id == 0 || id > id_space {
                return Err(NetworkError::IdOutOfRange(id));
            }
            if id_to_idx.insert(id, i).is_some() {
                return Err(NetworkError::DuplicateId(id));
            }
        }
        let powers = match self.powers {
            Some(powers) => {
                if powers.len() != n {
                    return Err(NetworkError::PowerLengthMismatch {
                        points: n,
                        powers: powers.len(),
                    });
                }
                if let Some(node) = powers.iter().position(|p| !(p.is_finite() && *p > 0.0)) {
                    return Err(NetworkError::BadPower {
                        node,
                        power: powers[node],
                    });
                }
                powers
            }
            None => vec![self.params.power; n],
        };
        let ranges: Vec<f64> = powers.iter().map(|&p| range_for(p, &self.params)).collect();
        let max_reach = reach_for(&self.params, &powers, &ranges);
        let uniform_power = powers.iter().all(|&p| p == self.params.power);
        let range = self.params.range();
        let grid = Grid::build(&self.points, range);
        let eps = self.params.epsilon;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, nbrs) in adj.iter_mut().enumerate() {
            // Edge rule: d² ≤ min(cr_u, cr_v)². The grid query tests
            // d² ≤ cr_v²; comparing squared distances, which are exactly
            // symmetric in u and v, keeps the adjacency lists symmetric.
            let cr_v = ranges[v] * (1.0 - eps);
            for u in grid.within(&self.points, self.points[v], cr_v) {
                let cr_u = ranges[u] * (1.0 - eps);
                if u != v && self.points[u].dist_sq(self.points[v]) <= cr_u * cr_u {
                    nbrs.push(u as u32);
                }
            }
            nbrs.sort_unstable();
        }
        Ok(Network {
            points: self.points,
            ids,
            max_id: id_space,
            params: self.params,
            powers,
            ranges,
            max_reach,
            uniform_power,
            grid,
            comm: Graph::from_adjacency(adj),
            id_to_idx,
            stamp: next_stamp(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n_side: usize, spacing: f64) -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new(i as f64 * spacing, j as f64 * spacing));
            }
        }
        pts
    }

    #[test]
    fn build_assigns_sequential_ids_by_default() {
        let net = Network::builder(square(3, 0.5)).build().unwrap();
        assert_eq!(net.len(), 9);
        assert_eq!(net.id(0), 1);
        assert_eq!(net.id(8), 9);
        assert_eq!(net.index_of(5), Some(4));
        assert_eq!(net.index_of(100), None);
    }

    #[test]
    fn random_ids_are_distinct_and_in_range() {
        let net = Network::builder(square(4, 0.5))
            .seed(99)
            .max_id(1000)
            .build()
            .unwrap();
        let mut ids = net.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
        assert!(ids.iter().all(|&i| (1..=1000).contains(&i)));
    }

    #[test]
    fn comm_graph_uses_one_minus_epsilon_radius() {
        // Two nodes at distance 0.85 with ε=0.2 (comm radius 0.8): no edge,
        // but at 0.75: edge.
        let near = Network::builder(vec![Point::new(0.0, 0.0), Point::new(0.75, 0.0)])
            .build()
            .unwrap();
        assert_eq!(near.comm_graph().degree(0), 1);
        let far = Network::builder(vec![Point::new(0.0, 0.0), Point::new(0.85, 0.0)])
            .build()
            .unwrap();
        assert_eq!(far.comm_graph().degree(0), 0);
    }

    #[test]
    fn density_counts_unit_ball_population() {
        // 5 nodes clustered within 0.1, one far away.
        let mut pts: Vec<Point> = (0..5).map(|i| Point::new(0.01 * i as f64, 0.0)).collect();
        pts.push(Point::new(10.0, 10.0));
        let net = Network::builder(pts).build().unwrap();
        assert_eq!(net.density(), 5);
    }

    #[test]
    fn uniform_power_network_reports_the_model_range() {
        let net = Network::builder(square(3, 0.5)).build().unwrap();
        assert!(net.has_uniform_power());
        let reach = net.params().range() * (1.0 + REACH_MARGIN);
        assert_eq!(net.max_reach(), reach);
        for v in 0..net.len() {
            assert_eq!(net.power_of(v), net.params().power);
            assert!((net.range_of(v) - 1.0).abs() < 1e-12);
            let d = 0.37;
            assert_eq!(net.signal_from(v, d), net.params().signal(d));
        }
    }

    #[test]
    fn comm_edges_require_bidirectional_reach_under_heterogeneous_power() {
        // Node 0 at 8× power (range 2 under α=3) can hear/reach far, but an
        // edge needs BOTH endpoints in range: at distance 0.9 > 0.8 the
        // weak node cannot reach back, so no edge; a weak pair at 0.7 has
        // one.
        let p = SinrParams::default();
        let net = Network::builder(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(0.9, 0.7),
        ])
        .powers(vec![8.0 * p.power, p.power, p.power])
        .params(p)
        .build()
        .unwrap();
        assert!(!net.has_uniform_power());
        assert!((net.range_of(0) - 2.0).abs() < 1e-12);
        assert_eq!(net.max_reach(), net.range_of(0) * (1.0 + REACH_MARGIN));
        assert!(!net.comm_graph().has_edge(0, 1), "weak side out of reach");
        assert!(net.comm_graph().has_edge(1, 2), "symmetric weak pair");
        assert!(net.signal_from(0, 0.5) > net.signal_from(1, 0.5));
    }

    #[test]
    fn max_reach_is_infinite_where_no_margin_is_proved() {
        // α = 2 and β = 1 lie outside the model, and a subnormal power
        // makes P/(β·noise) subnormal.
        let p = SinrParams::default();
        for params in [
            SinrParams { alpha: 2.0, ..p },
            SinrParams { beta: 1.0, ..p },
        ] {
            let net = Network::builder(square(2, 0.5)).params(params).build();
            assert_eq!(net.unwrap().max_reach(), f64::INFINITY);
        }
        let net = Network::builder(square(2, 0.5))
            .powers(vec![p.power, p.power, p.power, 1e-310])
            .build()
            .unwrap();
        assert_eq!(net.max_reach(), f64::INFINITY);
    }

    #[test]
    fn bad_powers_are_rejected() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let err = Network::builder(pts.clone())
            .powers(vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            NetworkError::PowerLengthMismatch {
                points: 2,
                powers: 1
            }
        );
        let err = Network::builder(pts).powers(vec![1.0, -0.5]).build();
        assert!(matches!(err, Err(NetworkError::BadPower { node: 1, .. })));
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let err = Network::builder(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)])
            .ids(vec![3, 3])
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::DuplicateId(3));
    }

    #[test]
    fn non_finite_positions_are_rejected() {
        // `deploy line n=3 spacing=1e308` puts its third node at x = +∞.
        let line = crate::deploy::line(3, 1e308);
        assert_eq!(
            Network::builder(line).build().unwrap_err(),
            NetworkError::NonFinitePosition {
                node: 2,
                position: Point::new(f64::INFINITY, 0.0)
            }
        );
        let nan = vec![Point::new(0.0, 0.0), Point::new(0.5, f64::NAN)];
        let err = Network::builder(nan).build().unwrap_err();
        assert!(matches!(
            err,
            NetworkError::NonFinitePosition { node: 1, .. }
        ));
        assert_eq!(
            err.to_string(),
            "node 1 has non-finite position (0.5000, NaN)"
        );
    }

    #[test]
    fn empty_deployment_is_rejected() {
        assert_eq!(
            Network::builder(vec![]).build().unwrap_err(),
            NetworkError::Empty
        );
    }

    #[test]
    fn stamps_distinguish_builds_and_change_on_mutation() {
        let a = Network::builder(square(3, 0.5)).build().unwrap();
        let b = Network::builder(square(3, 0.5)).build().unwrap();
        assert_ne!(a.stamp(), b.stamp(), "identical builds never alias");
        let clone = a.clone();
        assert_eq!(clone.stamp(), a.stamp(), "a clone shares its stamp");
        let mut moved = square(3, 0.5);
        moved[0] = Point::new(0.1, 0.1);
        let rebuilt = Network::builder(moved).build().unwrap();
        assert!(
            ![a.stamp(), b.stamp()].contains(&rebuilt.stamp()),
            "a build over a moved deployment gets a fresh stamp"
        );
    }

    #[test]
    fn seeded_ids_fit_an_id_space_smaller_than_n() {
        // `max_id` below n widens to n, as it does without a seed.
        let net = Network::builder(square(4, 0.5))
            .max_id(5)
            .seed(4)
            .build()
            .unwrap();
        assert_eq!(net.max_id(), 16);
        let mut ids = net.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_id_is_rejected() {
        let err = Network::builder(vec![Point::new(0.0, 0.0)])
            .ids(vec![0])
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::IdOutOfRange(0));
    }
}
