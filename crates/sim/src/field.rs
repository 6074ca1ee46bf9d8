//! Per-round cell-aggregated interference field.
//!
//! Built once per round from the transmitter set, [`InterferenceField`]
//! lets a SINR resolver decide `signal ≥ β·(noise + interference)` for a
//! receiver **without touching every transmitter**, while returning exactly
//! the decision the full sum would give. Three ingredients, all exact:
//!
//! 1. **Cell-grouped partial sums.** The interference at a receiver `u` is
//!    `I(u) = Σ_C Σ_{w ∈ C} signal(d(w, u))`, grouped by grid cell `C`.
//!    Grouping is a reassociation of a finite sum of non-negative terms —
//!    an exact partial-sum decomposition, not an approximation. The field
//!    accumulates these cell sums ring by ring around `u`'s cell, so after
//!    ring `k` it holds the *exact* interference `I_near` from every
//!    transmitter within Chebyshev cell-distance `k`.
//! 2. **A per-ring residual bound.** A transmitter in Chebyshev ring `j`
//!    around `u`'s cell (its cell index differs by exactly `j` in some
//!    axis) lies at Euclidean distance at least `(j − 1)·cell` from every
//!    point of `u`'s cell, so it sends `u` at most
//!    `w_j = P̂/((j − 1)·cell)^α`, where `P̂` is the field's power cap
//!    (= the uniform `P` in the paper's setting). With `count_j`
//!    interferers in ring `j`, the far field beyond ring `k` lies in
//!    `[0, Σ_{j>k} count_j · w_j]`. The field keeps a summed-area table of
//!    transmitter counts over the grid's cell table, which covers the box
//!    of all points, so each `count_j` is four table reads. The expansion
//!    stops at a ring cap `k_cap` (past it one exact `O(|T|)` sum is
//!    cheaper than scanning the block), so rings past `k_cap + 1` are
//!    counted as ring `k_cap + 2`. A grid without a table (a cell box past
//!    its cap) knows no ring counts and puts every interferer beyond ring
//!    `k` in ring `k + 1`: the bound is then `far · P̂/(k·cell)^α`, with
//!    `far` the number of interferers outside the block.
//! 3. **Monotone decisions.** The reception test accepts iff
//!    `s1 ≥ β·(noise + I)` with `I = I_near + I_far`. Since
//!    `I ≥ I_near`, failing the test already at `I_near` is a definitive
//!    *reject*; since `I ≤ I_near + residual`, passing the test at
//!    `I_near + residual` is a definitive *accept*. Only when the true
//!    threshold lies strictly inside the residual interval does the field
//!    fall back to the oracle's own test: every transmitter's signal, the
//!    sender's included, summed in slot order, and Eq. (1) checked by the
//!    same function the oracle calls. Either way the outcome equals the
//!    naive resolver's on every receiver.
//!
//! The expected per-receiver cost is `O(occupied cells near u)` for the
//! ring sums plus one pass over at most `k_cap + 1` ring counts, which
//! yields the residual of every ring the decision may reach. Weighting
//! each ring by its own distance lets an accept land at the first ring
//! whose neighbours leave room under the threshold, instead of waiting
//! until `k·cell` is large enough to cover every far transmitter at once.
//! The exact fallback costs `O(|T|)` but fires only on near-threshold
//! receivers (measure-zero in random deployments, rare in structured
//! ones).
//!
//! **Floating-point caveat.** The argument above is exact in real
//! arithmetic. A fallback decides exactly as the oracle does, bit for bit:
//! the same signals ([`Network::signal_from`]), the same sum order and the
//! same comparison. The ring reject, the tail accept and the exhausted
//! test use field arithmetic instead: cell sums in ring order, then
//! insertion order within a cell. In `f64` a different summation order
//! can change the last ulp, so a listener whose SINR equals β *to within
//! summation rounding* can still be decided differently there than by the
//! oracle (as can the resolver's second-strongest short-circuit). Every
//! order is deterministic, so runs stay byte-identical, and the fixed-seed
//! equivalence suites and the `scale_resolvers` CI gate pin the instances
//! on which agreement is enforced. The aggregated resolver consults the
//! field only above `radio::EXACT_MAX_TX` transmitters; smaller rounds run
//! the oracle's own routine and carry no such caveat.

use crate::grid::Grid;
use crate::network::Network;
use crate::point::Point;
use crate::radio::decodes;

/// Counters describing how an [`InterferenceField`] resolved its queries
/// (diagnostics for the resolver statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldStats {
    /// Queries decided by the ring expansion + residual bound alone.
    pub residual_decided: u64,
    /// Queries that consumed every transmitter during expansion (exact by
    /// exhaustion; includes tiny rounds where everything is nearby).
    pub exhausted: u64,
    /// Queries that fell back to the oracle's full sum.
    pub exact_fallbacks: u64,
    /// Signals the queries summed: ring-sum terms, plus `|T|` per
    /// fallback.
    pub field_terms: u64,
}

/// A per-round interference summary over the transmitter set. See the
/// module docs for the exactness argument.
///
/// Every signal the field sums is [`Network::signal_from`] at the
/// transmitter's distance, each transmitter at its own power. Under
/// **heterogeneous power** the far-field residual bound uses a per-field
/// **power cap** (the largest transmitter power) in place of the uniform
/// `P`, which is still a valid upper bound, so decisions stay exact.
#[derive(Debug)]
pub struct InterferenceField {
    grid: Grid,
    /// Transmitter indices in slot order, which the fallback sums in, as
    /// the oracle does.
    tx: Vec<u32>,
    /// The last ring the expansion scans before the exact fallback: the
    /// first `k ≥ 1` whose `(2k+1)²` block has at least four times as
    /// many cells as the grid has occupied ones, past which scanning the
    /// block stops paying for itself against one `O(|T|)` sum.
    k_cap: i64,
    /// `weights[g] = P̂/(g·cell)^α` for `g ≤ k_cap + 1`: the most any
    /// transmitter of ring `g + 1` sends a listener.
    weights: Vec<f64>,
    /// Transmitter counts per block, `None` when the grid has no table.
    counts: Option<CountTable>,
    /// Scratch of [`InterferenceField::decide`]: `tails[k]` bounds the
    /// interference from the interferers outside ring `k`.
    tails: Vec<f64>,
}

impl InterferenceField {
    /// Builds the field for one round of `net`: a subset grid over
    /// `transmitters` (cell side = the model's transmission range), its
    /// block counts and the per-ring weights.
    pub fn build(net: &Network, transmitters: &[usize]) -> Self {
        let p = net.params();
        let cell = p.range();
        let grid = Grid::build_subset(net.points(), transmitters, cell);
        let occupied = grid.occupied_cells() as i64;
        let mut k_cap = 1i64;
        while (2 * k_cap + 1) * (2 * k_cap + 1) < 4 * occupied && k_cap < (1 << 20) {
            k_cap += 1;
        }
        let power_cap = transmitters
            .iter()
            .map(|&t| net.power_of(t))
            .fold(0.0, f64::max);
        let weights = (0..=k_cap + 1)
            .map(|g| power_cap / (g as f64 * cell).max(1e-12).powf(p.alpha))
            .collect();
        Self {
            counts: CountTable::build(&grid),
            grid,
            tx: transmitters.iter().map(|&t| t as u32).collect(),
            k_cap,
            weights,
            tails: vec![0.0; k_cap as usize + 2],
        }
    }

    /// The transmitter-subset grid (shared with the candidate scan).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Decides whether a listener at `u` decodes `sender`, whose signal
    /// `s1` at `u` the caller already knows: whether `s1 ≥ β·(noise + I)`,
    /// with `I` the interference of every other transmitter. Counts how it
    /// was decided in `stats`. Exact — see module docs.
    pub fn decide(
        &mut self,
        net: &Network,
        u: Point,
        sender: usize,
        s1: f64,
        stats: &mut FieldStats,
    ) -> bool {
        let p = net.params();
        let key = self.grid.key_of(u);
        let (ucx, ucy) = key;
        // Interferers = all transmitters but the sender.
        let interferers = self.tx.len() - 1;
        let mut i_near = 0.0f64; // exact, cell-grouped partial sums
        let mut near_count = 0usize;
        // `tails[k]` is filled for every ring `k < tails_end`.
        let mut tails_end = 0i64;
        for k in 0..=self.k_cap {
            // Accumulate the exact cell sums of ring k.
            for (cx, cy) in ring_cells(ucx, ucy, k) {
                for &w in self.grid.cell_members((cx, cy)) {
                    let w = w as usize;
                    if w == sender {
                        continue;
                    }
                    i_near += net.signal_from(w, net.pos(w).dist(u));
                    near_count += 1;
                }
            }
            // Reject: the true interference is at least `i_near`.
            if s1 < p.beta * (p.noise + i_near) {
                stats.residual_decided += 1;
                stats.field_terms += near_count as u64;
                return false;
            }
            // Exhausted: every interferer is accounted for — exact test.
            if near_count == interferers {
                stats.exhausted += 1;
                stats.field_terms += near_count as u64;
                return s1 >= p.beta * (p.noise + i_near);
            }
            // Accept: even the residual upper bound cannot push the
            // interference past the threshold.
            if k >= 1 {
                if k >= tails_end {
                    let sender_key = self.grid.key_of(net.pos(sender));
                    tails_end = self.fill_tails(key, sender_key, k, near_count, interferers) + 1;
                }
                if s1 >= p.beta * (p.noise + i_near + self.tails[k as usize]) {
                    stats.residual_decided += 1;
                    stats.field_terms += near_count as u64;
                    return true;
                }
            }
        }
        // Exact fallback: the oracle's own test. Every transmitter's
        // signal, the sender's included, summed in slot order.
        stats.exact_fallbacks += 1;
        stats.field_terms += (near_count + self.tx.len()) as u64;
        let total: f64 = self
            .tx
            .iter()
            .map(|&w| w as usize)
            .map(|w| net.signal_from(w, net.pos(w).dist(u)))
            .sum();
        decodes(p, s1, total)
    }

    /// Fills `tails[k..=m]` for a listener in cell `key` whose scan has
    /// found `near` interferers up to ring `k`, and returns `m`, the last
    /// ring whose interferer count is known: from the count table up to
    /// ring `k_cap + 1` (or the ring that covers the table box, if
    /// nearer), only ring `k` itself without a table. Every interferer
    /// beyond ring `m` counts as one of ring `m + 1`. The sums run from
    /// ring `m` inwards, so each `tails[j]` adds non-negative terms only.
    fn fill_tails(
        &mut self,
        key: (i64, i64),
        sender_key: (i64, i64),
        k: i64,
        near: usize,
        interferers: usize,
    ) -> i64 {
        let sender_ring = (sender_key.0 - key.0)
            .abs()
            .max((sender_key.1 - key.1).abs());
        let table = self.counts.as_ref();
        let m = table.map_or(k, |t| t.last_ring(key).min(self.k_cap + 1).max(k));
        // Interferers within ring j ≥ k.
        let within = |j: i64| match table {
            Some(t) if j > k => t.block(key, j) - usize::from(sender_ring <= j),
            _ => near,
        };
        debug_assert!(
            table.is_none_or(|t| t.block(key, k) - usize::from(sender_ring <= k) == near),
            "the ring scan and the count table disagree"
        );
        let mut inner = within(m);
        let mut tail = (interferers - inner) as f64 * self.weights[m as usize];
        self.tails[m as usize] = tail;
        for j in (k..m).rev() {
            let w = within(j);
            // The interferers of ring j + 1 lie at least j cells away.
            tail += (inner - w) as f64 * self.weights[j as usize];
            self.tails[j as usize] = tail;
            inner = w;
        }
        m
    }
}

/// A summed-area table of transmitter counts over a grid's table box:
/// the number of transmitters in any block of cells in four reads.
#[derive(Debug)]
struct CountTable {
    /// Smallest x and y cell keys of the box.
    origin: (i64, i64),
    /// Box extent in cells along x and y.
    width: usize,
    height: usize,
    /// `sums[x·(height + 1) + y]` counts the transmitters in the box cells
    /// whose local coordinates are below `(x, y)`.
    sums: Vec<u32>,
}

impl CountTable {
    /// The table over `grid`'s table box, `None` when it has none.
    fn build(grid: &Grid) -> Option<Self> {
        let (origin, width, height) = grid.table_box()?;
        let stride = height + 1;
        let mut sums = vec![0u32; (width + 1) * stride];
        let mut counts = grid.table_counts();
        for x in 0..width {
            let mut column = 0u32;
            for (y, count) in counts.by_ref().take(height).enumerate() {
                column += count as u32;
                sums[(x + 1) * stride + y + 1] = sums[x * stride + y + 1] + column;
            }
        }
        Some(Self {
            origin,
            width,
            height,
            sums,
        })
    }

    /// The ring around cell `key` whose block first covers the whole box.
    fn last_ring(&self, (cx, cy): (i64, i64)) -> i64 {
        let (ox, oy) = self.origin;
        let (ex, ey) = (ox + self.width as i64 - 1, oy + self.height as i64 - 1);
        (cx - ox).max(ex - cx).max(cy - oy).max(ey - cy)
    }

    /// Transmitters within Chebyshev cell distance `j` of cell `key`.
    /// Keys are clamped to ±2⁶¹ and `j` stays below 2²¹, so the offsets
    /// cannot overflow.
    fn block(&self, (cx, cy): (i64, i64), j: i64) -> usize {
        // Box-local half-open range of the block along one axis, clipped.
        let clip = |c: i64, o: i64, len: usize| {
            let len = len as i64;
            (
                (c - j - o).clamp(0, len) as usize,
                (c + j + 1 - o).clamp(0, len) as usize,
            )
        };
        let (x0, x1) = clip(cx, self.origin.0, self.width);
        let (y0, y1) = clip(cy, self.origin.1, self.height);
        let s = |x: usize, y: usize| self.sums[x * (self.height + 1) + y] as usize;
        s(x1, y1) + s(x0, y0) - s(x0, y1) - s(x1, y0)
    }
}

/// Cell keys at Chebyshev distance exactly `k` from `(cx, cy)` (the single
/// center cell for `k = 0`). Allocation-free: this runs inside every
/// `decide` query.
fn ring_cells(cx: i64, cy: i64, k: i64) -> impl Iterator<Item = (i64, i64)> {
    let center = (k == 0).then_some((cx, cy));
    let edges = (k > 0).then(|| {
        let top_bottom = (-k..=k).flat_map(move |dx| [(cx + dx, cy - k), (cx + dx, cy + k)]);
        let sides = (-k + 1..k).flat_map(move |dy| [(cx - k, cy + dy), (cx + k, cy + dy)]);
        top_bottom.chain(sides)
    });
    center.into_iter().chain(edges.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::SinrParams;

    #[test]
    fn ring_cells_tile_the_block_exactly_once() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..=3 {
            for c in ring_cells(5, -2, k) {
                assert!(seen.insert(c), "cell {c:?} visited twice");
                assert_eq!(
                    (c.0 - 5).abs().max((c.1 + 2).abs()),
                    k,
                    "cell {c:?} not on ring {k}"
                );
            }
        }
        assert_eq!(seen.len(), 7 * 7, "rings 0..=3 must tile the 7x7 block");
    }

    fn net_of(pts: Vec<Point>, powers: Vec<f64>) -> Network {
        Network::builder(pts).powers(powers).build().unwrap()
    }

    /// Holds `decide` to Eq. (1) summed fresh, for every transmitter at
    /// every listener of the round.
    fn assert_decide_matches_full_sum(net: &Network, tx: &[usize], trial: usize) {
        let p = net.params();
        let mut field = InterferenceField::build(net, tx);
        let mut stats = FieldStats::default();
        for u in (0..net.len()).filter(|u| !tx.contains(u)) {
            for &v in tx {
                let s1 = net.signal_between(v, u);
                let full: f64 = tx
                    .iter()
                    .filter(|&&w| w != v)
                    .map(|&w| net.signal_between(w, u))
                    .sum();
                let want = s1 >= p.beta * (p.noise + full);
                let got = field.decide(net, net.pos(u), v, s1, &mut stats);
                assert_eq!(got, want, "trial {trial}: receiver {u}, sender {v}");
            }
        }
    }

    #[test]
    fn decide_matches_full_sum_on_random_rounds() {
        let params = SinrParams::default();
        let mut rng = Rng64::new(31);
        for trial in 0..40 {
            let n = 30 + trial * 5;
            let side = 6.0;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
                .collect();
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.3)).collect();
            if tx.is_empty() {
                continue;
            }
            let net = net_of(pts, vec![params.power; n]);
            assert_decide_matches_full_sum(&net, &tx, trial);
        }
    }

    #[test]
    fn decide_matches_full_sum_under_heterogeneous_power() {
        let params = SinrParams::default();
        let mut rng = Rng64::new(77);
        for trial in 0..25 {
            let n = 25 + trial * 6;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 5.0), rng.range_f64(0.0, 5.0)))
                .collect();
            let powers: Vec<f64> = (0..n)
                .map(|_| params.power * (0.5 + 4.0 * rng.next_f64()))
                .collect();
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.3)).collect();
            if tx.is_empty() {
                continue;
            }
            assert_decide_matches_full_sum(&net_of(pts, powers), &tx, trial);
        }
    }

    /// Checks the residual `decide` would use at every ring `k ≥ 1` for a
    /// listener at `u` decoding `sender`: at least the interference from
    /// the transmitters outside the `(2k+1)²` block, summed fresh; at most
    /// the lumped `far · P̂/(k·cell)^α`, and equal to it bit for bit when
    /// the grid has no table.
    fn assert_tails_bound_the_far_field(
        field: &mut InterferenceField,
        net: &Network,
        tx: &[usize],
        u: Point,
        sender: usize,
    ) {
        let lumped_only = field.counts.is_none();
        let grid = field.grid();
        let cell = grid.cell_size();
        let alpha = net.params().alpha;
        let key = grid.key_of(u);
        let ring_of = |w: usize| {
            let (cx, cy) = grid.key_of(net.pos(w));
            (cx - key.0).abs().max((cy - key.1).abs())
        };
        let rings: Vec<i64> = tx.iter().map(|&w| ring_of(w)).collect();
        let sender_key = grid.key_of(net.pos(sender));
        let power_cap = tx.iter().map(|&w| net.power_of(w)).fold(0.0, f64::max);
        let interferers = tx.len() - 1;
        let near = |k: i64| {
            tx.iter()
                .zip(&rings)
                .filter(|&(&w, &r)| w != sender && r <= k)
                .count()
        };
        let mut tails_end = 0;
        for k in 1..=field.k_cap {
            let near_count = near(k);
            if near_count == interferers {
                break; // `decide` stops here: the block holds everyone
            }
            if k >= tails_end {
                tails_end = field.fill_tails(key, sender_key, k, near_count, interferers) + 1;
            }
            let tail = field.tails[k as usize];
            let fresh: f64 = tx
                .iter()
                .zip(&rings)
                .filter(|&(&w, &r)| w != sender && r > k)
                .map(|(&w, _)| net.signal_from(w, net.pos(w).dist(u)))
                .sum();
            let far = (interferers - near_count) as f64;
            let lumped = far * (power_cap / (k as f64 * cell).max(1e-12).powf(alpha));
            let at = format!("listener {u:?}, sender {sender}, ring {k}");
            assert!(
                tail >= fresh,
                "{at}: tail {tail:e} below the far field {fresh:e}"
            );
            assert!(
                tail <= lumped,
                "{at}: tail {tail:e} above the lumped {lumped:e}"
            );
            if lumped_only {
                assert_eq!(tail.to_bits(), lumped.to_bits(), "{at}: no table, no rings");
            }
        }
    }

    /// A listener on an edge or a corner of a random cell of the
    /// `side × side` box (cell side 1): one coordinate on a cell edge, the
    /// other on an edge too or anywhere in the cell.
    fn edge_listener(side: usize, rng: &mut Rng64) -> Point {
        let mut coord = |edge_only: bool| {
            let c = rng.range_usize(side) as f64;
            match rng.range_usize(if edge_only { 2 } else { 3 }) {
                0 => c,
                1 => (c + 1.0).next_down(),
                _ => c + rng.next_f64(),
            }
        };
        let (edge, any) = (coord(true), coord(false));
        if rng.chance(0.5) {
            Point::new(edge, any)
        } else {
            Point::new(any, edge)
        }
    }

    #[test]
    fn per_ring_tails_bound_the_far_field() {
        let params = SinrParams::default();
        assert_eq!(params.range(), 1.0, "cell edges sit on integers");
        let mut rng = Rng64::new(1917);
        for trial in 0..36 {
            let side = 12 + trial % 7;
            let n = 400 + 20 * trial;
            // Uniform, clumped (tight groups of eight), and uniform under
            // heterogeneous power, in turn.
            let shape = trial % 3;
            let mut pts = Vec::with_capacity(n);
            let mut anchor = Point::ORIGIN;
            for i in 0..n {
                if shape == 1 {
                    if i % 8 == 0 {
                        let inner = side as f64 - 0.5;
                        anchor = Point::new(rng.range_f64(0.5, inner), rng.range_f64(0.5, inner));
                    }
                    pts.push(Point::new(
                        anchor.x + rng.range_f64(-0.3, 0.3),
                        anchor.y + rng.range_f64(-0.3, 0.3),
                    ));
                } else {
                    let side = side as f64;
                    pts.push(Point::new(
                        rng.range_f64(0.0, side),
                        rng.range_f64(0.0, side),
                    ));
                }
            }
            let mut powers: Vec<f64> = (0..n)
                .map(|_| match shape {
                    2 => params.power * (1.0 + 7.0 * rng.next_f64()),
                    _ => params.power,
                })
                .collect();
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.3)).collect();
            // The same round past the table cap: two far-off listeners
            // stretch the box to ~10¹⁴ cells.
            let narrow = net_of(pts.clone(), powers.clone());
            pts.extend([Point::new(-1e7, -1e7), Point::new(1e7, 1e7)]);
            powers.extend([params.power; 2]);
            let wide = net_of(pts, powers);
            for (net, tabulated) in [(&narrow, true), (&wide, false)] {
                let mut field = InterferenceField::build(net, &tx);
                assert_eq!(field.counts.is_some(), tabulated, "trial {trial}");
                for _ in 0..40 {
                    let u = edge_listener(side, &mut rng);
                    let sender = tx[rng.range_usize(tx.len())];
                    assert_tails_bound_the_far_field(&mut field, net, &tx, u, sender);
                }
            }
        }
    }

    #[test]
    fn stats_count_every_query() {
        let params = SinrParams::default();
        let uniform = |pts: Vec<Point>| net_of(pts, vec![params.power; 3]);
        let net = uniform(vec![
            Point::new(0.0, 0.0),
            Point::new(0.2, 0.0),
            Point::new(9.0, 9.0),
        ]);
        let mut field = InterferenceField::build(&net, &[0, 2]);
        let s1 = net.signal_between(0, 1);
        let mut st = FieldStats::default();
        let _ = field.decide(&net, net.pos(1), 0, s1, &mut st);
        assert_eq!(
            st.residual_decided + st.exhausted + st.exact_fallbacks,
            1,
            "every query ends in exactly one bucket"
        );
        // An inconclusive query: a listener at (0.5, 0.5), its sender one
        // cell to the left with signal 2.2 (β·noise = 2), one interferer
        // five cells to the right sending 2/5³. Two occupied cells put the
        // ring cap at 1, and ring 1's residual (the interferer counted at
        // ring 2: 0.25) cannot accept, so the oracle's full sum decides.
        let d = (params.power / 2.2).powf(1.0 / params.alpha);
        let net = uniform(vec![
            Point::new(0.5 - d, 0.5),
            Point::new(5.5, 0.5),
            Point::new(0.5, 0.5),
        ]);
        let mut field = InterferenceField::build(&net, &[0, 1]);
        assert_eq!(field.k_cap, 1);
        let s1 = net.signal_between(0, 2);
        let mut st = FieldStats::default();
        assert!(field.decide(&net, net.pos(2), 0, s1, &mut st));
        let want = FieldStats {
            exact_fallbacks: 1,
            field_terms: 2,
            ..FieldStats::default()
        };
        assert_eq!(
            st, want,
            "one fallback: no ring terms, then both transmitters summed"
        );
    }
}
