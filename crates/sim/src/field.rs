//! Per-round cell-aggregated interference field.
//!
//! Rebuilt in place from the transmitter set of every round it serves, the
//! interference field lets a SINR resolver decide
//! `signal ≥ β·(noise + interference)` for a receiver **without touching
//! every transmitter**, while returning exactly the decision the full sum
//! would give. Three ingredients, all exact:
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
//!    transmitter counts over the network grid's cell box, which covers
//!    every node, so each `count_j` is four table reads. The expansion
//!    stops at a ring cap `k_cap` (past it one exact `O(|T|)` sum is
//!    cheaper than scanning the block), so rings past `k_cap + 1` are
//!    counted as ring `k_cap + 2`.
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
//! **Layout.** The round's transmitters sit in one array sorted over the
//! network grid's cell box by the grid's own counting sort
//! (`CellSorted`): x-major like the grid's members and in slot order
//! within a cell. Each entry carries the node index, the position and the
//! power, so a signal reads nothing else. The buffers persist across
//! rounds and only their contents are rebuilt, so a round allocates
//! nothing once they have grown. A listener's candidate scan reads each
//! column of its query box, clipped to the box, as one contiguous run of
//! the array, and a decision's ring walk reads its cells through the same
//! column lookup, skipping those outside the box, which hold no
//! transmitter.
//!
//! **Cost.** A decision costs one visit per cell of the rings it scans
//! (an empty cell is two offset reads) plus one pass over at most
//! `k_cap + 1` ring counts, which yields the residual of every ring the
//! decision may reach. Weighting each ring by its own distance lets an
//! accept land at the first ring whose neighbours leave room under the
//! threshold, instead of waiting until `k·cell` is large enough to cover
//! every far transmitter at once. That pass depends on the listener's
//! cell alone whenever the sender lies within ring 1, so the resolver
//! visits listeners cell by cell and the field makes it once per cell. The
//! exact fallback costs `O(|T|)` but fires only on near-threshold
//! receivers (measure-zero in random deployments, rare in structured
//! ones).
//!
//! **Floating-point caveat.** The argument above is exact in real
//! arithmetic. A fallback decides exactly as the oracle does, bit for bit:
//! the same signals ([`Network::signal_from`]'s expression), the same sum
//! order and the same comparison. The ring reject, the tail accept and the
//! exhausted test use field arithmetic instead: cell sums in ring order,
//! then slot order within a cell. In `f64` a different summation order
//! can change the last ulp, so a listener whose SINR equals β *to within
//! summation rounding* can still be decided differently there than by the
//! oracle (as can the resolver's second-strongest short-circuit). Every
//! order is deterministic, so runs stay byte-identical, and the fixed-seed
//! equivalence suites and the `scale_resolvers` CI gate pin the instances
//! on which agreement is enforced. The aggregated resolver consults the
//! field only above `radio::EXACT_MAX_TX` transmitters; smaller rounds run
//! the oracle's own routine and carry no such caveat.

use crate::grid::{CellSorted, Grid};
use crate::network::Network;
use crate::point::Point;
use crate::radio::decodes;
use crate::{received_signal, SinrParams};

/// Counters describing how an [`InterferenceField`] resolved its queries
/// (diagnostics for the resolver statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FieldStats {
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

/// One transmitter of the round, with what its signal needs inline.
#[derive(Debug, Clone, Copy, Default)]
struct Tx {
    pos: Point,
    power: f64,
    node: u32,
}

impl Tx {
    /// Its signal at `u`: [`Network::signal_from`] at their distance, bit
    /// for bit.
    #[inline]
    fn signal_at(&self, u: Point, alpha: f64) -> f64 {
        received_signal(self.power, self.pos.dist(u), alpha)
    }
}

/// The strongest signal a listener receives and the strongest of the
/// rest, over the transmitters within [`Network::max_reach`] of it: a
/// transmitter's range holds its decoders only up to rounding, and that
/// radius is the proved bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// The strongest signal's transmitter (node index) and its position.
    pub node: u32,
    pos: Point,
    /// The strongest signal.
    pub s1: f64,
    /// The second-strongest signal, `0.0` when a single transmitter is
    /// within the search radius.
    pub s2: f64,
}

/// A per-round interference summary over the transmitter set. See the
/// module docs for the exactness argument.
///
/// Every signal the field sums is [`Network::signal_from`]'s expression at
/// the transmitter's distance, each transmitter at its own power. Under
/// **heterogeneous power** the far-field residual bound uses a per-field
/// **power cap** (the largest transmitter power) in place of the uniform
/// `P`, which is still a valid upper bound, so decisions stay exact.
#[derive(Debug, Default)]
pub(crate) struct InterferenceField {
    /// Cell side (the network grid's: the model's transmission range,
    /// doubled while the grid's box exceeds its cap) and path-loss
    /// exponent of the round's network.
    cell: f64,
    alpha: f64,
    /// The round's transmitters in slot order, which the fallback sums
    /// in, as the oracle does.
    slots: Vec<Tx>,
    /// The same transmitters sorted by cell, with where each cell's lie.
    cells: Cells,
    /// The last ring the expansion scans before the exact fallback: the
    /// first `k ≥ 1` whose `(2k+1)²` block has at least four times as
    /// many cells as the round has occupied ones, past which scanning the
    /// block stops paying for itself against one `O(|T|)` sum.
    k_cap: i64,
    /// `weights[g] = P̂/(g·cell)^α` for `g ≤ k_cap + 1`: the most any
    /// transmitter of ring `g + 1` sends a listener.
    weights: Vec<f64>,
    /// Scratch of [`InterferenceField::fill_tails`]: `tails[k]` bounds the
    /// interference from the interferers outside ring `k`.
    tails: Vec<f64>,
    /// The tails of listener cell `cell_key`, filled by the first of its
    /// decisions that may share them, valid for the rings below
    /// `cell_tails_end`; `None` until then in each round.
    cell_key: Option<(i64, i64)>,
    cell_tails: Vec<f64>,
    cell_tails_end: i64,
}

impl InterferenceField {
    /// Rebuilds the field in place for one round of `net`: the
    /// transmitters sorted over the network grid's cells, their block
    /// counts and the per-ring weights.
    pub(crate) fn rebuild(&mut self, net: &Network, transmitters: &[usize]) {
        let grid = net.grid();
        self.cell = grid.cell_size();
        self.alpha = net.params().alpha;
        self.slots.clear();
        self.slots.extend(transmitters.iter().map(|&t| Tx {
            pos: net.pos(t),
            power: net.power_of(t),
            node: t as u32,
        }));
        let occupied = self.cells.rebuild(grid, &self.slots) as i64;
        let mut k_cap = 1i64;
        while (2 * k_cap + 1) * (2 * k_cap + 1) < 4 * occupied && k_cap < (1 << 20) {
            k_cap += 1;
        }
        self.k_cap = k_cap;
        let power_cap = self.slots.iter().map(|t| t.power).fold(0.0, f64::max);
        self.weights.clear();
        self.weights.extend(
            (0..=k_cap + 1).map(|g| received_signal(power_cap, g as f64 * self.cell, self.alpha)),
        );
        self.tails.resize(k_cap as usize + 2, 0.0);
        self.cell_key = None;
    }

    /// The strongest and second-strongest signals at a listener at `at`,
    /// over the transmitters within distance `r` of it, or `None` when
    /// none is. The resolver passes [`Network::max_reach`], which holds
    /// every transmitter the listener can decode; the largest range holds
    /// them only up to rounding. Cells come in [`Grid::within`]'s order
    /// (x outer, y inner, clipped to the box) and transmitters in slot
    /// order within a cell.
    /// Ties keep the first-scanned transmitter: the scan order is
    /// deterministic, and tied top signals can never be decoded anyway
    /// (`β > 1`).
    pub(crate) fn strongest_two(&self, at: Point, r: f64) -> Option<Candidate> {
        let r_sq = r * r;
        let mut best: Option<(&Tx, f64)> = None;
        let mut second = 0.0f64;
        for run in self.cells.sorted.disk(at, r) {
            for w in run {
                if w.pos.dist_sq(at) > r_sq {
                    continue;
                }
                let s = w.signal_at(at, self.alpha);
                match best {
                    None => best = Some((w, s)),
                    Some((_, bs)) if s > bs => {
                        second = bs;
                        best = Some((w, s));
                    }
                    Some(_) => second = second.max(s),
                }
            }
        }
        best.map(|(w, s1)| Candidate {
            node: w.node,
            pos: w.pos,
            s1,
            s2: second,
        })
    }

    /// Decides whether a listener at `u` decodes `sender` (received at
    /// `sender.s1`): whether `s1 ≥ β·(noise + I)`, with `I` the
    /// interference of every other transmitter. Counts how it was decided
    /// in `stats`. Exact — see module docs.
    ///
    /// **Shared tails.** The first tails a decision needs are filled at
    /// ring 1, and one fill covers every ring the decision can reach. At
    /// that fill, `within(j)` (the interferers within ring `j`) equals `block(key, j) − 1` for every `j ≥ 1`
    /// whenever the sender lies within ring 1: the sender is in every
    /// block from ring 1 on, and the ring-1 scan has found `block(key, 1)
    /// − 1` interferers. The tails are then a function of the listener's
    /// cell alone, so the field fills them once per cell and every such
    /// decision in the cell reads them. Under uniform power the candidate
    /// lies within one cell side of the listener times `1 + 10⁻⁹` (the
    /// search radius, [`Network::max_reach`]), hence almost always within
    /// ring 1; the condition is checked per decision all the same, and a
    /// decision whose sender lies farther (heterogeneous power) fills its
    /// own. Debug builds refill the tails
    /// of every sharing decision and assert that they equal the shared
    /// ones bit for bit.
    pub(crate) fn decide(
        &mut self,
        p: &SinrParams,
        u: Point,
        sender: &Candidate,
        stats: &mut FieldStats,
    ) -> bool {
        let s1 = sender.s1;
        let alpha = self.alpha;
        let key = self.cells.key(&u);
        // Interferers = all transmitters but the sender.
        let interferers = self.slots.len() - 1;
        let mut i_near = 0.0f64; // exact, cell-grouped partial sums
        let mut near_count = 0usize;
        // The tails this decision reads are filled for every ring
        // `k < tails_end`; `shared` when they are its cell's.
        let mut tails_end = 0i64;
        let mut shared = false;
        for k in 0..=self.k_cap {
            // Accumulate the exact cell sums of ring k.
            self.cells.for_each_on_ring(key, k, |w| {
                if w.node != sender.node {
                    i_near += w.signal_at(u, alpha);
                    near_count += 1;
                }
            });
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
                    let sender_key = self.cells.key(&sender.pos);
                    shared = k == 1 && ring_of(sender_key, key) <= 1;
                    tails_end = if shared {
                        self.share_tails(key, sender_key, near_count, interferers)
                    } else {
                        self.fill_tails(key, sender_key, k, near_count, interferers) + 1
                    };
                }
                let tail = if shared {
                    self.cell_tails[k as usize]
                } else {
                    self.tails[k as usize]
                };
                if s1 >= p.beta * (p.noise + i_near + tail) {
                    stats.residual_decided += 1;
                    stats.field_terms += near_count as u64;
                    return true;
                }
            }
        }
        // Exact fallback: the oracle's own test. Every transmitter's
        // signal, the sender's included, summed in slot order.
        stats.exact_fallbacks += 1;
        stats.field_terms += (near_count + self.slots.len()) as u64;
        let total: f64 = self.slots.iter().map(|w| w.signal_at(u, alpha)).sum();
        decodes(p, s1, total)
    }

    /// The shared tails of listener cell `key` for a decision at ring 1
    /// whose sender lies within ring 1 (see [`InterferenceField::decide`]):
    /// filled by the cell's first such decision, then reused. Returns the
    /// end of the rings they cover.
    fn share_tails(
        &mut self,
        key: (i64, i64),
        sender_key: (i64, i64),
        near: usize,
        interferers: usize,
    ) -> i64 {
        if self.cell_key != Some(key) {
            self.cell_tails_end = self.fill_tails(key, sender_key, 1, near, interferers) + 1;
            self.cell_tails.clone_from(&self.tails);
            self.cell_key = Some(key);
        } else if cfg!(debug_assertions) {
            let end = self.fill_tails(key, sender_key, 1, near, interferers) + 1;
            let rings = 1..end as usize;
            debug_assert!(
                end == self.cell_tails_end
                    && self.tails[rings.clone()]
                        .iter()
                        .zip(&self.cell_tails[rings])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "the shared tails of cell {key:?} differ from a fresh fill"
            );
        }
        self.cell_tails_end
    }

    /// Fills `tails[k..=m]` for a listener in cell `key` whose scan has
    /// found `near` interferers up to ring `k`, and returns `m`, the last
    /// ring whose interferer count the count table gives: ring `k_cap + 1`,
    /// or the ring that covers the cell box if nearer (and at least `k`).
    /// Every interferer beyond ring `m` counts as one of ring `m + 1`. The
    /// sums run from ring `m` inwards, so each `tails[j]` adds non-negative
    /// terms only.
    fn fill_tails(
        &mut self,
        key: (i64, i64),
        sender_key: (i64, i64),
        k: i64,
        near: usize,
        interferers: usize,
    ) -> i64 {
        let sender_ring = ring_of(sender_key, key);
        let cells = &self.cells;
        let m = cells.last_ring(key).min(self.k_cap + 1).max(k);
        // Interferers within ring j ≥ k.
        let within = |j: i64| cells.block(key, j) - usize::from(sender_ring <= j);
        debug_assert!(
            within(k) == near,
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

/// Chebyshev distance between two cells: the ring of `a` around `b`.
fn ring_of(a: (i64, i64), b: (i64, i64)) -> i64 {
    (a.0 - b.0).abs().max((a.1 - b.1).abs())
}

/// The round's transmitters sorted over the network grid's cell box, and
/// a summed-area table that counts the transmitters of any block.
#[derive(Debug, Default)]
struct Cells {
    /// The transmitters, x-major by cell, slot order within a cell.
    sorted: CellSorted<Tx>,
    /// `sums[x·(height + 1) + y]` counts the transmitters in the box cells
    /// whose box-local coordinates are below `(x, y)`.
    sums: Vec<u32>,
}

impl Cells {
    /// Sorts `slots` (the round's transmitters in slot order) over the
    /// cells of `grid`, whose box covers every node, counts them per
    /// block, and returns the number of occupied cells.
    fn rebuild(&mut self, grid: &Grid, slots: &[Tx]) -> usize {
        let occupied = self
            .sorted
            .sort(grid.area(), slots.iter().copied(), |t| t.pos);
        let (width, height) = (self.sorted.area().width, self.sorted.area().height);
        let stride = height + 1;
        self.sums.clear();
        self.sums.resize((width + 1) * stride, 0);
        for x in 0..width {
            let mut column = 0u32;
            for y in 0..height {
                column += self.sorted.cell(x * height + y).len() as u32;
                self.sums[(x + 1) * stride + y + 1] = self.sums[x * stride + y + 1] + column;
            }
        }
        occupied
    }

    /// Cell key of `p` in the box's tiling.
    #[inline]
    fn key(&self, p: &Point) -> (i64, i64) {
        self.sorted.area().key(p)
    }

    /// Calls `visit` on every transmitter of the cells at Chebyshev
    /// distance exactly `k` from cell `(x, y)`: rows `y − k` and `y + k`
    /// interleaved by x, then columns `x − k` and `x + k` interleaved by y
    /// (the single cell itself for `k = 0`), in slot order within a cell.
    /// The cells outside the box hold no transmitter and are skipped.
    fn for_each_on_ring(&self, (x, y): (i64, i64), k: i64, mut visit: impl FnMut(&Tx)) {
        let sorted = &self.sorted;
        let mut cell = |cx: i64, cy: i64| sorted.column(cx, cy, cy).iter().for_each(&mut visit);
        if k == 0 {
            return cell(x, y);
        }
        let ((ox, oy), (ex, ey)) = (sorted.area().origin, sorted.area().last());
        for cx in (x - k).max(ox)..=(x + k).min(ex) {
            cell(cx, y - k);
            cell(cx, y + k);
        }
        for cy in (y - k + 1).max(oy)..=(y + k - 1).min(ey) {
            cell(x - k, cy);
            cell(x + k, cy);
        }
    }

    /// Transmitters within Chebyshev cell distance `j` of cell `key`,
    /// read from the summed-area table. Keys are clamped to ±2⁶¹ and `j`
    /// stays below 2²¹, so the offsets cannot overflow.
    fn block(&self, (cx, cy): (i64, i64), j: i64) -> usize {
        let area = self.sorted.area();
        // Box-local half-open range of the block along one axis, clipped.
        let clip = |c: i64, o: i64, len: usize| {
            let len = len as i64;
            (
                (c - j - o).clamp(0, len) as usize,
                (c + j + 1 - o).clamp(0, len) as usize,
            )
        };
        let (x0, x1) = clip(cx, area.origin.0, area.width);
        let (y0, y1) = clip(cy, area.origin.1, area.height);
        let s = |x: usize, y: usize| self.sums[x * (area.height + 1) + y] as usize;
        s(x1, y1) + s(x0, y0) - s(x0, y1) - s(x1, y0)
    }

    /// The ring around cell `(cx, cy)` whose block first covers the box.
    fn last_ring(&self, (cx, cy): (i64, i64)) -> i64 {
        let ((ox, oy), (ex, ey)) = (self.sorted.area().origin, self.sorted.area().last());
        (cx - ox).max(ex - cx).max(cy - oy).max(ey - cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn net_of(pts: Vec<Point>, powers: Vec<f64>) -> Network {
        Network::builder(pts).powers(powers).build().unwrap()
    }

    fn built(net: &Network, tx: &[usize]) -> InterferenceField {
        let mut field = InterferenceField::default();
        field.rebuild(net, tx);
        field
    }

    /// The decision candidate for `sender` at node `u`.
    fn candidate(net: &Network, sender: usize, u: usize) -> Candidate {
        Candidate {
            node: sender as u32,
            pos: net.pos(sender),
            s1: net.signal_between(sender, u),
            s2: 0.0,
        }
    }

    /// Cell keys at Chebyshev distance exactly `k` from `(cx, cy)` (the
    /// single center cell for `k = 0`): the center, then rows `cy − k` and
    /// `cy + k` interleaved by x, then columns `cx − k` and `cx + k`
    /// interleaved by y. The reference order of the ring walk.
    fn ring_cells(cx: i64, cy: i64, k: i64) -> impl Iterator<Item = (i64, i64)> {
        let center = (k == 0).then_some((cx, cy));
        let edges = (k > 0).then(|| {
            let top_bottom = (-k..=k).flat_map(move |dx| [(cx + dx, cy - k), (cx + dx, cy + k)]);
            let sides = (-k + 1..k).flat_map(move |dy| [(cx - k, cy + dy), (cx + k, cy + dy)]);
            top_bottom.chain(sides)
        });
        center.into_iter().chain(edges.into_iter().flatten())
    }

    #[test]
    fn ring_cells_tile_the_block_exactly_once() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..=3 {
            for c in ring_cells(5, -2, k) {
                assert!(seen.insert(c), "cell {c:?} visited twice");
                assert_eq!(ring_of(c, (5, -2)), k, "cell {c:?} not on ring {k}");
            }
        }
        assert_eq!(seen.len(), 7 * 7, "rings 0..=3 must tile the 7x7 block");
        // The ring walk visits the transmitters of `ring_cells` in its
        // order, slot order within a cell: one transmitter per cell of a
        // 6 × 4 box at cell side 1. Centres at the box's corners, on its
        // edges, inside and outside it. The same layout plus two far-off
        // silent nodes stretches the box past the cap, so its cells grow
        // to side 2¹⁹ and hold all 24 transmitters in one cell.
        let (w, h) = (6, 4);
        let pts: Vec<Point> = (0..w * h)
            .map(|i| Point::new((i / h) as f64 + 0.5, (i % h) as f64 + 0.5))
            .collect();
        let mut spread = pts.clone();
        spread.extend([Point::new(-1e7, -1e7), Point::new(1e7, 1e7)]);
        let tx: Vec<usize> = (0..w * h).collect();
        for (pts, cell) in [(pts, 1.0), (spread, 524_288.0)] {
            let n = pts.len();
            let net = net_of(pts, vec![2.0; n]);
            let field = built(&net, &tx);
            assert_eq!(field.cell, cell);
            let key = |v: usize| field.cells.key(&net.pos(v));
            let centres = [(0, 0), (5, 3), (0, 3), (5, 0), (2, 0), (0, 2), (3, 1)];
            for centre in centres.into_iter().chain([(-2, 1), (8, 5), (3, -4)]) {
                for k in 0..=9 {
                    let mut walked = Vec::new();
                    field
                        .cells
                        .for_each_on_ring(centre, k, |t| walked.push(t.node as usize));
                    let want: Vec<usize> = ring_cells(centre.0, centre.1, k)
                        .flat_map(|c| tx.iter().copied().filter(move |&v| key(v) == c))
                        .collect();
                    assert_eq!(walked, want, "centre {centre:?}, ring {k}, cell {cell}");
                }
            }
        }
    }

    /// Holds `decide` to Eq. (1) summed fresh, for every transmitter at
    /// every listener of the round.
    fn assert_decide_matches_full_sum(net: &Network, tx: &[usize], trial: usize) {
        let p = net.params();
        let mut field = built(net, tx);
        let mut stats = FieldStats::default();
        for u in (0..net.len()).filter(|u| !tx.contains(u)) {
            for &v in tx {
                let c = candidate(net, v, u);
                let full: f64 = tx
                    .iter()
                    .filter(|&&w| w != v)
                    .map(|&w| net.signal_between(w, u))
                    .sum();
                let want = c.s1 >= p.beta * (p.noise + full);
                let got = field.decide(p, net.pos(u), &c, &mut stats);
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

    #[test]
    fn one_listener_cell_mixes_shared_and_own_tails() {
        // A 12 × 12 box of silent nodes (one per cell) and, around the
        // listener cell (5, 5), transmitters at the model power: one in the
        // cell, one in ring 1 and eight in ring 4. A transmitter at 1000×
        // the power (range 10) sits in ring 3. Three listeners of cell
        // (5, 5) decide in turn: the ring-0 sender (the cell's tails are
        // filled and accept), the ring-3 sender (its own tails, since it
        // lies beyond ring 1) and the ring-1 sender (the cell's tails
        // again, and they accept). Each decision must match the full sum.
        let p = SinrParams::default();
        let mut pts: Vec<Point> = (0..144)
            .map(|i| Point::new((i / 12) as f64 + 0.9, (i % 12) as f64 + 0.9))
            .collect();
        let mut powers = vec![p.power; 144];
        let mut add = |at: Point, power: f64| {
            pts.push(at);
            powers.push(power);
            pts.len() - 1
        };
        let near = add(Point::new(5.1, 5.5), p.power);
        let ring1 = add(Point::new(6.05, 5.5), p.power);
        let strong = add(Point::new(8.5, 5.5), 1000.0 * p.power);
        let mut tx = vec![near, ring1, strong];
        for (dx, dy) in [
            (-4, -4),
            (0, -4),
            (4, -4),
            (-4, 0),
            (4, 0),
            (-4, 4),
            (0, 4),
            (4, 4),
        ] {
            tx.push(add(Point::new(5.5 + dx as f64, 5.5 + dy as f64), p.power));
        }
        let decisions = [
            (add(Point::new(5.2, 5.5), p.power), near, true),
            (add(Point::new(5.5, 5.95), p.power), strong, false),
            (add(Point::new(5.96, 5.5), p.power), ring1, true),
        ];
        let net = net_of(pts, powers);
        assert!(
            net.range_of(strong) > 9.0,
            "the strong sender reaches past ring 1"
        );
        let mut field = built(&net, &tx);
        assert_eq!(field.cell, 1.0, "cells of the model range");
        let mut stats = FieldStats::default();
        let key = (5, 5);
        for (step, (u, v, shared)) in decisions.into_iter().enumerate() {
            assert_eq!(field.cells.key(&net.pos(u)), key);
            let c = candidate(&net, v, u);
            let full: f64 = tx
                .iter()
                .filter(|&&w| w != v)
                .map(|&w| net.signal_between(w, u))
                .sum();
            let want = c.s1 >= p.beta * (p.noise + full);
            let before = stats;
            let got = field.decide(&p, net.pos(u), &c, &mut stats);
            assert_eq!(got, want, "step {step}: listener {u}, sender {v}");
            assert_eq!(field.cell_key, Some(key), "step {step}: the cell's tails");
            if shared {
                // An accept is a tail accept.
                let accepted = got && stats.residual_decided > before.residual_decided;
                assert!(accepted, "step {step}: the shared tails accept");
            } else {
                // Its own tails take the sender out of the blocks from
                // ring 3 on only: one more interferer within ring 2 than
                // the shared ones assume, so a lower tail at ring 1.
                let (own, cell) = (field.tails[1], field.cell_tails[1]);
                assert!(own < cell, "step {step}: own tail {own:e}, cell's {cell:e}");
            }
        }
    }

    /// Checks the residual `decide` would use at every ring `k ≥ 1` for a
    /// listener at `u` decoding `sender`: at least the interference from
    /// the transmitters outside the `(2k+1)²` block, summed fresh; at most
    /// the lumped `far · P̂/(k·cell)^α`.
    fn assert_tails_bound_the_far_field(
        field: &mut InterferenceField,
        net: &Network,
        tx: &[usize],
        u: Point,
        sender: usize,
    ) {
        let cell = field.cell;
        let alpha = net.params().alpha;
        let key = field.cells.key(&u);
        let ring_of_node = |w: usize| ring_of(field.cells.key(&net.pos(w)), key);
        let rings: Vec<i64> = tx.iter().map(|&w| ring_of_node(w)).collect();
        let sender_key = field.cells.key(&net.pos(sender));
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
            // The same round past the cap: two far-off listeners stretch
            // the box to ~10¹⁴ cells at side 1, so the cells grow to 2¹⁹.
            let narrow = net_of(pts.clone(), powers.clone());
            pts.extend([Point::new(-1e7, -1e7), Point::new(1e7, 1e7)]);
            powers.extend([params.power; 2]);
            let wide = net_of(pts, powers);
            for (net, cell) in [(&narrow, 1.0), (&wide, 524_288.0)] {
                let mut field = built(net, &tx);
                assert_eq!(field.cell, cell, "trial {trial}");
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
        let mut field = built(&net, &[0, 2]);
        let mut st = FieldStats::default();
        let _ = field.decide(&params, net.pos(1), &candidate(&net, 0, 1), &mut st);
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
        let mut field = built(&net, &[0, 1]);
        assert_eq!(field.k_cap, 1);
        let mut st = FieldStats::default();
        assert!(field.decide(&params, net.pos(2), &candidate(&net, 0, 2), &mut st));
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
