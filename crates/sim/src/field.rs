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
//! 2. **A global residual bound.** Transmitters beyond ring `k` sit in
//!    cells whose every point is at Euclidean distance `> k·cell` from `u`
//!    (their cell index differs by more than `k` in some axis, and `u` lies
//!    inside its own cell). With `far = |T| − near_count` of them, the
//!    far-field interference lies in `[0, far · P̂/(k·cell)^α]` where `P̂`
//!    is the field's power cap (= the uniform `P` in the paper's setting)
//!    — a single O(1) residual computed from the per-cell occupancy
//!    aggregates.
//! 3. **Monotone decisions.** The reception test accepts iff
//!    `s1 ≥ β·(noise + I)` with `I = I_near + I_far`. Since
//!    `I ≥ I_near`, failing the test already at `I_near` is a definitive
//!    *reject*; since `I ≤ I_near + residual`, passing the test at
//!    `I_near + residual` is a definitive *accept*. Only when the true
//!    threshold lies strictly inside the residual interval does the field
//!    fall back to the exact far sum — and then the decision is the full
//!    sum's decision by construction. Either way the outcome equals the
//!    naive resolver's on every receiver.
//!
//! The expected per-receiver cost is `O(occupied cells near u)` plus the
//! O(1) residual check; the exact fallback costs `O(|T|)` but fires only
//! on near-threshold receivers (measure-zero in random deployments, rare
//! in structured ones).
//!
//! **Floating-point caveat.** The argument above is exact in real
//! arithmetic. In `f64`, summing the same terms in a different order can
//! change the last ulp, so an instance whose SINR equals the threshold
//! *to within summation rounding* could in principle be decided
//! differently here (ring/cell order) than by the naive oracle
//! (transmitter order). Such ties have measure zero in the deployments the
//! suites generate, and every summation order used here is itself
//! deterministic (rings, then insertion order within a cell, then caller
//! order in the fallback), so runs are always byte-identical; the
//! fixed-seed equivalence suites and the `scale_resolvers` CI gate pin the
//! instances on which agreement is actually enforced. The aggregated
//! resolver consults the field only above `radio::EXACT_MAX_TX`
//! transmitters; smaller rounds run the oracle's own routine and carry no
//! such caveat.

use crate::grid::Grid;
use crate::point::Point;
use crate::SinrParams;

/// Counters describing how an [`InterferenceField`] resolved its queries
/// (diagnostics for the resolver statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldStats {
    /// Queries decided by the ring expansion + residual bound alone.
    pub residual_decided: u64,
    /// Queries that consumed every transmitter during expansion (exact by
    /// exhaustion; includes tiny rounds where everything is nearby).
    pub exhausted: u64,
    /// Queries that fell back to the exact far-field sum.
    pub exact_fallbacks: u64,
}

/// A per-round interference summary over the transmitter set. See the
/// module docs for the exactness argument.
///
/// Under **heterogeneous power** the cell sums use each transmitter's own
/// power (`powers` is threaded through [`InterferenceField::build`] and
/// [`InterferenceField::decide`]), and the far-field residual bound uses a
/// per-field **power cap** (the largest transmitter power) in place
/// of the uniform `P` — still a valid upper bound, so decisions stay
/// exact. With uniform power every formula is bit-identical to the classic
/// path.
#[derive(Debug)]
pub struct InterferenceField {
    grid: Grid,
    /// Transmitter indices in caller order — the exact fallback iterates
    /// this (not the grid's cells) so its summation order, and with it
    /// every last-ulp rounding decision, is the oracle's transmitter order.
    tx: Vec<u32>,
    /// The largest transmitter power; drives the far-field residual.
    power_cap: f64,
}

impl InterferenceField {
    /// Builds the field for one round: a subset grid over `transmitters`
    /// (cell side = transmission range) plus its occupancy aggregates.
    /// `powers` is the full per-node power array (uniform deployments pass
    /// `network.powers()`, which is all `params.power`).
    pub fn build(points: &[Point], powers: &[f64], transmitters: &[usize], cell: f64) -> Self {
        Self {
            grid: Grid::build_subset(points, transmitters, cell),
            tx: transmitters.iter().map(|&t| t as u32).collect(),
            power_cap: transmitters.iter().map(|&t| powers[t]).fold(0.0, f64::max),
        }
    }

    /// The transmitter-subset grid (shared with nearest-sender queries).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Decides whether a candidate reception survives the full SINR test:
    /// returns `s1 ≥ β·(noise + I)` where `I` is the total interference at
    /// `u` over all transmitters except `sender` (whose signal `s1` at `u`
    /// the caller already knows), and counts how it was decided in
    /// `stats`. Exact — see module docs.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        points: &[Point],
        powers: &[f64],
        params: &SinrParams,
        u: Point,
        sender: usize,
        s1: f64,
        stats: &mut FieldStats,
    ) -> bool {
        let cell = self.grid.cell_size();
        let (ucx, ucy) = self.grid.key_of(u);
        // Per-transmitter signal `P_w / d^α` — bit-identical to
        // `params.signal` when `powers[w]` is the model power.
        let alpha = params.alpha;
        let sig = |w: usize, d: f64| powers[w] / d.max(1e-12).powf(alpha);
        // Interferers = all transmitters but the sender.
        let interferers = self.tx.len() - 1;
        let mut i_near = 0.0f64; // exact, cell-grouped partial sums
        let mut near_count = 0usize;
        // Ring expansion. Cap the ring radius once scanning the (2k+1)²
        // block stops paying for itself against |occupied cells|; past the
        // cap the exact fallback costs one O(|T|) sum.
        let occupied = self.grid.occupied_cells();
        let k_cap = {
            let mut k = 1i64;
            while (2 * k + 1) * (2 * k + 1) < 4 * occupied as i64 && k < (1 << 20) {
                k += 1;
            }
            k
        };
        for k in 0i64.. {
            // Accumulate the exact cell sums of ring k.
            for (cx, cy) in ring_cells(ucx, ucy, k) {
                for &w in self.grid.cell_members((cx, cy)) {
                    let w = w as usize;
                    if w == sender {
                        continue;
                    }
                    i_near += sig(w, points[w].dist(u));
                    near_count += 1;
                }
            }
            // Reject: the true interference is at least `i_near`.
            if s1 < params.beta * (params.noise + i_near) {
                stats.residual_decided += 1;
                return false;
            }
            // Exhausted: every interferer is accounted for — exact test.
            if near_count == interferers {
                stats.exhausted += 1;
                return s1 >= params.beta * (params.noise + i_near);
            }
            // Accept: even the residual upper bound cannot push the
            // interference past the threshold. Everything beyond ring k is
            // farther than k·cell from u, and no stored transmitter
            // exceeds the power cap.
            if k >= 1 {
                let far = (interferers - near_count) as f64;
                let kc = (k as f64 * cell).max(1e-12);
                let residual = far * (self.power_cap / kc.powf(alpha));
                if s1 >= params.beta * (params.noise + i_near + residual) {
                    stats.residual_decided += 1;
                    return true;
                }
            }
            if k >= k_cap {
                break;
            }
        }
        // Exact fallback: add the far field transmitter by transmitter, in
        // caller order (not cell order — iteration order decides last-ulp
        // rounding, and it must not depend on the grid's layout).
        // Transmitters inside the scanned block are already in `i_near`.
        // Cell keys are clamped to ±2⁶¹, so the differences cannot
        // overflow.
        stats.exact_fallbacks += 1;
        let mut i_total = i_near;
        for &w in &self.tx {
            let w = w as usize;
            if w == sender {
                continue;
            }
            let (cx, cy) = self.grid.key_of(points[w]);
            if (cx - ucx).abs() <= k_cap && (cy - ucy).abs() <= k_cap {
                continue; // already in i_near
            }
            i_total += sig(w, points[w].dist(u));
        }
        s1 >= params.beta * (params.noise + i_total)
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

    fn uniform_powers(n: usize, params: &SinrParams) -> Vec<f64> {
        vec![params.power; n]
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
            let powers = uniform_powers(n, &params);
            let field = InterferenceField::build(&pts, &powers, &tx, params.range());
            let mut stats = FieldStats::default();
            for u in 0..n {
                if tx.contains(&u) {
                    continue;
                }
                for &v in &tx {
                    let s1 = params.signal(pts[v].dist(pts[u]));
                    let full: f64 = tx
                        .iter()
                        .filter(|&&w| w != v)
                        .map(|&w| params.signal(pts[w].dist(pts[u])))
                        .sum();
                    let want = s1 >= params.beta * (params.noise + full);
                    let got = field.decide(&pts, &powers, &params, pts[u], v, s1, &mut stats);
                    assert_eq!(got, want, "trial {trial}: receiver {u}, sender {v}");
                }
            }
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
            let sig = |w: usize, d: f64| powers[w] / d.max(1e-12).powf(params.alpha);
            let field = InterferenceField::build(&pts, &powers, &tx, params.range());
            let mut stats = FieldStats::default();
            for u in 0..n {
                if tx.contains(&u) {
                    continue;
                }
                for &v in &tx {
                    let s1 = sig(v, pts[v].dist(pts[u]));
                    let full: f64 = tx
                        .iter()
                        .filter(|&&w| w != v)
                        .map(|&w| sig(w, pts[w].dist(pts[u])))
                        .sum();
                    let want = s1 >= params.beta * (params.noise + full);
                    let got = field.decide(&pts, &powers, &params, pts[u], v, s1, &mut stats);
                    assert_eq!(got, want, "trial {trial}: receiver {u}, sender {v}");
                }
            }
        }
    }

    #[test]
    fn stats_count_every_query() {
        let params = SinrParams::default();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.2, 0.0),
            Point::new(9.0, 9.0),
        ];
        let tx = vec![0, 2];
        let powers = uniform_powers(3, &params);
        let field = InterferenceField::build(&pts, &powers, &tx, params.range());
        let s1 = params.signal(pts[0].dist(pts[1]));
        let mut st = FieldStats::default();
        let _ = field.decide(&pts, &powers, &params, pts[1], 0, s1, &mut st);
        assert_eq!(
            st.residual_decided + st.exhausted + st.exact_fallbacks,
            1,
            "every query ends in exactly one bucket"
        );
    }
}
