//! Cover-free families via Reed–Solomon codes.
//!
//! A family of sets `S_1, …, S_m` over a ground set is **d-cover-free** if
//! no `S_i` is contained in the union of any `d` others. Classical use
//! (Linial): one-round distributed color reduction — a node with color `c`
//! and ≤ `d` differently-colored neighbors picks an element of `S_c` not in
//! any neighbor's set; such an element exists by cover-freeness and the new
//! colors of adjacent nodes stay distinct. Iterating shrinks `m` colors to
//! `O((d·log m / log d)²)` per step, reaching a fixed point of `O(d²)`
//! colors in `O(log* m)` steps — our stand-in for the cited
//! Schneider–Wattenhofer `log*`-MIS machinery (paper §4.1, \[34\]).

use crate::primes::next_prime;

/// A `(d,1)`-cover-free family over ground set `[q²]` whose sets are the
/// graphs of degree-≤`t` polynomials over `GF(q)` (`q > d·t` prime).
///
/// `S_f = {(i, f(i)) : i ∈ [q]}` encoded as `i·q + f(i)`; two distinct
/// polynomials agree on ≤ `t` points, so `d` other sets cover ≤ `d·t < q`
/// of `S_f`'s `q` elements.
///
/// ```
/// use dcluster_selectors::CoverFreeFamily;
/// let cff = CoverFreeFamily::for_colors(1000, 4);
/// let fresh = cff.select_free(42, &[7, 13, 99]).unwrap();
/// assert!(fresh < cff.ground_size());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverFreeFamily {
    q: u64,
    t: u32,
    n_colors: u64,
}

impl CoverFreeFamily {
    /// Builds the smallest such family with at least `n_colors` sets and
    /// cover-freeness parameter `d`.
    ///
    /// # Panics
    ///
    /// Panics if `n_colors == 0` or `d == 0`.
    pub fn for_colors(n_colors: u64, d: usize) -> Self {
        assert!(n_colors > 0 && d > 0, "CFF requires n_colors ≥ 1 and d ≥ 1");
        let mut t = 1u32;
        loop {
            let q = next_prime(d as u64 * t as u64 + 1);
            let mut cover = 1u128;
            let mut enough = false;
            for _ in 0..=t {
                cover = cover.saturating_mul(q as u128);
                if cover >= n_colors as u128 {
                    enough = true;
                    break;
                }
            }
            if enough {
                return Self { q, t, n_colors };
            }
            t += 1;
        }
    }

    /// Ground-set size `q²` — the number of colors after one reduction.
    pub fn ground_size(&self) -> u64 {
        self.q * self.q
    }

    /// Field size `q`.
    pub fn field_size(&self) -> u64 {
        self.q
    }

    /// Number of colors this family supports.
    pub fn n_colors(&self) -> u64 {
        self.n_colors
    }

    #[inline]
    fn eval(&self, color: u64, x: u64) -> u64 {
        let q = self.q;
        let mut digits = [0u64; 64];
        let mut m = 0usize;
        let mut v = color;
        loop {
            digits[m] = v % q;
            m += 1;
            v /= q;
            if v == 0 {
                break;
            }
        }
        let mut acc = 0u64;
        for d in digits[..m].iter().rev() {
            acc = (acc * x + d) % q;
        }
        acc
    }

    /// The elements of `S_color` (exactly `q` of them).
    pub fn set_of(&self, color: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.q).map(move |i| i * self.q + self.eval(color, i))
    }

    /// Picks an element of `S_own` outside `⋃ S_neighbor` — the Linial
    /// reduction step. Returns `None` if `own` appears among `neighbors`
    /// (improper input coloring) or if more than `d·t` collisions exhaust
    /// the set (cannot happen for ≤ `d = ⌊(q−1)/t⌋` distinct neighbors).
    pub fn select_free(&self, own: u64, neighbors: &[u64]) -> Option<u64> {
        if neighbors.contains(&own) {
            return None;
        }
        'point: for i in 0..self.q {
            let mine = self.eval(own, i);
            for &nb in neighbors {
                if self.eval(nb, i) == mine {
                    continue 'point;
                }
            }
            return Some(i * self.q + mine);
        }
        None
    }
}

/// Iterated Linial reduction fixed point: the number of colors at which
/// further reductions stop shrinking the palette, for max degree `d`.
pub fn linial_fixed_point(d: usize) -> u64 {
    let q = next_prime(d as u64 + 1);
    q * q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_satisfy_cover_freeness_precondition() {
        for &(m, d) in &[(100u64, 3usize), (10_000, 5), (1 << 30, 8)] {
            let c = CoverFreeFamily::for_colors(m, d);
            assert!(c.field_size() > (d as u64) * u64::from(c.t), "q > d·t");
        }
    }

    #[test]
    fn sets_have_q_elements_in_ground() {
        let c = CoverFreeFamily::for_colors(500, 3);
        for color in [0u64, 1, 42, 499] {
            let s: Vec<u64> = c.set_of(color).collect();
            assert_eq!(s.len(), c.field_size() as usize);
            assert!(s.iter().all(|&e| e < c.ground_size()));
        }
    }

    #[test]
    fn distinct_colors_intersect_in_at_most_t_points() {
        let c = CoverFreeFamily::for_colors(1000, 4);
        let sa: std::collections::HashSet<u64> = c.set_of(123).collect();
        for other in [0u64, 7, 999, 500] {
            if other == 123 {
                continue;
            }
            let inter = c.set_of(other).filter(|e| sa.contains(e)).count();
            assert!(
                inter <= c.t as usize,
                "|S_123 ∩ S_{other}| = {inter} > t = {}",
                c.t
            );
        }
    }

    #[test]
    fn select_free_avoids_all_neighbor_sets() {
        let c = CoverFreeFamily::for_colors(10_000, 6);
        let neighbors = [3u64, 77, 1234, 9876, 42, 8];
        let own = 5555u64;
        let fresh = c.select_free(own, &neighbors).expect("capacity suffices");
        assert!(c.set_of(own).any(|e| e == fresh));
        for &nb in &neighbors {
            assert!(c.set_of(nb).all(|e| e != fresh), "fresh color in S_{nb}");
        }
    }

    #[test]
    fn select_free_rejects_improper_input() {
        let c = CoverFreeFamily::for_colors(100, 3);
        assert_eq!(c.select_free(5, &[1, 5]), None);
    }

    #[test]
    fn new_colors_of_adjacent_nodes_differ() {
        // The key invariant of the Linial step.
        let c = CoverFreeFamily::for_colors(5000, 4);
        let (cu, cv) = (100u64, 200u64);
        let fu = c.select_free(cu, &[cv, 300, 400]).unwrap();
        let fv = c.select_free(cv, &[cu, 300, 400]).unwrap();
        assert_ne!(fu, fv, "fu ∈ S_cu \\ S_cv while fv ∈ S_cv");
    }

    #[test]
    fn fixed_point_is_small_and_stable() {
        for d in 1..10usize {
            let fp = linial_fixed_point(d);
            let c = CoverFreeFamily::for_colors(fp, d);
            assert!(
                c.ground_size() <= fp,
                "reduction from the fixed point must not grow"
            );
        }
    }
}
