//! Strongly-selective families — `(N, k)`-ssf (§3.1).
//!
//! A family `S = (S_1, …, S_m)` of subsets of `[N]` is an `(N,k)`-ssf if for
//! every `X ⊆ [N]` with `|X| ≤ k` and every `x ∈ X`, some `S_i` *selects*
//! `x` from `X`, i.e. `S_i ∩ X = {x}`. Optimal size is `O(k² log(N/k))`
//! (Clementi–Monti–Silvestri); explicit constructions pay an extra log.

use crate::primes::next_prime;
use crate::{HashRound, Schedule};

/// Explicit Reed–Solomon `(N,k)`-ssf of size `q²` with
/// `q = O(k·log N / log k)` — the classical polynomial construction.
///
/// IDs are encoded as degree-`t` polynomials over `GF(q)` (their base-`q`
/// digits); round `(i, a)` schedules exactly the IDs whose polynomial takes
/// value `a` at point `i`. Two distinct IDs collide on at most `t` points,
/// so with `q > k·t` every member of a `k`-set has a collision-free
/// evaluation point — the selection property.
///
/// ```
/// use dcluster_selectors::{RsSsf, Schedule, verify};
/// let ssf = RsSsf::new(100, 3);
/// assert!(verify::is_ssf_for(&ssf, &[5, 17, 42]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsSsf {
    q: u64,
    t: u32,
    n_univ: u64,
    k: usize,
}

impl RsSsf {
    /// Builds the family for universe `[1, n_univ]` and set-size bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n_univ == 0` or `k == 0`.
    pub fn new(n_univ: u64, k: usize) -> Self {
        assert!(
            n_univ > 0 && k > 0,
            "RsSsf requires a nonempty universe and k ≥ 1"
        );
        // Find the smallest (t, q): q prime, q > k·t, q^{t+1} > n_univ.
        let mut t = 1u32;
        loop {
            let q = next_prime((k as u64 * t as u64) + 1);
            // Does q^{t+1} cover the universe?
            let mut cover = 1u128;
            let mut enough = false;
            for _ in 0..=t {
                cover = cover.saturating_mul(q as u128);
                if cover > n_univ as u128 {
                    enough = true;
                    break;
                }
            }
            if enough {
                return Self { q, t, n_univ, k };
            }
            t += 1;
        }
    }

    /// Field size `q` (the family has `q²` rounds).
    pub fn field_size(&self) -> u64 {
        self.q
    }

    /// Polynomial degree bound `t`.
    pub fn degree(&self) -> u32 {
        self.t
    }

    /// Evaluates the polynomial encoding `id` at point `x` over `GF(q)`.
    #[inline]
    fn eval(&self, id: u64, x: u64) -> u64 {
        // Horner over the base-q digits of id (most significant first).
        let q = self.q;
        let mut digits = [0u64; 64];
        let mut m = 0usize;
        let mut v = id;
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
}

impl Schedule for RsSsf {
    fn len(&self) -> u64 {
        self.q * self.q
    }

    fn contains(&self, round: u64, id: u64) -> bool {
        debug_assert!(round < self.len());
        let i = round / self.q;
        let a = round % self.q;
        self.eval(id, i) == a
    }
}

/// Seeded randomized `(N,k)`-ssf of the optimal `O(k² log N)` size.
///
/// Each round includes each ID independently with probability `1/k`
/// (computed by hashing — O(1) membership, zero storage). A fixed seed
/// makes the family a concrete deterministic schedule shared by all nodes;
/// the probability that a given length fails the ssf property is bounded in
/// [`RandomSsf::recommended_len`]'s derivation and checked empirically by
/// [`crate::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSsf {
    seed: u64,
    len: u64,
    k: usize,
}

impl RandomSsf {
    /// Creates a family with an explicit number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `len == 0`.
    pub fn with_len(seed: u64, k: usize, len: u64) -> Self {
        assert!(k > 0 && len > 0, "RandomSsf requires k ≥ 1 and len ≥ 1");
        Self { seed, len, k }
    }

    /// Creates a family of [`RandomSsf::recommended_len`] rounds, scaled by
    /// `factor` (the experiments' schedule-length knob; `factor = 1` is the
    /// w.h.p.-correct theory length).
    pub fn new(seed: u64, n_univ: u64, k: usize, factor: f64) -> Self {
        let len = ((Self::recommended_len(n_univ, k) as f64 * factor).ceil() as u64).max(1);
        Self::with_len(seed, k, len)
    }

    /// Theory length: a round selects a fixed `x` from a fixed `k`-set with
    /// probability `(1/k)(1−1/k)^{k−1} ≥ 1/(e·k)`; union-bounding over the
    /// ≤ `N^k·k` (set, element) pairs needs `m = 3·e·k²·ln(N+1)` rounds
    /// (constant 3 absorbs slack), i.e. the optimal `O(k² log N)`.
    pub fn recommended_len(n_univ: u64, k: usize) -> u64 {
        let k = k as f64;
        let ln_n = ((n_univ + 1) as f64).ln().max(1.0);
        (3.0 * std::f64::consts::E * k * k * ln_n).ceil() as u64
    }

    /// Set-size bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The seed (protocol constant).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Round `round` of the family, for testing many IDs against it.
    #[inline]
    pub fn round(&self, round: u64) -> HashRound {
        HashRound::new(self.seed, round, self.k)
    }
}

impl Schedule for RandomSsf {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn contains(&self, round: u64, id: u64) -> bool {
        self.round(round).contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use dcluster_sim::rng::{hash64, Rng64};

    #[test]
    fn rs_parameters_satisfy_invariants() {
        for &(n, k) in &[(10u64, 2usize), (100, 3), (10_000, 5), (1 << 20, 8)] {
            let s = RsSsf::new(n, k);
            assert!(s.field_size() > (k as u64) * s.degree() as u64, "q > k·t");
            let mut cover = 1u128;
            for _ in 0..=s.degree() {
                cover *= s.field_size() as u128;
            }
            assert!(cover > n as u128, "q^(t+1) must cover the universe");
        }
    }

    #[test]
    fn rs_ssf_selects_every_element_of_random_sets() {
        let mut rng = Rng64::new(31);
        let s = RsSsf::new(500, 4);
        for _ in 0..50 {
            let set: Vec<u64> = rng
                .sample_distinct(500, 4)
                .into_iter()
                .map(|v| v + 1)
                .collect();
            assert!(verify::is_ssf_for(&s, &set), "selection failed for {set:?}");
        }
    }

    #[test]
    fn rs_ssf_exhaustive_on_tiny_universe() {
        let s = RsSsf::new(12, 3);
        // All 3-subsets of [1,12].
        for a in 1..=12u64 {
            for b in a + 1..=12 {
                for c in b + 1..=12 {
                    assert!(verify::is_ssf_for(&s, &[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn random_ssf_theory_len_selects_random_sets() {
        let mut rng = Rng64::new(77);
        let s = RandomSsf::new(9, 1000, 6, 1.0);
        for _ in 0..30 {
            let set: Vec<u64> = rng
                .sample_distinct(1000, 6)
                .into_iter()
                .map(|v| v + 1)
                .collect();
            assert!(verify::is_ssf_for(&s, &set));
        }
    }

    #[test]
    fn random_ssf_density_is_about_one_over_k() {
        let s = RandomSsf::with_len(1, 8, 4000);
        let mut members = 0u64;
        for r in 0..s.len() {
            for id in 1..=20u64 {
                if s.contains(r, id) {
                    members += 1;
                }
            }
        }
        let rate = members as f64 / (4000.0 * 20.0);
        assert!((rate - 0.125).abs() < 0.01, "membership rate {rate} ≠ 1/8");
    }

    #[test]
    fn recommended_len_grows_quadratically_in_k() {
        let l1 = RandomSsf::recommended_len(1000, 4);
        let l2 = RandomSsf::recommended_len(1000, 8);
        let ratio = l2 as f64 / l1 as f64;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "quadratic scaling, got ratio {ratio}"
        );
    }

    #[test]
    fn round_view_matches_contains_and_the_hash_definition() {
        let s = RandomSsf::with_len(0xABCD, 5, 300);
        for r in (0..s.len()).chain([u64::MAX]) {
            let view = s.round(r);
            for id in (0..40u64).chain([u64::MAX]) {
                let h = hash64(s.seed, &[r, id]);
                let defined = (h as u128 * s.k as u128) >> 64 == 0;
                assert_eq!(view.contains(id), defined, "round {r}, id {id}");
                assert_eq!(s.contains(r, id), defined, "round {r}, id {id}");
            }
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let a = RandomSsf::with_len(5, 4, 100);
        let b = RandomSsf::with_len(5, 4, 100);
        for r in 0..100 {
            for id in 1..50 {
                assert_eq!(a.contains(r, id), b.contains(r, id));
            }
        }
    }
}
