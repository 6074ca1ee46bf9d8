//! Witnessed strong selectors — `(N,k)`-wss (paper §3.1, Lemma 2).
//!
//! The paper's new combinatorial structure: a sequence `S = (S_1, …, S_m)`
//! over `[N]` such that for every `X ⊆ [N]` with `|X| = k`, every `x ∈ X`
//! and every `y ∉ X`, some `S_i` both selects `x` (`S_i ∩ X = {x}`) **and
//! contains the witness** `y`. Witnesses give the implicit collision
//! detection of `ProximityGraphConstruction`: if `u` hears `v` in a round
//! where `w` also transmitted, then `(u, w)` is certainly not a close pair
//! — and wss guarantees every far node is eventually such a `w`.

use crate::{HashRound, Schedule};

/// Seeded randomized `(N,k)`-wss of size `O(k³ log N)` (Lemma 2).
///
/// Construction follows the Lemma 3 proof specialized to one cluster: each
/// round contains each ID independently with probability `1/k`.
/// For a fixed `(X, x, y)`, a round works with probability
/// `(1/k)(1−1/k)^{k−1}·(1/k) ≥ 1/(e·k²)`; union-bounding over `< N^{k+2}`
/// tuples gives the `O(k³ log N)` length.
///
/// ```
/// use dcluster_selectors::{RandomWss, Schedule, verify};
/// let wss = RandomWss::new(7, 200, 3, 1.0);
/// assert!(verify::is_wss_for(&wss, &[4, 9, 50], 77)); // 77 witnesses all of {4,9,50}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomWss {
    seed: u64,
    len: u64,
    k: usize,
}

impl RandomWss {
    /// Creates a family with an explicit number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `len == 0`.
    pub fn with_len(seed: u64, k: usize, len: u64) -> Self {
        assert!(k > 0 && len > 0, "RandomWss requires k ≥ 1 and len ≥ 1");
        Self { seed, len, k }
    }

    /// Creates a family of [`RandomWss::recommended_len`] rounds scaled by
    /// `factor` (`factor = 1` is the w.h.p.-correct theory length; the
    /// experiment harness uses smaller factors and validates the needed
    /// selections explicitly).
    pub fn new(seed: u64, n_univ: u64, k: usize, factor: f64) -> Self {
        let len = ((Self::recommended_len(n_univ, k) as f64 * factor).ceil() as u64).max(1);
        Self::with_len(seed, k, len)
    }

    /// Theory length `3·e·k²·(k+2)·ln(N+1) = O(k³ log N)` — the Lemma 2
    /// bound with explicit constants.
    pub fn recommended_len(n_univ: u64, k: usize) -> u64 {
        let kf = k as f64;
        let ln_n = ((n_univ + 1) as f64).ln().max(1.0);
        (3.0 * std::f64::consts::E * kf * kf * (kf + 2.0) * ln_n).ceil() as u64
    }

    /// Set-size bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Round `round` of the family, for testing many IDs against it.
    #[inline]
    pub fn round(&self, round: u64) -> HashRound {
        HashRound::new(self.seed ^ 0x57_55_53_53, round, self.k)
    }
}

impl Schedule for RandomWss {
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
    fn wss_property_holds_at_theory_length() {
        let mut rng = Rng64::new(5);
        let n_univ = 300u64;
        let wss = RandomWss::new(11, n_univ, 3, 1.0);
        for _ in 0..25 {
            let mut ids = rng.sample_distinct(n_univ, 4);
            for v in &mut ids {
                *v += 1;
            }
            let y = ids.pop().unwrap();
            assert!(
                verify::is_wss_for(&wss, &ids, y),
                "wss property failed for X={ids:?}, y={y}"
            );
        }
    }

    #[test]
    fn wss_is_in_particular_an_ssf() {
        // "Note that any (N,k)-wss is also, by definition, an (N,k)-ssf."
        let mut rng = Rng64::new(6);
        let wss = RandomWss::new(12, 300, 4, 1.0);
        for _ in 0..25 {
            let ids: Vec<u64> = rng
                .sample_distinct(300, 4)
                .into_iter()
                .map(|v| v + 1)
                .collect();
            assert!(verify::is_ssf_for(&wss, &ids));
        }
    }

    #[test]
    fn witnessed_selection_finds_explicit_round() {
        // Directly inspect: exists round where S∩X = {x} and y ∈ S.
        let wss = RandomWss::new(3, 100, 2, 1.0);
        let x_set = [10u64, 20];
        let y = 30u64;
        for &x in &x_set {
            let found = (0..wss.len()).any(|r| {
                wss.contains(r, x)
                    && x_set.iter().all(|&o| o == x || !wss.contains(r, o))
                    && wss.contains(r, y)
            });
            assert!(found);
        }
    }

    #[test]
    fn round_view_matches_contains_and_the_hash_definition() {
        let wss = RandomWss::with_len(0x1234, 3, 300);
        for r in (0..wss.len()).chain([u64::MAX]) {
            let view = wss.round(r);
            for id in (0..40u64).chain([u64::MAX]) {
                let h = hash64(wss.seed ^ 0x57_55_53_53, &[r, id]);
                let defined = (h as u128 * wss.k as u128) >> 64 == 0;
                assert_eq!(view.contains(id), defined, "round {r}, id {id}");
                assert_eq!(wss.contains(r, id), defined, "round {r}, id {id}");
            }
        }
    }

    #[test]
    fn too_short_family_fails_sometimes() {
        // Sanity check that the verifier can fail: a 1-round family can't
        // witness-select both elements of a pair.
        let tiny = RandomWss::with_len(1, 2, 1);
        let ok = verify::is_wss_for(&tiny, &[1, 2], 3);
        assert!(!ok, "one round cannot witness-select both elements");
    }

    #[test]
    fn recommended_len_is_cubic_in_k() {
        let l1 = RandomWss::recommended_len(1000, 4);
        let l2 = RandomWss::recommended_len(1000, 8);
        let ratio = l2 as f64 / l1 as f64;
        // (k²(k+2)) ratio for 8 vs 4: (64·10)/(16·6) = 6.67
        assert!((ratio - 6.67).abs() < 0.5, "cubic-ish scaling, got {ratio}");
    }
}
