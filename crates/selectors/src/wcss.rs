//! Witnessed cluster-aware strong selectors — `(N,k,l)`-wcss (Lemma 3).
//!
//! The clustered generalization of [`crate::wss`]: for any set `C` of `l`
//! conflicting clusters, any cluster `φ ∉ C`, any `X ⊆ [N] × {φ}` with
//! `|X| = k`, each `x ∈ X` and each `y ∉ X` from cluster `φ`, some set
//! `S_i` selects `x` from `X`, contains the witness `y`, and is **free** of
//! all clusters in `C` (no pair `(·, c)` with `c ∈ C` is scheduled).

use crate::{one_in, ClusterSchedule};
use dcluster_sim::rng::{hash64_push, hash64_start};

/// Seeded randomized `(N,k,l)`-wcss of size `O((k+l)·l·k² log N)`, built
/// exactly as in the Lemma 3 proof: round `i` first samples an *allowed*
/// cluster set `C_i` (each cluster with probability `1/l`), then schedules
/// each pair `(x, φ)` with `φ ∈ C_i` independently with probability `1/k`.
///
/// ```
/// use dcluster_selectors::{RandomWcss, ClusterSchedule};
/// let wcss = RandomWcss::new(1, 100, 3, 2, 1.0);
/// // A pair transmits only in rounds where its cluster is allowed:
/// let r = (0..wcss.len()).find(|&r| wcss.contains(r, 5, 1)).unwrap();
/// assert!(wcss.cluster_allowed(r, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomWcss {
    seed: u64,
    len: u64,
    k: usize,
    l: usize,
}

impl RandomWcss {
    /// Creates a family with an explicit number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `l == 0` or `len == 0`.
    pub fn with_len(seed: u64, k: usize, l: usize, len: u64) -> Self {
        assert!(
            k > 0 && l > 0 && len > 0,
            "RandomWcss requires k, l, len ≥ 1"
        );
        Self { seed, len, k, l }
    }

    /// Creates a family of [`RandomWcss::recommended_len`] rounds scaled by
    /// `factor`.
    pub fn new(seed: u64, n_univ: u64, k: usize, l: usize, factor: f64) -> Self {
        let len = ((Self::recommended_len(n_univ, k, l) as f64 * factor).ceil() as u64).max(1);
        Self::with_len(seed, k, l, len)
    }

    /// Theory length `3e²·l·k²·(k+l+3)·ln(N+1) = O((k+l)·l·k² log N)` —
    /// the Lemma 3 bound with the constants of its proof
    /// (`p = Ω(1/(l·k²))`, `|T| < N^{k+l+3}`).
    pub fn recommended_len(n_univ: u64, k: usize, l: usize) -> u64 {
        let kf = k as f64;
        let lf = l as f64;
        let ln_n = ((n_univ + 1) as f64).ln().max(1.0);
        let e2 = std::f64::consts::E * std::f64::consts::E;
        (3.0 * e2 * lf * kf * kf * (kf + lf + 3.0) * ln_n).ceil() as u64
    }

    /// Whether cluster `cluster` is in the allowed set `C_i` of round
    /// `round` (probability `1/l` per the construction). A round is *free*
    /// of a cluster iff the cluster is not allowed.
    #[inline]
    pub fn cluster_allowed(&self, round: u64, cluster: u64) -> bool {
        self.round(round).cluster_allowed(cluster)
    }

    /// Round `round` of the family, for testing many pairs against it.
    #[inline]
    pub fn round(&self, round: u64) -> WcssRound {
        WcssRound {
            cluster_state: hash64_push(hash64_start(self.seed ^ 0x0C10_57E2), round),
            member_state: hash64_push(hash64_start(self.seed ^ 0x5743_5353), round),
            k: self.k,
            l: self.l,
        }
    }

    /// Set-size bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Conflict bound `l`.
    pub fn l(&self) -> usize {
        self.l
    }
}

impl ClusterSchedule for RandomWcss {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn contains(&self, round: u64, id: u64, cluster: u64) -> bool {
        self.round(round).contains(id, cluster)
    }
}

/// One round of a [`RandomWcss`]: the states of its cluster hash and of
/// its member hash after the seed and the round word, so that each test
/// costs one hash step per word still to come.
#[derive(Debug, Clone, Copy)]
pub struct WcssRound {
    cluster_state: u64,
    member_state: u64,
    k: usize,
    l: usize,
}

impl WcssRound {
    /// Whether `cluster` is in this round's allowed set (probability
    /// `1/l`).
    #[inline]
    pub fn cluster_allowed(&self, cluster: u64) -> bool {
        one_in(hash64_push(self.cluster_state, cluster), self.l)
    }

    /// Membership of the pair `(id, cluster)` in this round: its cluster
    /// is allowed, and then the pair is drawn with probability `1/k`.
    #[inline]
    pub fn contains(&self, id: u64, cluster: u64) -> bool {
        self.cluster_allowed(cluster)
            && one_in(
                hash64_push(hash64_push(self.member_state, id), cluster),
                self.k,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use dcluster_sim::rng::{hash64, Rng64};

    #[test]
    fn wcss_property_holds_at_theory_length() {
        let mut rng = Rng64::new(21);
        let n_univ = 120u64;
        let (k, l) = (2usize, 2usize);
        let wcss = RandomWcss::new(33, n_univ, k, l, 1.0);
        for trial in 0..10 {
            let phi = 1 + rng.range_u64(10);
            let conflicts: Vec<u64> = (0..l as u64)
                .map(|i| 20 + i + 10 * rng.range_u64(3))
                .collect();
            assert!(!conflicts.contains(&phi));
            let mut ids = rng.sample_distinct(n_univ, k + 1);
            for v in &mut ids {
                *v += 1;
            }
            let y = ids.pop().unwrap();
            assert!(
                verify::is_wcss_for(&wcss, &ids, y, phi, &conflicts),
                "trial {trial}: wcss failed for X={ids:?} y={y} phi={phi} C={conflicts:?}"
            );
        }
    }

    #[test]
    fn members_only_transmit_in_allowed_rounds() {
        let wcss = RandomWcss::new(2, 50, 3, 4, 0.5);
        for r in 0..wcss.len() {
            for id in 1..=10u64 {
                for c in 1..=5u64 {
                    if wcss.contains(r, id, c) {
                        assert!(wcss.cluster_allowed(r, c));
                    }
                }
            }
        }
    }

    #[test]
    fn round_view_matches_contains_and_the_hash_definition() {
        let wcss = RandomWcss::with_len(0x77, 2, 3, 200);
        for r in (0..wcss.len()).chain([u64::MAX]) {
            let view = wcss.round(r);
            for c in (0..6u64).chain([u64::MAX]) {
                let h = hash64(wcss.seed ^ 0x0C10_57E2, &[r, c]);
                let allowed = (h as u128 * wcss.l as u128) >> 64 == 0;
                assert_eq!(view.cluster_allowed(c), allowed, "round {r}, cluster {c}");
                assert_eq!(
                    wcss.cluster_allowed(r, c),
                    allowed,
                    "round {r}, cluster {c}"
                );
                for id in (0..12u64).chain([u64::MAX]) {
                    let h = hash64(wcss.seed ^ 0x5743_5353, &[r, id, c]);
                    let defined = allowed && (h as u128 * wcss.k as u128) >> 64 == 0;
                    assert_eq!(view.contains(id, c), defined, "round {r}, pair ({id}, {c})");
                    assert_eq!(
                        wcss.contains(r, id, c),
                        defined,
                        "round {r}, pair ({id}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn allowed_rate_is_about_one_over_l() {
        let wcss = RandomWcss::with_len(4, 3, 5, 20_000);
        let hits = (0..wcss.len())
            .filter(|&r| wcss.cluster_allowed(r, 7))
            .count() as f64;
        let rate = hits / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "allowed rate {rate} ≠ 1/5");
    }

    #[test]
    fn conflicting_cluster_blocks_rounds() {
        // Free rounds for cluster 1 must exclude cluster 2's members.
        let wcss = RandomWcss::new(5, 60, 2, 2, 0.3);
        let mut free_rounds = 0;
        for r in 0..wcss.len() {
            if !wcss.cluster_allowed(r, 2) {
                free_rounds += 1;
                for id in 1..=20 {
                    assert!(!wcss.contains(r, id, 2));
                }
            }
        }
        assert!(free_rounds > 0, "some rounds must be free of cluster 2");
    }

    #[test]
    fn recommended_len_grows_with_l() {
        assert!(RandomWcss::recommended_len(1000, 4, 8) > RandomWcss::recommended_len(1000, 4, 2));
    }
}
