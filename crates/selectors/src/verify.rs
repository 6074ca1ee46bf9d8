//! Property verifiers for selector families.
//!
//! The paper proves its selectors exist by the probabilistic method; this
//! module checks the defining properties on *concrete* sets, which the test
//! suites use to validate both theory-length families and the scaled-down
//! lengths used by the experiment harness.

use crate::wcss::RandomWcss;
use crate::{ClusterSchedule, Schedule};

/// True iff round `round` of `s` *selects* `x` from `set`
/// (`S_round ∩ set = {x}`; `x` must be in `set`).
pub fn selects<S: Schedule + ?Sized>(s: &S, round: u64, set: &[u64], x: u64) -> bool {
    debug_assert!(set.contains(&x));
    s.contains(round, x) && set.iter().all(|&o| o == x || !s.contains(round, o))
}

/// First round selecting `x` from `set`, if any.
pub fn first_selection_round<S: Schedule + ?Sized>(s: &S, set: &[u64], x: u64) -> Option<u64> {
    (0..s.len()).find(|&r| selects(s, r, set, x))
}

/// Checks the ssf property of `s` **for the given set**: every element is
/// selected by some round.
pub fn is_ssf_for<S: Schedule + ?Sized>(s: &S, set: &[u64]) -> bool {
    set.iter()
        .all(|&x| first_selection_round(s, set, x).is_some())
}

/// Checks the witnessed strong selection property for `set` and witness
/// `y ∉ set`: every `x ∈ set` is selected by a round that also contains
/// `y` (Lemma 2's defining property).
pub fn is_wss_for<S: Schedule + ?Sized>(s: &S, set: &[u64], y: u64) -> bool {
    debug_assert!(!set.contains(&y));
    set.iter()
        .all(|&x| (0..s.len()).any(|r| selects(s, r, set, x) && s.contains(r, y)))
}

/// Checks the wcss property (Lemma 3) for the concrete instance: set `xs`
/// inside cluster `phi`, witness `y` (same cluster, not in `xs`), conflict
/// set `conflicts`. A round counts only if it is *free* of every
/// conflicting cluster, which for [`RandomWcss`] means the cluster is not
/// in the round's allowed set.
pub fn is_wcss_for(s: &RandomWcss, xs: &[u64], y: u64, phi: u64, conflicts: &[u64]) -> bool {
    debug_assert!(!xs.contains(&y));
    debug_assert!(!conflicts.contains(&phi));
    xs.iter().all(|&x| {
        (0..ClusterSchedule::len(s)).any(|r| {
            s.contains(r, x, phi)
                && xs.iter().all(|&o| o == x || !s.contains(r, o, phi))
                && s.contains(r, y, phi)
                && conflicts.iter().all(|&c| !s.cluster_allowed(r, c))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssf::RandomSsf;
    use dcluster_sim::rng::Rng64;

    /// Statistical failure rate of the ssf property over random
    /// `k`-subsets of `[1, n_univ]`.
    fn ssf_failure_rate<S: Schedule + ?Sized>(
        s: &S,
        n_univ: u64,
        k: usize,
        trials: usize,
        rng: &mut Rng64,
    ) -> f64 {
        let mut failures = 0usize;
        for _ in 0..trials {
            let set: Vec<u64> = rng
                .sample_distinct(n_univ, k)
                .into_iter()
                .map(|v| v + 1)
                .collect();
            if !is_ssf_for(s, &set) {
                failures += 1;
            }
        }
        failures as f64 / trials as f64
    }

    #[test]
    fn selects_detects_unique_transmitter() {
        // A handcrafted 3-round schedule over {1,2}: rounds select 1, both, 2.
        struct Hand;
        impl Schedule for Hand {
            fn len(&self) -> u64 {
                3
            }
            fn contains(&self, round: u64, id: u64) -> bool {
                match round {
                    0 => id == 1,
                    1 => true,
                    _ => id == 2,
                }
            }
        }
        assert!(selects(&Hand, 0, &[1, 2], 1));
        assert!(!selects(&Hand, 1, &[1, 2], 1));
        assert!(selects(&Hand, 2, &[1, 2], 2));
        assert!(is_ssf_for(&Hand, &[1, 2]));
        assert_eq!(first_selection_round(&Hand, &[1, 2], 2), Some(2));
    }

    #[test]
    fn failure_rate_decreases_with_length() {
        let mut rng = Rng64::new(50);
        let short = RandomSsf::with_len(1, 6, 20);
        let long = RandomSsf::with_len(1, 6, 2_000);
        let fr_short = ssf_failure_rate(&short, 200, 6, 60, &mut rng);
        let fr_long = ssf_failure_rate(&long, 200, 6, 60, &mut rng);
        assert!(
            fr_long <= fr_short,
            "longer schedule can't be worse: {fr_long} > {fr_short}"
        );
        assert!(
            fr_long < 0.05,
            "theory-scale length should essentially never fail"
        );
    }
}
