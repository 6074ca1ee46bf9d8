//! # dcluster-selectors — combinatorial transmission schedules
//!
//! Deterministic SINR algorithms in the paper drive all communication
//! through *combinatorial families interpreted as transmission schedules*:
//! node `v` transmits in round `i` iff `v ∈ S_i` (§3.1). This crate
//! implements every family the paper uses:
//!
//! * **Strongly-selective families** (`(N,k)`-ssf) — [`ssf`]: classic
//!   families where every `x` in every small set `X` is selected
//!   (`S ∩ X = {x}`) by some set. Used for the Sparse Network Schedule
//!   (Lemma 4). Two constructions: an explicit Reed–Solomon one and a
//!   seeded randomized one matching the optimal `O(k² log N)` size.
//! * **Witnessed strong selectors** (`(N,k)`-wss, Lemma 2) — [`wss`]:
//!   selections must additionally be *witnessed* by every outsider `y ∉ X`
//!   (`y ∈ S_i` too). This is the paper's new structure enabling implicit
//!   collision detection in `ProximityGraphConstruction`.
//! * **Witnessed cluster-aware strong selectors** (`(N,k,l)`-wcss,
//!   Lemma 3) — [`wcss`]: wss per cluster, where each selecting set must be
//!   *free* of `l` conflicting clusters.
//! * **Cover-free families** — [`cff`]: the classical Erdős–Frankl–Füredi
//!   structure (via Reed–Solomon codes) powering our deterministic
//!   Linial-style color reduction (stand-in for the cited `log*`-MIS
//!   of Schneider–Wattenhofer).
//!
//! Randomized families are instantiated from **fixed seeds that are part of
//! the protocol**: the paper proves existence by the probabilistic method;
//! any seeded instance is a concrete family all nodes share. Membership is
//! computed in O(1) by hashing, so no family is ever materialized — a
//! `(N,k)`-wss of length 10⁶ occupies a few dozen bytes.
//!
//! [`verify`] provides property checkers, which the proptest suites use to
//! validate both theory-length families and the scaled-down schedule
//! lengths the experiment harness runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cff;
pub mod primes;
pub mod ssf;
pub mod theory;
pub mod verify;
pub mod wcss;
pub mod wss;

pub use cff::CoverFreeFamily;
pub use ssf::{RandomSsf, RsSsf};
pub use wcss::{RandomWcss, WcssRound};
pub use wss::RandomWss;

use dcluster_sim::rng::{hash64_push, hash64_start};

/// One round of a hashed family over IDs ([`RandomSsf`], [`RandomWss`]):
/// the hash state after the family's seed and the round word, so that
/// each membership test costs one hash step. The families' `contains`
/// goes through this view too.
#[derive(Debug, Clone, Copy)]
pub struct HashRound {
    state: u64,
    k: usize,
}

impl HashRound {
    /// Round `round` of the family hashed from `seed`, with rate `1/k`.
    #[inline]
    pub(crate) fn new(seed: u64, round: u64, k: usize) -> Self {
        Self {
            state: hash64_push(hash64_start(seed), round),
            k,
        }
    }

    /// Does `id` transmit in this round? Probability `1/k`,
    /// independently per (round, id).
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        one_in(hash64_push(self.state, id), self.k)
    }
}

/// The membership rule of the hashed families: `h·k < 2⁶⁴`, which holds
/// for a `1/k` share of the 64-bit hashes `h`.
#[inline]
pub(crate) fn one_in(h: u64, k: usize) -> bool {
    (h as u128 * k as u128) >> 64 == 0
}

/// A transmission schedule over the unclustered ID universe `[1, N]`:
/// node with ID `id` transmits in round `r` iff `contains(r, id)`.
pub trait Schedule {
    /// Number of rounds.
    fn len(&self) -> u64;

    /// True iff the schedule is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test: does `id` transmit in round `round`?
    fn contains(&self, round: u64, id: u64) -> bool;
}

/// A transmission schedule over the clustered universe `[N] × [N]`
/// (ID, cluster): used by cluster-aware selectors.
pub trait ClusterSchedule {
    /// Number of rounds.
    fn len(&self) -> u64;

    /// True iff the schedule is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test for the pair `(id, cluster)` in round `round`.
    fn contains(&self, round: u64, id: u64, cluster: u64) -> bool;
}

/// Adapter viewing any [`Schedule`] as a [`ClusterSchedule`] that ignores
/// cluster IDs (the paper's "unclustered sets are clustered with
/// `cluster(v) = 1`" convention).
#[derive(Debug, Clone, Copy)]
pub struct IgnoreCluster<S>(pub S);

impl<S: Schedule> ClusterSchedule for IgnoreCluster<S> {
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn contains(&self, round: u64, id: u64, _cluster: u64) -> bool {
        self.0.contains(round, id)
    }
}

impl<S: Schedule + ?Sized> Schedule for &S {
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn contains(&self, round: u64, id: u64) -> bool {
        (**self).contains(round, id)
    }
}

impl<S: ClusterSchedule + ?Sized> ClusterSchedule for &S {
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn contains(&self, round: u64, id: u64, cluster: u64) -> bool {
        (**self).contains(round, id, cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Everyone(u64);
    impl Schedule for Everyone {
        fn len(&self) -> u64 {
            self.0
        }
        fn contains(&self, _round: u64, _id: u64) -> bool {
            true
        }
    }

    #[test]
    fn ignore_cluster_adapter_delegates() {
        let s = IgnoreCluster(Everyone(5));
        assert_eq!(ClusterSchedule::len(&s), 5);
        assert!(s.contains(0, 7, 3));
        assert!(!ClusterSchedule::is_empty(&s));
    }

    #[test]
    fn reference_impls_delegate() {
        let e = Everyone(2);
        let r: &Everyone = &e;
        assert_eq!(Schedule::len(&r), 2);
        assert!(Schedule::contains(&r, 1, 1));
    }
}
