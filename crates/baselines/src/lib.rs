//! # dcluster-baselines — the competitor rows of Tables 1 and 2
//!
//! Shape-faithful implementations of the algorithms the paper compares
//! against:
//!
//! **Local broadcast (Table 1)**
//! * [`local::gmw_known_delta`] — Goussevskaia–Moscibroda–Wattenhofer
//!   \[16\], randomized, ∆ known: transmit w.p. `Θ(1/∆)`, `O(∆ log n)`.
//! * [`local::gmw_unknown_delta`] — \[16\] without ∆: decay-style
//!   probability ladder, `O(∆ log³ n)`-shaped.
//! * [`local::yu_growth`] — Yu et al. \[35\]: probabilities grow until the
//!   medium saturates, `O(∆ log n + log² n)`-shaped.
//! * [`local::feedback`] — Halldórsson–Mitra \[19\] / Barenboim–Peleg \[4\]:
//!   the *feedback* model feature (an oracle says when all neighbors got
//!   your message) lets finished nodes leave the game: `O(∆ + polylog)`.
//! * [`local::location_grid`] — Jurdziński–Kowalski \[22\]: deterministic
//!   with coordinates; grid coloring + in-cell ssf.
//!
//! **Global broadcast (Table 2)**
//! * [`global::decay_flood`] — Daum et al. \[10\] / JKRS \[25\]: randomized
//!   Decay flooding, `O(D·polylog)`.
//! * [`global::location_grid_flood`] — JKS \[26\]: deterministic with
//!   coordinates, grid-pipelined.
//! * [`global::round_robin_flood`] — the generic deterministic
//!   no-extra-features flooding (the \[27\]-class row): collision-free ID
//!   sweep, `Θ(D·N)` worst case — the slow baseline our algorithm beats.
//! * [`global::ssf_flood`] — ssf-driven deterministic flooding (an
//!   intermediate no-location baseline).
//!
//! The "randomized" rows use seeded pseudo-randomness (statistically
//! equivalent, reproducible).
//!
//! **Simplified variants** (the `(*)` rows of Tables 1–2): both location
//! rows replace the original constructions with grid coloring plus an
//! in-cell ssf; [`local::location_grid`] and
//! [`global::location_grid_flood`] state the cost of each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod global;
pub mod local;
mod tracker;

pub use tracker::DeliveryTracker;

use std::collections::HashSet;

/// Outcome of a local-broadcast baseline run.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Rounds executed (= `first_complete` when the run completed, else the
    /// cap).
    pub rounds: u64,
    /// Whether every node's message reached all its comm-graph neighbors.
    pub complete: bool,
    /// `heard_by[v]` = receivers of `v`'s message.
    pub heard_by: Vec<HashSet<usize>>, // lint:allow(D1, reason = "delivery-witness set; membership queries only")
    /// Total transmissions (energy proxy).
    pub transmissions: u64,
}

/// Outcome of a global-broadcast baseline run.
#[derive(Debug, Clone)]
pub struct GlobalOutcome {
    /// Rounds executed until everyone was awake (or the cap).
    pub rounds: u64,
    /// Whether every node received the broadcast.
    pub reached_all: bool,
    /// Awake flags at the end.
    pub awake: Vec<bool>,
    /// Total transmissions (energy proxy).
    pub transmissions: u64,
}
