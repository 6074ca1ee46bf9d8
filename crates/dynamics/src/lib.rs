//! # dcluster-dynamics — scenario engine for evolving networks
//!
//! The paper's clustering is defined for *static* SINR networks, but its
//! motivating deployments — sensors in a rescue area, ad hoc fleets —
//! move, sleep, crash and wake. This crate is the deterministic scenario
//! engine that evolves a deployed [`Network`] **between protocol rounds**:
//!
//! * a [`World`] wraps a network plus per-node awake flags and applies
//!   [`WorldUpdate`] streams: sleeps and wakes flip flags, and a stream
//!   that moves a node replaces the network with one fresh build over the
//!   new positions;
//! * composable [`DynamicsModel`]s generate the updates: mobility
//!   ([`mobility::RandomWaypoint`], [`mobility::RandomWalk`],
//!   [`mobility::GroupDrift`]), churn ([`churn::Churn`] — deterministic
//!   Poisson-like sleep/wake streams layered on the paper's wake-up
//!   semantics), and heterogeneous power, set once at deployment
//!   ([`with_power_profile`], drawing from
//!   [`dcluster_sim::deploy::power_profile`]);
//! * everything is seeded and hash-driven: the same seeds replay the exact
//!   same world history, byte for byte, which is what lets the scenario
//!   gates hold maintenance runs to bit-identical reruns.
//!
//! The cluster-maintenance driver consuming these worlds lives in
//! `dcluster-core::maintenance`. A scenario spec's `dynamics` lines
//! describe which models a run uses; `dcluster-scenario`'s `Runner`
//! builds them (`scenarios/dynamics_maintenance.scn` is the recorded
//! maintenance experiment).
//!
//! ## Quickstart
//!
//! ```
//! use dcluster_dynamics::{mobility::RandomWaypoint, churn::Churn, DynamicsModel, World};
//! use dcluster_sim::{deploy, rng::Rng64, Network};
//!
//! let mut rng = Rng64::new(3);
//! let net = Network::builder(deploy::uniform_square(60, 3.0, &mut rng))
//!     .build()
//!     .expect("valid deployment");
//! let mut world = World::new(net);
//! let mut models: Vec<Box<dyn DynamicsModel>> = vec![
//!     Box::new(RandomWaypoint::new(60, (3.0, 3.0), 0.2, 0.25, 7)),
//!     Box::new(Churn::new(11, 0.05, 0.3)),
//! ];
//! for _ in 0..5 {
//!     world.step(&mut models);
//! }
//! assert_eq!(world.epoch(), 5);
//! assert!(world.stats().moves > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod mobility;
pub mod world;

pub use churn::Churn;
pub use mobility::{GroupDrift, RandomWalk, RandomWaypoint};
pub use world::{World, WorldStats, WorldUpdate};

use dcluster_sim::{Network, NetworkError, Point};

/// A composable generator of world updates, advanced once per epoch.
///
/// Implementations must be **deterministic**: the same construction seed
/// and the same world history always produce the same update stream. They
/// must not inspect anything but the world passed in (no ambient state),
/// so that scenarios replay exactly.
pub trait DynamicsModel {
    /// Appends this epoch's updates for `world` to `out`. Implementations
    /// see the world *before* any of this epoch's updates are applied;
    /// [`World::step`] applies the concatenated stream afterwards.
    fn advance(&mut self, world: &World, out: &mut Vec<WorldUpdate>);
}

/// Convenience: a fresh network deployed like `net` but with every node's
/// power drawn from [`dcluster_sim::deploy::power_profile`] — the standard
/// heterogeneous-power variant of a scenario.
///
/// # Errors
///
/// Returns the builder's [`NetworkError::BadPower`] when a drawn power is
/// not positive and finite: under a negative `spread`, or one so large
/// that a power overflows to infinity.
pub fn with_power_profile(net: &Network, spread: f64, seed: u64) -> Result<Network, NetworkError> {
    let powers = dcluster_sim::deploy::power_profile(net.len(), net.params().power, spread, seed);
    build_like(net, net.points().to_vec(), powers)
}

/// A fresh build over `points` and `powers` with `net`'s ids, ID space
/// and parameters.
fn build_like(
    net: &Network,
    points: Vec<Point>,
    powers: Vec<f64>,
) -> Result<Network, NetworkError> {
    Network::builder(points)
        .ids(net.ids().to_vec())
        .max_id(net.max_id())
        .params(*net.params())
        .powers(powers)
        .build()
}
