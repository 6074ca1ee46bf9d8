//! # dcluster — deterministic digital clustering of wireless ad hoc networks
//!
//! A full reproduction of *Deterministic Digital Clustering of Wireless Ad
//! Hoc Networks* (Jurdziński, Kowalski, Różański, Stachowiak — PODC 2018,
//! arXiv:1708.08647): deterministic distributed clustering, local
//! broadcast, global broadcast, wake-up and leader election in the SINR
//! model **without** randomization, location information, carrier sensing
//! or feedback — plus every substrate the paper relies on (SINR simulator,
//! selector families, LOCAL MIS), every baseline of its comparison tables,
//! and the Theorem 6 lower-bound gadget machinery.
//!
//! ## Crates
//!
//! * [`sim`] — SINR physical layer, synchronous engine, deployments.
//! * [`selectors`] — ssf / wss / wcss / cover-free families.
//! * [`core`] — the paper's algorithms (clustering, broadcasts, …).
//! * [`dynamics`] — mobility, churn and heterogeneous power: seeded
//!   scenario engine whose world rebuilds its network when nodes move.
//! * [`scenario`] — declarative workload specs (`scenarios/*.scn`) and
//!   the unified [`prelude::Runner`] every experiment driver uses.
//! * [`baselines`] — Tables 1–2 competitor algorithms.
//! * [`lowerbound`] — Theorem 6 gadgets and the Lemma 13 adversary.
//!
//! ## Quickstart
//!
//! ```
//! use dcluster::prelude::*;
//!
//! // Describe the workload: 40 sensors uniform on a 3×3 field. The same
//! // spec can be parsed from / written to a `scenarios/*.scn` file.
//! let spec = ScenarioSpec::uniform("quickstart", 7, 40, 3.0);
//!
//! // Run the paper's Theorem 1 clustering through the unified Runner.
//! let report = Runner::new(spec)
//!     .run(&Workload::Clustering)
//!     .expect("spec deploys fine");
//!
//! // Every node is in a cluster of radius ≤ 1 (the transmission range).
//! let WorkloadOutcome::Clustering { report: quality, .. } = &report.outcome else {
//!     unreachable!();
//! };
//! assert_eq!(quality.unassigned, 0);
//! assert!(quality.max_radius <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcluster_baselines as baselines;
pub use dcluster_core as core;
pub use dcluster_dynamics as dynamics;
pub use dcluster_lowerbound as lowerbound;
pub use dcluster_scenario as scenario;
pub use dcluster_selectors as selectors;
pub use dcluster_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use dcluster_core::check::audit_resolver_equivalence;
    pub use dcluster_core::check::{check_clustering, local_broadcast_complete};
    pub use dcluster_core::clustering::clustering;
    pub use dcluster_core::global_broadcast::{global_broadcast, sms_broadcast};
    pub use dcluster_core::leader::leader_election;
    pub use dcluster_core::local_broadcast::local_broadcast;
    pub use dcluster_core::wakeup::wakeup;
    pub use dcluster_core::{Msg, ProtocolParams, SeedSeq, Stack, UnitTrace};
    pub use dcluster_dynamics::{Churn, DynamicsModel, MobilityKind, World, WorldUpdate};
    pub use dcluster_scenario::{
        DeployLayer, DeploySpec, DynamicsSpec, Report, Runner, Scale, ScenarioSpec, SpecError,
        Workload, WorkloadOutcome,
    };
    pub use dcluster_sim::rng::Rng64;
    pub use dcluster_sim::{
        deploy, Engine, Network, Point, ResolverKind, SinrParams, SinrResolver,
    };
}
