//! # dcluster-core — the paper's algorithms
//!
//! Implementation of every algorithm in *Deterministic Digital Clustering
//! of Wireless Ad Hoc Networks* (PODC 2018):
//!
//! | Paper item | Module |
//! |---|---|
//! | Sparse Network Schedule (Lemma 4) | [`sns`] |
//! | `ProximityGraphConstruction` (Alg. 1, Lemma 7) | [`proximity`] |
//! | LOCAL MIS simulation (\[34\] stand-in) | [`mis`] |
//! | `Sparsification`/`SparsificationU`/`FullSparsification` (Algs. 2–4) | [`sparsify`] |
//! | Imperfect labeling (Lemma 11) | [`labeling`] |
//! | `RadiusReduction` (Alg. 5, Lemma 12) | [`radius`] |
//! | `Clustering` (Alg. 6, Theorem 1) | [`clustering`] |
//! | `LocalBroadcast` (Alg. 7, Theorem 2) | [`mod@local_broadcast`] |
//! | `SMSBroadcast` / global broadcast (Alg. 8, Theorem 3) | [`mod@global_broadcast`] |
//! | Wake-up (Theorem 4) | [`wakeup`] |
//! | Leader election (Theorem 5) | [`leader`] |
//! | Cluster maintenance under dynamics (extension) | [`maintenance`] |
//!
//! The protocols are orchestrated synchronous schedules over the
//! [`dcluster_sim`] engine, whose module docs state the locality
//! discipline every behavior keeps ([`dcluster_sim::engine`]);
//! [`params::ProtocolParams`] says how the paper's constants are
//! parameterized.
//!
//! ## Quickstart
//!
//! ```
//! use dcluster_core::{clustering::clustering, params::ProtocolParams, run::SeedSeq};
//! use dcluster_core::check::check_clustering;
//! use dcluster_sim::{deploy, Engine, Network, rng::Rng64};
//!
//! let mut rng = Rng64::new(1);
//! let net = Network::builder(deploy::uniform_square(30, 2.5, &mut rng))
//!     .build()
//!     .expect("valid deployment");
//! let params = ProtocolParams::practical();
//! let mut seeds = SeedSeq::new(params.seed);
//! let mut engine = Engine::new(&net);
//! let all: Vec<usize> = (0..net.len()).collect();
//! let cl = clustering(&mut engine, &params, &mut seeds, &all, net.density());
//! let report = check_clustering(&net, &cl.cluster_of);
//! assert_eq!(report.unassigned, 0);
//! assert!(report.max_radius <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod clustering;
pub mod global_broadcast;
pub mod labeling;
pub mod leader;
pub mod local_broadcast;
pub mod maintenance;
pub mod mis;
pub mod msg;
pub mod params;
pub mod proximity;
pub mod radius;
pub mod run;
pub mod sns;
pub mod sparsify;
pub mod wakeup;

pub use check::{audit_resolver_equivalence, ResolverDisagreement};
pub use clustering::{clustering as run_clustering, Clustering};
pub use global_broadcast::{global_broadcast, sms_broadcast, BroadcastOutcome};
pub use local_broadcast::{local_broadcast, LocalBroadcastOutcome};
pub use maintenance::{EpochReport, MaintenanceDriver, MaintenanceSummary};
pub use msg::Msg;
pub use params::ProtocolParams;
pub use run::SeedSeq;
