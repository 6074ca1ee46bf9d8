//! # dcluster-scenario — declarative workload specs and the unified runner
//!
//! The paper's protocols are one deterministic pipeline, but the
//! experiment drivers used to hand-wire deploy → `Network` → `Engine` →
//! protocol → metrics separately in every binary. This crate is the
//! replacement, mirroring the standard methodology of MANET clustering
//! evaluations (compare schemes across mobility/density/period grids):
//!
//! * [`ScenarioSpec`] — a typed, buildable description of a complete
//!   workload: deployment layers, dynamics models, resolver backend,
//!   protocol parameters, seed and epochs, with a hand-rolled
//!   deterministic text format (`scenarios/*.scn`;
//!   [`ScenarioSpec::parse`] / [`ScenarioSpec::to_text`] round-trip);
//! * [`Runner`] — consumes a spec plus a [`Workload`] (clustering, local
//!   broadcast, global broadcast, maintenance epochs, wake-up, leader
//!   election) and executes it through `Engine` / `MaintenanceDriver`;
//! * [`Report`] — the structured result (rounds, receptions, resolver
//!   stats, cluster metrics, per-epoch maintenance counters), with the
//!   markdown/CSV emitters ([`print_table`], [`write_csv`]) behind it.
//!
//! ## Quickstart
//!
//! ```
//! use dcluster_scenario::{Runner, ScenarioSpec, Workload};
//!
//! let spec = ScenarioSpec::parse(
//!     "scenario demo\nseed 7\ndeploy uniform n=40 side=3.0\nworkload clustering\n",
//! )
//! .expect("valid spec");
//! let report = Runner::new(spec).run_default().expect("spec deploys fine");
//! assert!(report.ok(), "every node ends up in a cluster");
//! assert_eq!(report.workload, "clustering");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod report;
pub mod runner;
pub mod spec;

pub use dcluster_obs::{PhaseSummary, SharedTracer, TraceMeta, Tracer, TRACE_SCHEMA};
pub use emit::{format_table, print_table, results_dir, write_csv};
pub use report::{Report, WorkloadOutcome};
pub use runner::{bounding_box, connected_deployment, Runner};
pub use spec::{DeployLayer, DeploySpec, DynamicsSpec, ScenarioSpec, SpecError, Workload};

/// Experiment size tier of the sweep binaries, from the `DCLUSTER_SCALE`
/// env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// CI smoke tier (`ci`): small enough for a gate job.
    Ci,
    /// Default interactive tier (`quick`).
    Quick,
    /// Paper-scale tier (`full`): roughly doubles network sizes and sweep
    /// points; `scale_resolvers` sweeps to 10⁵ nodes.
    Full,
}

impl Scale {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scale {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Ok(Scale::Ci),
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (expected ci|quick|full)")),
        }
    }
}

/// Scale knob for experiment sizes: `DCLUSTER_SCALE=ci|quick|full`,
/// parsed by [`Scale::from_str`](std::str::FromStr) (case-insensitive);
/// unset means quick. Any other value, or one that is not unicode, is an
/// error naming the variable and the three tiers.
pub fn scale() -> Result<Scale, String> {
    // lint:allow(D4, reason = "documented override: DCLUSTER_SCALE")
    match std::env::var("DCLUSTER_SCALE") {
        Err(std::env::VarError::NotPresent) => Ok(Scale::Quick),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("DCLUSTER_SCALE: not unicode (expected ci|quick|full)".into())
        }
        Ok(v) => v.parse().map_err(|e| format!("DCLUSTER_SCALE: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tiers_are_ordered_ci_to_full() {
        assert!(Scale::Ci < Scale::Quick);
        assert!(Scale::Quick < Scale::Full);
    }

    #[test]
    fn scale_parses_and_prints() {
        for s in [Scale::Ci, Scale::Quick, Scale::Full] {
            assert_eq!(s.name().parse::<Scale>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!("CI".parse::<Scale>(), Ok(Scale::Ci));
        assert_eq!("Full".parse::<Scale>(), Ok(Scale::Full));
        let err = "huge".parse::<Scale>().unwrap_err();
        assert!(err.contains("ci|quick|full"), "{err}");
    }
}
