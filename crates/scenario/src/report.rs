//! Structured run results: what a [`crate::Runner`] hands back.
//!
//! A [`Report`] carries the workload-independent execution header (rounds,
//! transmissions, receptions, resolver work counters) plus a typed
//! [`WorkloadOutcome`]. Reports are plain data with full `PartialEq`: the
//! determinism gates compare whole reports, and
//! [`Report::to_markdown`] / [`Report::write_csv`] render them through the
//! shared emitters.

use crate::emit::{format_table, write_csv};
use dcluster_core::check::ClusteringReport;
use dcluster_core::global_broadcast::PhaseRecord;
use dcluster_core::maintenance::{EpochReport, MaintenanceSummary};
use dcluster_obs::PhaseSummary;
use dcluster_sim::{Engine, ResolverKind, ResolverStats};

/// Workload-specific results (the variant matches the executed
/// [`crate::Workload`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadOutcome {
    /// Placeholder before execution fills the report.
    Empty,
    /// Theorem 1 clustering.
    Clustering {
        /// Cluster centers elected.
        centers: usize,
        /// Phase-A sparsification levels executed.
        levels: usize,
        /// Cluster of each node (`None` = unassigned).
        cluster_of: Vec<Option<u64>>,
        /// Quality report (§1.3 conditions).
        report: ClusteringReport,
    },
    /// Local broadcast (Algorithm 7): clustering and labeling once, then
    /// one Sparse Network Schedule per label.
    LocalBroadcast {
        /// Every node heard by all comm-graph neighbors?
        complete: bool,
        /// Label sweeps executed.
        sweeps: usize,
        /// Steady-state rounds (label sweeps only).
        sweep_rounds: u64,
        /// Largest label used.
        max_label: u32,
        /// Clusters formed during setup.
        clusters: usize,
    },
    /// Global broadcast (Algorithm 8).
    GlobalBroadcast {
        /// Every node awake at the end?
        delivered_all: bool,
        /// Every relay also served its own neighbors?
        local_broadcast_ok: bool,
        /// Phase-by-phase progress.
        phases: Vec<PhaseRecord>,
        /// Final cluster of each node.
        cluster_of: Vec<Option<u64>>,
        /// Quality report over the final clustering.
        report: ClusteringReport,
    },
    /// Per-epoch cluster maintenance under dynamics.
    Maintenance {
        /// One report per epoch.
        epochs: Vec<EpochReport>,
        /// Aggregates (lifetimes, re-elections, violations).
        summary: MaintenanceSummary,
    },
    /// Theorem 4 wake-up.
    Wakeup {
        /// Everyone awake at window end?
        all_awake: bool,
        /// Clustering centers driving the window.
        centers: usize,
    },
    /// Theorem 5 leader election.
    Leader {
        /// Elected leader's ID.
        leader_id: u64,
        /// Binary-search probes used.
        probes: usize,
        /// The minimum ID over the candidate set the search ran on (the
        /// clustering's centers): the ID a correct election elects.
        min_center_id: u64,
    },
}

/// A structured scenario-run result (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Executed workload's stable name.
    pub workload: &'static str,
    /// Nodes deployed.
    pub n: usize,
    /// Network density Γ.
    pub density: usize,
    /// Max communication-graph degree Δ.
    pub max_degree: usize,
    /// Resolver backend every engine of the run used.
    pub resolver: ResolverKind,
    /// Simulated protocol rounds (maintenance: summed over epochs).
    pub rounds: u64,
    /// Total transmissions (≈ energy; maintenance: summed over epochs).
    pub transmissions: u64,
    /// Total successful receptions (maintenance: summed over epochs).
    pub receptions: u64,
    /// Resolver work counters (maintenance: accumulated over epochs).
    pub resolver_stats: ResolverStats,
    /// Rounds the engines replayed from recordings instead of resolving
    /// them (`EngineStats::replayed`; maintenance: summed over epochs).
    /// With `resolver_stats.rounds` it adds up to `rounds`.
    pub replayed: u64,
    /// Per-phase cost summary (always populated — the engine aggregates
    /// phase spans whether or not a tracer is attached, so traced and
    /// untraced runs render byte-identical reports).
    pub phases: Vec<PhaseSummary>,
    /// Workload-specific results.
    pub outcome: WorkloadOutcome,
}

impl Report {
    /// Copies engine-held counters into the header (internal to the
    /// runner, public for custom drivers).
    pub fn fill_engine(&mut self, engine: &Engine<'_>) {
        let s = engine.stats();
        self.rounds = s.rounds;
        self.transmissions = s.transmissions;
        self.receptions = s.receptions;
        self.resolver_stats = engine.resolver_stats();
        self.replayed = s.replayed;
        self.phases = engine.phase_table().summaries().to_vec();
    }

    /// True iff the workload's own success condition held (complete
    /// broadcast, full coverage, …). A maintenance run also needs every
    /// epoch's cluster radius within 2; a leader election, the minimum
    /// center ID elected. [`WorkloadOutcome::Empty`] is false.
    pub fn ok(&self) -> bool {
        match &self.outcome {
            WorkloadOutcome::Empty => false,
            WorkloadOutcome::Clustering { report, .. } => report.unassigned == 0,
            WorkloadOutcome::LocalBroadcast { complete, .. } => *complete,
            WorkloadOutcome::GlobalBroadcast {
                delivered_all,
                local_broadcast_ok,
                ..
            } => *delivered_all && *local_broadcast_ok,
            WorkloadOutcome::Maintenance { epochs, .. } => epochs
                .iter()
                .all(|e| e.report.unassigned == 0 && e.report.max_radius <= MAX_EPOCH_RADIUS),
            WorkloadOutcome::Wakeup { all_awake, .. } => *all_awake,
            WorkloadOutcome::Leader {
                leader_id,
                min_center_id,
                ..
            } => leader_id == min_center_id,
        }
    }

    /// Renders the whole report as markdown (header table plus a
    /// workload-specific section). Byte-deterministic in the report.
    pub fn to_markdown(&self) -> String {
        let mut out = format_table(
            &format!("scenario '{}' — workload {}", self.scenario, self.workload),
            &["n", "Γ", "Δ", "resolver", "rounds", "tx", "rx", "ok"],
            &[vec![
                self.n.to_string(),
                self.density.to_string(),
                self.max_degree.to_string(),
                self.resolver.to_string(),
                self.rounds.to_string(),
                self.transmissions.to_string(),
                self.receptions.to_string(),
                self.ok().to_string(),
            ]],
        );
        match &self.outcome {
            WorkloadOutcome::Empty => {}
            WorkloadOutcome::Clustering {
                centers,
                levels,
                report,
                ..
            } => {
                out.push_str(&format_table(
                    "clustering",
                    &[
                        "clusters",
                        "levels",
                        "max radius",
                        "clusters/unit ball",
                        "min center sep",
                        "unassigned",
                    ],
                    &[vec![
                        centers.to_string(),
                        levels.to_string(),
                        format!("{:.3}", report.max_radius),
                        report.max_clusters_per_unit_ball.to_string(),
                        format!("{:.3}", report.min_center_separation),
                        report.unassigned.to_string(),
                    ]],
                ));
            }
            WorkloadOutcome::LocalBroadcast {
                complete,
                sweeps,
                sweep_rounds,
                max_label,
                clusters,
            } => {
                out.push_str(&format_table(
                    "local broadcast",
                    &["complete", "clusters", "labels", "sweeps", "sweep rounds"],
                    &[vec![
                        complete.to_string(),
                        clusters.to_string(),
                        max_label.to_string(),
                        sweeps.to_string(),
                        sweep_rounds.to_string(),
                    ]],
                ));
            }
            WorkloadOutcome::GlobalBroadcast { phases, report, .. } => {
                let rows: Vec<Vec<String>> = phases
                    .iter()
                    .map(|p| {
                        vec![
                            p.phase.to_string(),
                            p.newly_awake.to_string(),
                            p.awake_total.to_string(),
                            p.rounds.to_string(),
                            p.stage1_rounds.to_string(),
                            p.stage2_rounds.to_string(),
                            p.stage3_rounds.to_string(),
                        ]
                    })
                    .collect();
                out.push_str(&format_table(
                    "global broadcast phases",
                    &[
                        "phase",
                        "newly awake",
                        "awake total",
                        "rounds",
                        "stage1",
                        "stage2",
                        "stage3",
                    ],
                    &rows,
                ));
                out.push_str(&format!(
                    "\nfinal clustering: {} clusters, max radius {:.3}, ≤{} per unit ball\n",
                    report.clusters, report.max_radius, report.max_clusters_per_unit_ball
                ));
            }
            WorkloadOutcome::Maintenance { epochs, summary } => {
                let rows: Vec<Vec<String>> = epochs.iter().map(epoch_row).collect();
                out.push_str(&format_table("maintenance epochs", &EPOCH_HEADERS, &rows));
                out.push_str(&format!(
                    "\nsummary: {} epochs, {} re-elections, {} violations, \
                     mean center lifetime {:.2}, max {}\n",
                    summary.epochs,
                    summary.total_re_elections,
                    summary.total_violations,
                    summary.mean_center_lifetime,
                    summary.max_center_lifetime
                ));
            }
            WorkloadOutcome::Wakeup { all_awake, centers } => {
                out.push_str(&format!(
                    "\nwake-up: all awake = {all_awake}, centers = {centers}\n"
                ));
            }
            WorkloadOutcome::Leader {
                leader_id, probes, ..
            } => {
                out.push_str(&format!(
                    "\nleader: id {leader_id} elected with {probes} probes\n"
                ));
            }
        }
        if !self.phases.is_empty() {
            let rows: Vec<Vec<String>> = self.phases.iter().map(phase_row).collect();
            out.push_str(&format_table("phase summary", &PHASE_HEADERS, &rows));
        }
        let rs = &self.resolver_stats;
        out.push_str(&format_table(
            "resolver work",
            &[
                "rounds",
                "replayed",
                "candidates",
                "short-circuited",
                "exact sums",
                "residual",
                "fallbacks",
                "field terms",
            ],
            &[vec![
                rs.rounds.to_string(),
                self.replayed.to_string(),
                rs.candidates.to_string(),
                rs.short_circuited.to_string(),
                rs.exact_sums.to_string(),
                rs.residual_decided.to_string(),
                rs.exact_fallbacks.to_string(),
                rs.field_terms.to_string(),
            ]],
        ));
        out
    }

    /// Prints [`Report::to_markdown`] to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }

    /// Writes the header row (plus per-epoch rows for maintenance) as CSV
    /// under `scenario_<name>.csv` via the shared emitter.
    pub fn write_csv(&self) {
        let headers = [
            "scenario",
            "workload",
            "n",
            "density",
            "max_degree",
            "resolver",
            "rounds",
            "tx",
            "rx",
            "ok",
            "rs_rounds",
            "replayed",
            "rs_candidates",
            "rs_short_circuited",
            "rs_exact_sums",
            "rs_residual_decided",
            "rs_exact_fallbacks",
            "rs_field_terms",
        ];
        let rs = &self.resolver_stats;
        let rows = vec![vec![
            self.scenario.clone(),
            self.workload.to_string(),
            self.n.to_string(),
            self.density.to_string(),
            self.max_degree.to_string(),
            self.resolver.to_string(),
            self.rounds.to_string(),
            self.transmissions.to_string(),
            self.receptions.to_string(),
            self.ok().to_string(),
            rs.rounds.to_string(),
            self.replayed.to_string(),
            rs.candidates.to_string(),
            rs.short_circuited.to_string(),
            rs.exact_sums.to_string(),
            rs.residual_decided.to_string(),
            rs.exact_fallbacks.to_string(),
            rs.field_terms.to_string(),
        ]];
        write_csv(&format!("scenario_{}", self.scenario), &headers, &rows);
        if !self.phases.is_empty() {
            let rows: Vec<Vec<String>> = self.phases.iter().map(phase_row).collect();
            write_csv(
                &format!("scenario_{}_phases", self.scenario),
                &PHASE_HEADERS,
                &rows,
            );
        }
        if let WorkloadOutcome::Maintenance { epochs, .. } = &self.outcome {
            let rows: Vec<Vec<String>> = epochs.iter().map(epoch_row).collect();
            write_csv(
                &format!("scenario_{}_epochs", self.scenario),
                &EPOCH_HEADERS,
                &rows,
            );
        }
    }
}

/// Hard bound on a maintenance epoch's cluster radius. Radii past the
/// paper's bound of 1 are counted per epoch as coverage violations
/// (heterogeneous power legitimately stretches them); a radius past 2
/// means maintenance no longer yields a 2-clustering, and the run fails.
const MAX_EPOCH_RADIUS: f64 = 2.0;

/// Column set of the per-phase summary table (reports + CSV artifacts).
const PHASE_HEADERS: [&str; 5] = ["phase", "spans", "rounds", "tx", "rx"];

/// Renders one phase summary as a row under [`PHASE_HEADERS`].
fn phase_row(p: &PhaseSummary) -> Vec<String> {
    vec![
        p.phase.clone(),
        p.spans.to_string(),
        p.rounds.to_string(),
        p.tx.to_string(),
        p.rx.to_string(),
    ]
}

/// Column set of the maintenance-epoch table (reports + CSV artifacts).
const EPOCH_HEADERS: [&str; 9] = [
    "epoch",
    "awake",
    "clusters",
    "re_elections",
    "retained",
    "violations",
    "max_radius",
    "clusters_per_ball",
    "rounds",
];

/// Renders one maintenance epoch as a row under [`EPOCH_HEADERS`].
fn epoch_row(r: &EpochReport) -> Vec<String> {
    vec![
        r.epoch.to_string(),
        r.awake.to_string(),
        r.clusters.to_string(),
        r.re_elections.to_string(),
        r.retained.to_string(),
        r.coverage_violations.to_string(),
        format!("{:.3}", r.report.max_radius),
        r.report.max_clusters_per_unit_ball.to_string(),
        r.rounds.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> Report {
        Report {
            scenario: "t".into(),
            workload: "clustering",
            n: 10,
            density: 3,
            max_degree: 2,
            resolver: ResolverKind::Naive,
            rounds: 5,
            transmissions: 4,
            receptions: 3,
            resolver_stats: Default::default(),
            replayed: 0,
            phases: Vec::new(),
            outcome: WorkloadOutcome::Empty,
        }
    }

    #[test]
    fn markdown_carries_the_header_fields() {
        let md = blank().to_markdown();
        assert!(md.contains("scenario 't'"));
        assert!(md.contains("| 10 | 3 | 2 | naive | 5 | 4 | 3 | false |"));
        assert!(md.contains("resolver work"));
    }

    #[test]
    fn markdown_renders_phase_rows_when_present() {
        let mut r = blank();
        r.phases.push(PhaseSummary {
            phase: "clustering".into(),
            spans: 1,
            rounds: 5,
            tx: 4,
            rx: 3,
        });
        let md = r.to_markdown();
        assert!(md.contains("phase summary"));
        assert!(md.contains("| clustering | 1 | 5 | 4 | 3 |"));
        assert!(
            !blank().to_markdown().contains("phase summary"),
            "no phases, no table"
        );
    }

    #[test]
    fn ok_tracks_the_outcome_kind() {
        let mut r = blank();
        assert!(!r.ok(), "Empty is never ok");
        r.outcome = WorkloadOutcome::Leader {
            leader_id: 9,
            probes: 4,
            min_center_id: 9,
        };
        assert!(r.ok());
        r.outcome = WorkloadOutcome::Leader {
            leader_id: 9,
            probes: 4,
            min_center_id: 3,
        };
        assert!(!r.ok(), "a leader other than the minimum center ID");
        r.outcome = WorkloadOutcome::LocalBroadcast {
            complete: false,
            sweeps: 1,
            sweep_rounds: 10,
            max_label: 2,
            clusters: 3,
        };
        assert!(!r.ok());
    }

    #[test]
    fn maintenance_radius_past_two_is_not_ok() {
        let epoch = |max_radius| EpochReport {
            epoch: 0,
            awake: 10,
            rounds: 5,
            clusters: 3,
            re_elections: 0,
            retained: 0,
            coverage_violations: 1,
            report: ClusteringReport {
                unassigned: 0,
                clusters: 3,
                max_radius,
                max_clusters_per_unit_ball: 2,
                min_center_separation: 1.0,
            },
            resolver: ResolverKind::Naive,
        };
        let summary = MaintenanceSummary {
            epochs: 2,
            total_rounds: 10,
            total_re_elections: 0,
            total_violations: 2,
            mean_center_lifetime: 2.0,
            max_center_lifetime: 2,
        };
        let mut r = blank();
        r.outcome = WorkloadOutcome::Maintenance {
            epochs: vec![epoch(1.06), epoch(2.0)],
            summary,
        };
        assert!(r.ok(), "radius 2 is within the hard bound");
        r.outcome = WorkloadOutcome::Maintenance {
            epochs: vec![epoch(1.06), epoch(2.5)],
            summary,
        };
        assert!(!r.ok(), "an epoch radius of 2.5 fails the run");
    }
}
