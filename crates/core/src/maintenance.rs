//! Cluster maintenance under dynamics: re-run/repair clustering as the
//! world evolves, tracking stability and coverage metrics.
//!
//! The paper establishes its clustering once, on a static network. Real
//! ad hoc deployments move, sleep and wake (the regimes surveyed by the
//! MANET-clustering literature), so the natural operational loop is:
//! evolve the world one epoch, re-run Theorem 1 clustering over the
//! currently awake set, and measure what churn did to the cluster
//! structure. [`MaintenanceDriver`] is that loop's bookkeeping:
//!
//! * **cluster lifetime** — how many consecutive epochs a center-node ID
//!   stays a center (long lifetimes mean the deterministic re-clustering
//!   is stable under small perturbations);
//! * **re-elections** — centers appearing that were not centers the
//!   previous epoch;
//! * **coverage violations** — awake nodes left unassigned, members
//!   farther than 1 (the transmission range) from their center, or unit
//!   balls intersecting more than 16 clusters (the paper's two §1.3
//!   conditions, counted instead of asserted).
//!
//! The driver is resolver-agnostic and fully deterministic: the same
//! world history and seeds reproduce the same reports byte for byte, and
//! all resolver backends must produce identical reports (the scenario
//! gates hold `scenarios/ci_maintenance.scn` to both).

use crate::check::{check_clustering_on, ClusteringReport};
use crate::clustering::clustering;
use crate::params::ProtocolParams;
use crate::run::SeedSeq;
use dcluster_obs::{Event, PhaseTable, SharedTracer};
use dcluster_sim::{Engine, EngineStats, Network, ResolverKind, ResolverStats};
use std::collections::BTreeMap;

/// Max member-to-center distance before a member counts as a coverage
/// violation. The paper guarantees radius ≤ 1 (the transmission range); a
/// small slack absorbs boundary arithmetic.
const MAX_RADIUS: f64 = 1.0 + 1e-9;

/// Max clusters intersecting a unit ball before the excess counts as
/// violations (the paper guarantees O(1); the seed experiments observe
/// single digits).
const MAX_CLUSTERS_PER_BALL: usize = 16;

/// What one maintenance epoch did.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based, as counted by the driver).
    pub epoch: u64,
    /// Awake (participating) nodes this epoch.
    pub awake: usize,
    /// Simulated protocol rounds spent re-clustering.
    pub rounds: u64,
    /// Distinct clusters formed.
    pub clusters: usize,
    /// Centers that were not centers in the previous epoch (0 for the
    /// first epoch — the initial election is not a re-election).
    pub re_elections: usize,
    /// Centers retained from the previous epoch.
    pub retained: usize,
    /// Coverage violations: unassigned awake nodes + members beyond the
    /// radius bound + per-ball cluster excess (see module docs).
    pub coverage_violations: usize,
    /// The underlying quality report (restricted to the awake set).
    pub report: ClusteringReport,
    /// Backend that resolved every round of this epoch.
    pub resolver: ResolverKind,
}

/// Aggregates over a whole maintenance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceSummary {
    /// Epochs driven.
    pub epochs: u64,
    /// Total simulated rounds across all epochs.
    pub total_rounds: u64,
    /// Total re-elections (excluding the initial election).
    pub total_re_elections: u64,
    /// Total coverage violations.
    pub total_violations: u64,
    /// Mean center lifetime in epochs (streaks still alive at the end
    /// count with their current length).
    pub mean_center_lifetime: f64,
    /// Longest center lifetime observed.
    pub max_center_lifetime: u64,
}

/// An epoch asked to re-cluster an empty awake set: there is no node to
/// run the protocol on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoAwakeNodes;

impl std::fmt::Display for NoAwakeNodes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("maintenance needs at least one awake node")
    }
}

impl std::error::Error for NoAwakeNodes {}

/// Per-epoch re-clustering driver (see module docs).
#[derive(Debug, Clone)]
pub struct MaintenanceDriver {
    params: ProtocolParams,
    /// Center ID → epoch its current consecutive-center streak started.
    streaks: BTreeMap<u64, u64>,
    finished_lifetimes: Vec<u64>,
    epochs: u64,
    total_rounds: u64,
    total_re_elections: u64,
    total_violations: u64,
    tracer: Option<SharedTracer>,
    phases: PhaseTable,
    resolver_stats: ResolverStats,
    engine_stats: EngineStats,
}

impl MaintenanceDriver {
    /// Creates a driver with the given protocol parameters.
    pub fn new(params: ProtocolParams) -> Self {
        Self {
            params,
            streaks: BTreeMap::new(),
            finished_lifetimes: Vec::new(),
            epochs: 0,
            total_rounds: 0,
            total_re_elections: 0,
            total_violations: 0,
            tracer: None,
            phases: PhaseTable::new(),
            resolver_stats: ResolverStats::default(),
            engine_stats: EngineStats::default(),
        }
    }

    /// Attaches a tracer: each epoch's engine emits phase spans and round
    /// events through it, and the driver adds one `epoch` event per epoch.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Phase spans aggregated over every epoch run so far.
    pub fn phase_table(&self) -> &PhaseTable {
        &self.phases
    }

    /// Resolver work counters accumulated over every epoch run so far.
    pub fn resolver_stats(&self) -> ResolverStats {
        self.resolver_stats
    }

    /// Engine counters (rounds/tx/rx/replayed) accumulated over every
    /// epoch run so far — the maintenance analogue of [`Engine::stats`].
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Runs one maintenance epoch: re-clusters the awake set over the
    /// epoch's network (rebuilt by the world after any move) with the
    /// given resolver backend and updates lifetimes/re-election
    /// accounting. Under churn the schedules guarantee an anchor node.
    ///
    /// # Errors
    ///
    /// [`NoAwakeNodes`] when `awake` is empty; the driver is left as it
    /// was.
    pub fn try_epoch(
        &mut self,
        net: &Network,
        resolver: ResolverKind,
        seeds: &mut SeedSeq,
        awake: &[usize],
    ) -> Result<EpochReport, NoAwakeNodes> {
        if awake.is_empty() {
            return Err(NoAwakeNodes);
        }
        let mut engine = Engine::with_resolver_kind(net, resolver);
        if let Some(tracer) = &self.tracer {
            engine.set_tracer(tracer.clone());
        }
        let gamma = net.density().max(1);
        let cl = clustering(&mut engine, &self.params, seeds, awake, gamma);
        self.phases.merge(engine.phase_table());
        self.resolver_stats.absorb(&engine.resolver_stats());
        let es = engine.stats();
        self.engine_stats.rounds += es.rounds;
        self.engine_stats.transmissions += es.transmissions;
        self.engine_stats.receptions += es.receptions;
        self.engine_stats.replayed += es.replayed;
        let report = check_clustering_on(net, &cl.cluster_of, awake);

        // Lifetime / re-election accounting over center-node IDs.
        let epoch = self.epochs;
        let centers: std::collections::BTreeSet<u64> =
            cl.centers.iter().map(|&c| net.id(c)).collect();
        let retained = centers
            .iter()
            .filter(|c| self.streaks.contains_key(*c))
            .count();
        let new_centers = centers.len() - retained;
        let re_elections = if epoch == 0 { 0 } else { new_centers };
        let dethroned: Vec<u64> = self
            .streaks
            .keys()
            .filter(|c| !centers.contains(*c))
            .copied()
            .collect();
        for c in dethroned {
            let birth = self.streaks.remove(&c).expect("key just listed"); // lint:allow(P1, reason = "key just listed from the same map")
            self.finished_lifetimes.push(epoch - birth);
        }
        for &c in &centers {
            self.streaks.entry(c).or_insert(epoch);
        }

        // Coverage violations: unassigned + radius breaches + ball excess.
        let radius_breaches = awake
            .iter()
            .filter(|&&v| {
                cl.cluster_of[v]
                    .and_then(|c| net.index_of(c))
                    .is_some_and(|center| net.pos(v).dist(net.pos(center)) > MAX_RADIUS)
            })
            .count();
        let ball_excess = report
            .max_clusters_per_unit_ball
            .saturating_sub(MAX_CLUSTERS_PER_BALL);
        let coverage_violations = report.unassigned + radius_breaches + ball_excess;

        self.epochs += 1;
        self.total_rounds += cl.rounds;
        self.total_re_elections += re_elections as u64;
        self.total_violations += coverage_violations as u64;
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().on_event(&Event::Epoch {
                epoch,
                rounds: cl.rounds,
                re_elections: re_elections as u64,
                violations: coverage_violations as u64,
            });
        }
        Ok(EpochReport {
            epoch,
            awake: awake.len(),
            rounds: cl.rounds,
            clusters: report.clusters,
            re_elections,
            retained,
            coverage_violations,
            report,
            resolver,
        })
    }

    /// [`MaintenanceDriver::try_epoch`] for callers whose awake set is
    /// never empty: the workload benchmark's maintenance replica calls it.
    ///
    /// # Panics
    ///
    /// Panics if `awake` is empty.
    pub fn epoch(
        &mut self,
        net: &Network,
        resolver: ResolverKind,
        seeds: &mut SeedSeq,
        awake: &[usize],
    ) -> EpochReport {
        self.try_epoch(net, resolver, seeds, awake)
            .unwrap_or_else(|e| panic!("{e}")) // lint:allow(P1, reason = "documented panic for callers with a nonempty awake set; Runner calls try_epoch")
    }

    /// Aggregate metrics so far. Streaks still alive contribute their
    /// current length (`epochs − birth`).
    pub fn summary(&self) -> MaintenanceSummary {
        let mut lifetimes = self.finished_lifetimes.clone();
        lifetimes.extend(self.streaks.values().map(|&birth| self.epochs - birth));
        let mean = if lifetimes.is_empty() {
            0.0
        } else {
            lifetimes.iter().sum::<u64>() as f64 / lifetimes.len() as f64
        };
        MaintenanceSummary {
            epochs: self.epochs,
            total_rounds: self.total_rounds,
            total_re_elections: self.total_re_elections,
            total_violations: self.total_violations,
            mean_center_lifetime: mean,
            max_center_lifetime: lifetimes.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn field(n: usize, seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        Network::builder(deploy::uniform_square(n, 2.5, &mut rng))
            .build()
            .unwrap()
    }

    #[test]
    fn static_world_keeps_its_centers_forever() {
        let net = field(40, 402);
        let params = ProtocolParams::practical();
        let mut driver = MaintenanceDriver::new(params);
        let awake: Vec<usize> = (0..net.len()).collect();
        let mut first_clusters = 0;
        for e in 0..3u64 {
            // Fresh seeds per epoch: the protocol is deterministic, so a
            // static world re-elects the exact same centers every time.
            let mut seeds = SeedSeq::new(params.seed);
            let rep = driver.epoch(&net, ResolverKind::Aggregated, &mut seeds, &awake);
            assert_eq!(rep.epoch, e);
            assert_eq!(rep.coverage_violations, 0, "static coverage is clean");
            if e == 0 {
                first_clusters = rep.clusters;
            } else {
                assert_eq!(rep.re_elections, 0, "no churn, no re-election");
                assert_eq!(rep.clusters, first_clusters);
                assert_eq!(rep.retained, first_clusters);
            }
        }
        let s = driver.summary();
        assert_eq!(s.epochs, 3);
        assert_eq!(s.total_re_elections, 0);
        assert_eq!(s.total_violations, 0);
        assert!((s.mean_center_lifetime - 3.0).abs() < 1e-9);
        assert_eq!(s.max_center_lifetime, 3);
    }

    #[test]
    fn shrinking_awake_set_is_tracked() {
        let net = field(30, 77);
        let params = ProtocolParams::practical();
        let mut driver = MaintenanceDriver::new(params);
        let mut seeds = SeedSeq::new(params.seed);
        let all: Vec<usize> = (0..net.len()).collect();
        let rep_all = driver.epoch(&net, ResolverKind::Aggregated, &mut seeds, &all);
        assert_eq!(rep_all.awake, 30);
        let half: Vec<usize> = (0..net.len()).step_by(2).collect();
        let rep_half = driver.epoch(&net, ResolverKind::Aggregated, &mut seeds, &half);
        assert_eq!(rep_half.awake, 15);
        assert_eq!(
            rep_half.coverage_violations, 0,
            "every awake node must still be covered"
        );
        assert!(driver.summary().epochs == 2);
    }

    #[test]
    fn empty_awake_set_is_rejected() {
        let net = field(10, 5);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut driver = MaintenanceDriver::new(params);
        let err = driver
            .try_epoch(&net, ResolverKind::Aggregated, &mut seeds, &[])
            .unwrap_err();
        assert_eq!(err, NoAwakeNodes);
        assert_eq!(err.to_string(), "maintenance needs at least one awake node");
        assert_eq!(
            driver.summary().epochs,
            0,
            "a rejected epoch counts for nothing"
        );
    }
}
