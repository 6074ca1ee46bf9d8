//! The unified runner: one execution path from a [`ScenarioSpec`] to a
//! [`Report`], shared by every experiment binary and example.
//!
//! What used to be hand-wired per driver — deploy → `Network` → `Engine`
//! → protocol → metrics, with per-binary `--resolver` plumbing and ad-hoc
//! deploy code — is one deterministic pipeline here:
//!
//! 1. [`Runner::build_network`] realizes the deployment layers over a
//!    single RNG seeded from the spec, applies the heterogeneous-power
//!    profile and ID-space settings;
//! 2. [`Runner::resolver_for`] picks the backend with one precedence
//!    everywhere: explicit override (CLI `--resolver` flag) → spec
//!    `resolver` line → the default (`aggregated`);
//! 3. [`Runner::run`] executes a [`Workload`] through `Engine` /
//!    `MaintenanceDriver` and returns the structured [`Report`].
//!
//! Everything is deterministic: the same spec produces byte-identical
//! reports on every run and every machine (the `scenario_smoke` CI job
//! gates on exactly that).

use crate::report::{Report, WorkloadOutcome};
use crate::spec::{DeployLayer, DynamicsSpec, ScenarioSpec, SpecError, Workload};
use crate::{scale, Scale};
use dcluster_core::check::{check_clustering, ClusteringReport};
use dcluster_core::clustering::clustering;
use dcluster_core::global_broadcast::global_broadcast;
use dcluster_core::leader::leader_election;
use dcluster_core::local_broadcast::local_broadcast;
use dcluster_core::maintenance::MaintenanceDriver;
use dcluster_core::wakeup::wakeup;
use dcluster_core::SeedSeq;
use dcluster_dynamics::{Churn, DynamicsModel, GroupDrift, RandomWalk, RandomWaypoint, World};
use dcluster_obs::{shared, JsonlSink, SharedTracer, TraceMeta};
use dcluster_sim::rng::Rng64;
use dcluster_sim::{deploy, Engine, Network, NetworkError, Point, ResolverKind, SinrParams};
use std::path::PathBuf;

/// Builds a connected uniform deployment targeting max degree ≈ `delta`
/// with `n` nodes, retrying seeds until the communication graph is
/// connected (falling back to a spined corridor, which always is). The
/// deterministic deployment behind [`DeployLayer::Degree`].
///
/// # Errors
///
/// Returns [`NetworkError::Empty`] when `n == 0` — callers get a proper
/// error to attach context to instead of a panic deep inside the builder.
pub fn connected_deployment(n: usize, delta: usize, seed: u64) -> Result<Network, NetworkError> {
    let comm_r = SinrParams::default().comm_radius();
    for attempt in 0..50 {
        let mut rng = Rng64::new(seed + attempt * 1000);
        let pts = deploy::uniform_with_target_degree(n, delta, comm_r, &mut rng);
        let net = Network::builder(pts).build()?;
        if net.comm_graph().is_connected() {
            return Ok(net);
        }
    }
    // Fall back to a spined corridor (always connected).
    let mut rng = Rng64::new(seed);
    let pts = deploy::corridor_with_spine(
        n,
        (n as f64 / delta.max(1) as f64).max(3.0),
        1.5,
        0.5,
        &mut rng,
    );
    Network::builder(pts).build()
}

/// The axis-aligned bounding box `[0, w]×[0, h]` the dynamics models
/// operate in (at least the unit square).
pub fn bounding_box(net: &Network) -> (f64, f64) {
    let mut w = 0.0f64;
    let mut h = 0.0f64;
    for p in net.points() {
        w = w.max(p.x);
        h = h.max(p.y);
    }
    (w.max(1.0), h.max(1.0))
}

/// Executes [`Workload`]s described by a [`ScenarioSpec`] (see the module
/// docs for the pipeline).
#[derive(Debug, Clone)]
pub struct Runner {
    spec: ScenarioSpec,
    override_resolver: Option<ResolverKind>,
    trace: Option<PathBuf>,
}

impl Runner {
    /// Wraps a spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        Self {
            spec,
            override_resolver: None,
            trace: None,
        }
    }

    /// Loads a `.scn` file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        Ok(Self::new(ScenarioSpec::load(path)?))
    }

    /// Pins the resolver backend ahead of everything else (the CLI
    /// `--resolver` flag of the bench binaries); `None` is a no-op.
    pub fn with_resolver_override(mut self, kind: Option<ResolverKind>) -> Self {
        self.override_resolver = kind.or(self.override_resolver);
        self
    }

    /// Streams a versioned JSONL trace of the run to `path` (the bench
    /// binaries' `--trace` flag); `None` is a no-op.
    /// An unwritable path fails the run with a [`SpecError`] naming it —
    /// same policy as `DCLUSTER_RESULTS_DIR`, never a panic. Tracing does
    /// not change the report: the per-phase aggregation is always on.
    pub fn with_trace(mut self, path: Option<PathBuf>) -> Self {
        self.trace = path.or(self.trace);
        self
    }

    /// The spec being executed.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The scale tier in force: the spec's pinned tier, else
    /// `DCLUSTER_SCALE`.
    pub fn scale(&self) -> Scale {
        self.spec.scale.unwrap_or_else(scale)
    }

    /// Realizes the deployment: layers over one shared RNG, then the
    /// heterogeneous-power profile (`dynamics het_power`) and ID-space
    /// settings. Deterministic in the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending spec section when the
    /// deployment layers realize to zero points (e.g. every layer has
    /// `n=0`), the ID settings are inconsistent with the node count, or a
    /// `dynamics het_power` spread is negative.
    pub fn build_network(&self) -> Result<Network, SpecError> {
        let layers = &self.spec.deploy.layers;
        if layers.is_empty() {
            return Err(SpecError {
                line: 0,
                msg: "deploy section: spec has no deploy layer".into(),
            });
        }
        let base = if let [DeployLayer::Degree { n, delta }] = layers[..] {
            let net = connected_deployment(n, delta, self.spec.seed).map_err(|e| SpecError {
                line: 0,
                msg: format!("deploy degree section (n={n} delta={delta}): {e}"),
            })?;
            self.with_id_settings(net.points().to_vec())?
        } else {
            let mut rng = Rng64::new(self.spec.seed);
            let mut pts: Vec<Point> = Vec::new();
            for layer in layers {
                match *layer {
                    DeployLayer::Uniform { n, side } => {
                        pts.extend(deploy::uniform_square(n, side, &mut rng))
                    }
                    DeployLayer::Degree { .. } => {
                        unreachable!("parse/validate rejects layered degree deployments")
                    }
                    DeployLayer::Clumped {
                        centers,
                        per,
                        sigma,
                        side,
                    } => pts.extend(deploy::gaussian_clusters(
                        centers, per, sigma, side, &mut rng,
                    )),
                    DeployLayer::Grid {
                        rows,
                        cols,
                        spacing,
                        jitter,
                    } => pts.extend(deploy::perturbed_grid(
                        rows, cols, spacing, jitter, &mut rng,
                    )),
                    DeployLayer::Corridor {
                        n,
                        length,
                        width,
                        spine,
                    } => pts.extend(deploy::corridor_with_spine(
                        n, length, width, spine, &mut rng,
                    )),
                    DeployLayer::Line { n, spacing } => pts.extend(deploy::line(n, spacing)),
                    DeployLayer::Ring { n, radius } => pts.extend(deploy::ring(n, radius)),
                }
            }
            self.with_id_settings(pts)?
        };
        // Heterogeneous power applies after deployment, exactly like the
        // historical drivers (sub-seed `seed ^ 3`).
        self.spec.dynamics.iter().try_fold(base, |net, d| match *d {
            DynamicsSpec::HetPower { spread } if spread < 0.0 => Err(SpecError {
                line: 0,
                msg: format!("dynamics het_power: spread must be ≥ 0, got {spread}"),
            }),
            DynamicsSpec::HetPower { spread } => Ok(dcluster_dynamics::with_power_profile(
                &net,
                spread,
                self.spec.seed ^ 3,
            )),
            _ => Ok(net),
        })
    }

    fn with_id_settings(&self, pts: Vec<Point>) -> Result<Network, SpecError> {
        let n = pts.len();
        let mut b = Network::builder(pts);
        if let Some(m) = self.spec.max_id {
            b = b.max_id(m);
        }
        if let Some(s) = self.spec.id_seed {
            b = b.seed(s);
        }
        b.build().map_err(|e| SpecError {
            line: 0,
            msg: format!("deploy section realized {n} nodes: {e}"),
        })
    }

    /// Rejects spec values the selectors and dynamics models cannot run
    /// with, before any protocol work: `params` `kappa`, `rho` or `sns_k`
    /// below 1, `params` that leave every selector schedule empty, and a
    /// `dynamics group` line with more groups than the `n` deployed nodes.
    fn check_values(&self, n: usize) -> Result<(), SpecError> {
        let p = &self.spec.params;
        let zero = [("kappa", p.kappa), ("rho", p.rho), ("sns_k", p.sns_k)]
            .into_iter()
            .find(|&(_, v)| v == 0);
        let groups = self.spec.dynamics.iter().find_map(|d| match *d {
            DynamicsSpec::Group { groups, .. } if groups > n => Some(groups),
            _ => None,
        });
        let msg = if let Some((key, _)) = zero {
            format!("params: {key} must be ≥ 1, got 0")
        } else if p.len_factor <= 0.0 && p.min_sched_len == 0 {
            format!(
                "params: min_sched_len=0 with len_factor={} leaves every schedule empty",
                p.len_factor
            )
        } else if let Some(groups) = groups {
            format!("dynamics group: groups={groups} exceeds the {n} deployed nodes")
        } else {
            return Ok(());
        };
        Err(SpecError { line: 0, msg })
    }

    /// The backend every engine of this run uses: the explicit override
    /// (CLI `--resolver`), else the spec's `resolver` line, else
    /// [`ResolverKind::default`]. The choice does not depend on the
    /// network; `_net` keeps the public signature its callers use.
    ///
    /// # Errors
    ///
    /// Never fails. The `Result` stays because callers outside the
    /// workspace (`perfbench`) already map its error.
    pub fn resolver_for(&self, _net: &Network) -> Result<ResolverKind, SpecError> {
        Ok(self
            .override_resolver
            .or(self.spec.resolver)
            .unwrap_or_default())
    }

    /// An engine over `net` with [`Runner::resolver_for`]'s backend — the
    /// one way every driver obtains its engine.
    ///
    /// # Errors
    ///
    /// Never fails, like [`Runner::resolver_for`]; the `Result` stays for
    /// the same callers.
    pub fn engine<'n>(&self, net: &'n Network) -> Result<Engine<'n>, SpecError> {
        Ok(Engine::with_resolver_kind(net, self.resolver_for(net)?))
    }

    /// Instantiates the spec's mobility/churn models over `net`'s bounding
    /// box ([`DynamicsSpec::HetPower`] is deploy-time and is skipped).
    /// Sub-seeds: mobility `seed ^ 1`, churn `seed ^ 2`.
    pub fn models(&self, net: &Network) -> Vec<Box<dyn DynamicsModel>> {
        let bounds = bounding_box(net);
        let n = net.len();
        let seed = self.spec.seed;
        let mut models: Vec<Box<dyn DynamicsModel>> = Vec::new();
        for d in &self.spec.dynamics {
            match *d {
                DynamicsSpec::Waypoint { speed, frac } => models.push(Box::new(
                    RandomWaypoint::new(n, bounds, speed, frac, seed ^ 1),
                )),
                DynamicsSpec::Walk { step, frac } => {
                    models.push(Box::new(RandomWalk::new(n, bounds, step, frac, seed ^ 1)))
                }
                DynamicsSpec::Group {
                    speed,
                    frac,
                    groups,
                } => models.push(Box::new(GroupDrift::new(
                    n,
                    bounds,
                    speed,
                    frac,
                    groups,
                    seed ^ 1,
                ))),
                DynamicsSpec::Churn { sleep, wake } => {
                    models.push(Box::new(Churn::new(seed ^ 2, sleep, wake)))
                }
                DynamicsSpec::HetPower { .. } => {}
            }
        }
        models
    }

    /// The maintenance epoch count in force: the spec's `epochs` line, or
    /// the scale tier's standard count when it says `0` ("tier-sized").
    pub fn epochs(&self) -> u64 {
        if self.spec.epochs > 0 {
            return self.spec.epochs;
        }
        match self.scale() {
            Scale::Ci => 3,
            Scale::Quick => 5,
            Scale::Full => 8,
        }
    }

    /// Runs the spec's own workload (`workload` line), defaulting to
    /// [`Workload::Clustering`].
    ///
    /// # Errors
    ///
    /// Propagates [`Runner::run`]'s spec errors.
    pub fn run_default(&self) -> Result<Report, SpecError> {
        let w = self.spec.workload.clone().unwrap_or(Workload::Clustering);
        self.run(&w)
    }

    /// Executes `workload` against a freshly built world and returns the
    /// structured report.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending spec section when the
    /// deployment realizes to zero nodes, a protocol parameter or dynamics
    /// model parameter is out of range, or a workload parameter is out of
    /// range for the realized deployment.
    pub fn run(&self, workload: &Workload) -> Result<Report, SpecError> {
        self.run_on(self.build_network()?, workload)
    }

    /// [`Runner::run`] over a caller-supplied network — for drivers that
    /// already built (and inspected) the deployment, so it is not paid
    /// for twice. `net` must come from [`Runner::build_network`] on the
    /// same spec for the report to be attributable to it.
    ///
    /// # Errors
    ///
    /// As [`Runner::run`], minus the deployment errors.
    pub fn run_on(&self, net: Network, workload: &Workload) -> Result<Report, SpecError> {
        self.check_values(net.len())?;
        let kind = self.resolver_for(&net)?;
        let params = self.spec.params;
        let mut seeds = SeedSeq::new(params.seed);
        // The trace sink fails eagerly (header write at create) so a bad
        // path surfaces here, naming it, before any work is done.
        let sink = match &self.trace {
            Some(path) => {
                let meta = TraceMeta {
                    scenario: self.spec.name.clone(),
                    workload: workload.name().to_string(),
                    n: net.len(),
                    resolver: kind.to_string(),
                    seed: self.spec.seed,
                };
                Some(shared(JsonlSink::create(path, &meta).map_err(|e| {
                    SpecError {
                        line: 0,
                        msg: format!("cannot write trace {}: {e}", path.display()),
                    }
                })?))
            }
            None => None,
        };
        let tracer: Option<SharedTracer> = sink.as_ref().map(|s| s.clone() as SharedTracer);
        let make_engine = || {
            let mut engine = Engine::with_resolver_kind(&net, kind);
            if let Some(t) = &tracer {
                engine.set_tracer(t.clone());
            }
            engine
        };
        let mut header = Report {
            scenario: self.spec.name.clone(),
            workload: workload.name(),
            n: net.len(),
            density: net.density(),
            max_degree: net.max_degree(),
            resolver: kind,
            rounds: 0,
            transmissions: 0,
            receptions: 0,
            resolver_stats: Default::default(),
            phases: Vec::new(),
            outcome: WorkloadOutcome::Empty,
        };
        match workload {
            Workload::Clustering => {
                let mut engine = make_engine();
                let all: Vec<usize> = (0..net.len()).collect();
                let cl = clustering(&mut engine, &params, &mut seeds, &all, net.density());
                let report = check_clustering(&net, &cl.cluster_of);
                header.fill_engine(&engine);
                header.outcome = WorkloadOutcome::Clustering {
                    centers: cl.centers.len(),
                    levels: cl.levels,
                    cluster_of: cl.cluster_of,
                    report,
                };
            }
            Workload::LocalBroadcast => {
                let mut engine = make_engine();
                let out = local_broadcast(&mut engine, &params, &mut seeds, net.density());
                header.fill_engine(&engine);
                header.outcome = WorkloadOutcome::LocalBroadcast {
                    complete: out.complete,
                    sweeps: out.sweeps,
                    sweep_rounds: out.sweep_rounds,
                    max_label: out.labeling.max_label(),
                    clusters: out.clustering.centers.len(),
                };
            }
            Workload::GlobalBroadcast { source, token } => {
                if *source >= net.len() {
                    return Err(SpecError {
                        line: 0,
                        msg: format!(
                            "workload global_broadcast: source {source} out of range \
                             (deployment has {} nodes)",
                            net.len()
                        ),
                    });
                }
                let mut engine = make_engine();
                let out = global_broadcast(
                    &mut engine,
                    &params,
                    &mut seeds,
                    *source,
                    net.density(),
                    *token,
                );
                let report = check_clustering(&net, &out.cluster_of);
                header.fill_engine(&engine);
                header.outcome = WorkloadOutcome::GlobalBroadcast {
                    delivered_all: out.delivered_all,
                    local_broadcast_ok: out.local_broadcast_ok,
                    phases: out.phases,
                    cluster_of: out.cluster_of,
                    report,
                };
            }
            Workload::Maintenance => {
                let mut world = World::new(net);
                let mut models = self.models(world.network());
                let mut driver = MaintenanceDriver::new(params);
                if let Some(t) = &tracer {
                    driver.set_tracer(t.clone());
                }
                let mut reports = Vec::new();
                for _ in 0..self.epochs() {
                    world.step(&mut models);
                    let awake = world.awake_nodes();
                    reports.push(driver.epoch(world.network(), kind, &mut seeds, &awake));
                }
                let es = driver.engine_stats();
                header.rounds = reports.iter().map(|r| r.rounds).sum();
                header.transmissions = es.transmissions;
                header.receptions = es.receptions;
                header.resolver_stats = driver.resolver_stats();
                header.phases = driver.phase_table().summaries().to_vec();
                header.outcome = WorkloadOutcome::Maintenance {
                    epochs: reports,
                    summary: driver.summary(),
                };
            }
            Workload::Wakeup { sources } => {
                if sources.is_empty() {
                    return Err(SpecError {
                        line: 0,
                        msg: "workload wakeup: sources is empty \
                              (at least one spontaneous node is needed)"
                            .into(),
                    });
                }
                for &s in sources {
                    if s >= net.len() {
                        return Err(SpecError {
                            line: 0,
                            msg: format!(
                                "workload wakeup: source {s} out of range \
                                 (deployment has {} nodes)",
                                net.len()
                            ),
                        });
                    }
                }
                let mut engine = make_engine();
                let out = wakeup(&mut engine, &params, &mut seeds, sources, net.density());
                header.fill_engine(&engine);
                header.outcome = WorkloadOutcome::Wakeup {
                    all_awake: out.all_awake,
                    centers: out.centers,
                };
            }
            Workload::LeaderElection => {
                let mut engine = make_engine();
                let out = leader_election(&mut engine, &params, &mut seeds, net.density());
                header.fill_engine(&engine);
                header.outcome = WorkloadOutcome::Leader {
                    leader_id: out.leader_id,
                    probes: out.probes,
                };
            }
        }
        if let (Some(sink), Some(path)) = (&sink, &self.trace) {
            sink.borrow_mut().finish().map_err(|e| SpecError {
                line: 0,
                msg: format!("cannot write trace {}: {e}", path.display()),
            })?;
        }
        Ok(header)
    }
}

/// Convenience for sub-protocol probes (the fig2/fig3/fig4 style
/// binaries): the clustering-quality report of an explicit assignment.
pub fn quality(net: &Network, cluster_of: &[Option<u64>]) -> ClusteringReport {
    check_clustering(net, cluster_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DynamicsSpec;

    #[test]
    fn connected_deployment_is_connected() {
        let net = connected_deployment(60, 8, 3).unwrap();
        assert!(net.comm_graph().is_connected());
        assert_eq!(net.len(), 60);
    }

    #[test]
    fn connected_deployment_rejects_zero_nodes_without_panicking() {
        assert_eq!(
            connected_deployment(0, 8, 3).unwrap_err(),
            dcluster_sim::NetworkError::Empty
        );
    }

    #[test]
    fn empty_deployment_yields_a_spec_error_naming_the_deploy_section() {
        // A syntactically valid spec whose layers realize to zero points
        // must produce a proper error, not a panic (regression: this used
        // to die on an `expect("nonempty")` deep inside the runner).
        let spec = ScenarioSpec::uniform("hollow", 1, 0, 2.0);
        let err = Runner::new(spec.clone()).build_network().unwrap_err();
        assert!(
            err.msg.contains("deploy"),
            "error must name the offending section, got: {err}"
        );
        let err = Runner::new(spec).run_default().unwrap_err();
        assert!(err.msg.contains("deploy"), "run_default propagates: {err}");

        let degree = ScenarioSpec::degree("hollow-degree", 1, 0, 8);
        let err = Runner::new(degree).build_network().unwrap_err();
        assert!(
            err.msg.contains("deploy degree"),
            "degree deployments name their section too, got: {err}"
        );
    }

    #[test]
    fn workload_sources_out_of_range_error_instead_of_panicking() {
        let spec = ScenarioSpec::uniform("oob", 5, 10, 2.0);
        let err = Runner::new(spec.clone())
            .run(&Workload::GlobalBroadcast {
                source: 10,
                token: 1,
            })
            .unwrap_err();
        assert!(err.msg.contains("global_broadcast"), "got: {err}");
        let err = Runner::new(spec)
            .run(&Workload::Wakeup { sources: vec![99] })
            .unwrap_err();
        assert!(err.msg.contains("wakeup"), "got: {err}");
    }

    #[test]
    fn layered_deployments_share_one_rng() {
        // Two layers must equal the historical "one rng threaded through
        // both generators" composition byte for byte.
        let spec = ScenarioSpec::new("fig1", 11)
            .layer(DeployLayer::Clumped {
                centers: 1,
                per: 10,
                sigma: 0.15,
                side: 0.1,
            })
            .layer(DeployLayer::Corridor {
                n: 30,
                length: 5.0,
                width: 1.0,
                spine: 0.45,
            });
        let got = Runner::new(spec).build_network().unwrap();
        let mut rng = Rng64::new(11);
        let mut pts = deploy::gaussian_clusters(1, 10, 0.15, 0.1, &mut rng);
        pts.extend(deploy::corridor_with_spine(30, 5.0, 1.0, 0.45, &mut rng));
        let want = Network::builder(pts).build().unwrap();
        assert_eq!(got.points(), want.points());
        assert_eq!(got.ids(), want.ids());
    }

    #[test]
    fn het_power_matches_the_historical_profile() {
        let spec = ScenarioSpec::degree("dyn", 0xD15C0, 40, 8)
            .dynamics(DynamicsSpec::HetPower { spread: 0.3 });
        let got = Runner::new(spec).build_network().unwrap();
        let base = connected_deployment(40, 8, 0xD15C0).unwrap();
        let want = dcluster_dynamics::with_power_profile(&base, 0.3, 0xD15C0 ^ 3);
        assert_eq!(got.powers(), want.powers());
        assert_eq!(got.points(), want.points());
    }

    #[test]
    fn resolver_precedence_override_beats_spec() {
        let spec = ScenarioSpec::uniform("r", 5, 30, 2.0).resolver(ResolverKind::Naive);
        let net = Runner::new(spec.clone()).build_network().unwrap();
        assert_eq!(
            Runner::new(spec.clone()).resolver_for(&net).unwrap(),
            ResolverKind::Naive,
            "spec line wins over the default"
        );
        assert_eq!(
            Runner::new(spec)
                .with_resolver_override(Some(ResolverKind::Aggregated))
                .resolver_for(&net)
                .unwrap(),
            ResolverKind::Aggregated,
            "explicit override wins over the spec"
        );
    }

    #[test]
    fn clustering_workload_covers_everyone() {
        let report = Runner::new(ScenarioSpec::uniform("q", 2024, 40, 3.0))
            .run(&Workload::Clustering)
            .unwrap();
        assert_eq!(report.n, 40);
        assert!(report.rounds > 0);
        let WorkloadOutcome::Clustering { report: q, .. } = &report.outcome else {
            panic!("wrong outcome kind");
        };
        assert_eq!(q.unassigned, 0);
    }

    #[test]
    fn maintenance_workload_reports_every_epoch() {
        let spec = ScenarioSpec::degree("m", 0xD15C0, 50, 8)
            .dynamics(DynamicsSpec::Waypoint {
                speed: 0.25,
                frac: 0.2,
            })
            .dynamics(DynamicsSpec::Churn {
                sleep: 0.08,
                wake: 0.35,
            })
            .epochs(2)
            .resolver(ResolverKind::Aggregated);
        let report = Runner::new(spec).run(&Workload::Maintenance).unwrap();
        let WorkloadOutcome::Maintenance { epochs, summary } = &report.outcome else {
            panic!("wrong outcome kind");
        };
        assert_eq!(epochs.len(), 2);
        assert_eq!(summary.epochs, 2);
        assert_eq!(report.rounds, epochs.iter().map(|e| e.rounds).sum::<u64>());
    }

    #[test]
    fn tracing_changes_nothing_and_reruns_are_byte_identical() {
        let spec = ScenarioSpec::uniform("traced", 7, 30, 2.5);
        let untraced = Runner::new(spec.clone())
            .run(&Workload::Clustering)
            .unwrap();
        let path = std::env::temp_dir().join("dcluster_runner_trace_test.jsonl");
        let traced = Runner::new(spec.clone())
            .with_trace(Some(path.clone()))
            .run(&Workload::Clustering)
            .unwrap();
        assert_eq!(untraced, traced, "a tracer must be observationally inert");
        assert_eq!(untraced.to_markdown(), traced.to_markdown());
        assert!(
            !untraced.phases.is_empty(),
            "phase aggregation is always on"
        );
        let first = std::fs::read(&path).unwrap();
        assert!(!first.is_empty());
        let _ = Runner::new(spec)
            .with_trace(Some(path.clone()))
            .run(&Workload::Clustering)
            .unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "trace reruns must be byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_trace_path_errors_naming_it() {
        let err = Runner::new(ScenarioSpec::uniform("badtrace", 7, 20, 2.0))
            .with_trace(Some("/definitely/not/writable/t.jsonl".into()))
            .run(&Workload::Clustering)
            .unwrap_err();
        assert!(err.msg.contains("cannot write trace"), "got: {err}");
        assert!(
            err.msg.contains("/definitely/not/writable/t.jsonl"),
            "error must name the path, got: {err}"
        );
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let spec = ScenarioSpec::uniform("det", 7, 35, 2.5).workload(Workload::LocalBroadcast);
        let a = Runner::new(spec.clone()).run_default().unwrap();
        let b = Runner::new(spec).run_default().unwrap();
        assert_eq!(a, b, "same spec, same report, byte for byte");
    }

    #[test]
    fn run_on_a_prebuilt_network_equals_run() {
        let spec = ScenarioSpec::uniform("prebuilt", 12, 30, 2.5);
        let runner = Runner::new(spec);
        let net = runner.build_network().unwrap();
        assert_eq!(
            runner.run_on(net, &Workload::Clustering).unwrap(),
            runner.run(&Workload::Clustering).unwrap(),
            "caller-supplied deployment must be indistinguishable"
        );
    }

    #[test]
    fn epochs_zero_means_tier_sized() {
        let base = ScenarioSpec::uniform("tier", 3, 20, 2.0).epochs(0);
        for (tier, want) in [(Scale::Ci, 3), (Scale::Quick, 5), (Scale::Full, 8)] {
            assert_eq!(Runner::new(base.clone().scale(tier)).epochs(), want);
        }
        assert_eq!(
            Runner::new(base.epochs(7)).epochs(),
            7,
            "explicit epoch counts pass through untouched"
        );
    }
}
