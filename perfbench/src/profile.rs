//! The traced run: an outside-in per-layer profile.
//!
//! The program has no spans of its own yet, so the benchmark stamps the
//! seams it can reach from outside:
//!
//! * a `SinrResolver` wrapper around `kind.build()` (installed with
//!   `Engine::with_resolver`) stamps each resolve call;
//! * a `Tracer` (installed with `Engine::set_tracer` /
//!   `MaintenanceDriver::set_tracer`) stamps every event — and, for
//!   `fig1-jsonl`, forwards it to a `JsonlSink` and times the sink;
//! * the benchmark stamps its own calls into the program (density,
//!   `World::step`, `World::audit_incremental`, `MaintenanceDriver::epoch`,
//!   the protocol call and its check).
//!
//! Every interval between two consecutive stamps goes to exactly one
//! bucket, so the buckets partition the traced run: poll (previous round
//! event → resolve call), resolve, deliver (resolve return → round
//! event), whole rounds where the resolver cannot be stamped, and
//! otherwise the benchmark call in progress — with intervals inside a
//! protocol phase but outside any round counted as `core.off_round_s`.
//! The first round after a phase boundary has no clean start and is
//! counted off-round too. Phase self times come from the phase events.
//! Stamps and counts stay in memory and are turned into metrics at the end.

use crate::workload::{self, Kind, Output, TraceFile};
use dcluster_core::check::check_clustering;
use dcluster_core::global_broadcast::global_broadcast;
use dcluster_core::maintenance::MaintenanceDriver;
use dcluster_core::SeedSeq;
use dcluster_dynamics::World;
use dcluster_obs::{CacheOp, Event, JsonlSink, TraceMeta, Tracer};
use dcluster_scenario::{Runner, Workload, WorkloadOutcome};
use dcluster_sim::{Engine, Network, Reception, ResolverKind, ResolverStats, SinrResolver};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The phases `core` brackets on these workloads, in report order.
pub const PHASES: [&str; 6] = [
    "proximity",
    "mis",
    "sparsify",
    "labeling",
    "clustering",
    "global_broadcast",
];

/// Where a stamp came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stamp {
    Begin,
    End,
    PhaseStart,
    PhaseEnd,
    Round,
    ResolveStart,
    ResolveEnd,
    /// Any other event (maintenance epochs, event kinds added later).
    Other,
}

/// The layer an interval is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    Poll,
    Resolve,
    Deliver,
    /// A whole round whose resolve call cannot be stamped.
    Round,
    OffRound,
    Density,
    Step,
    Audit,
    Maintenance,
    Sink,
    /// The benchmark's patch-test replay inside an active round's
    /// resolve call (see `Stamped::start`).
    Replay,
    /// Benchmark glue between its own calls.
    Unattributed,
}

const BUCKETS: usize = 12;

#[derive(Debug, Clone, Default)]
struct PhaseAcc {
    name: &'static str,
    self_ns: u64,
    rounds: u64,
    silent: u64,
}

/// Timing tracer plus the counters derived from the event stream.
#[derive(Debug)]
pub struct Profiler {
    last: Instant,
    last_stamp: Stamp,
    calls: Vec<Bucket>,
    busy_ns: [u64; BUCKETS],
    /// In-round time since the last round event, and whether that span
    /// consisted of round intervals only.
    round_ns: u64,
    round_clean: bool,
    resolve_ns: Option<u64>,
    silent_round_ns: u64,
    silent_clean: u64,
    active_round_ns: Vec<u64>,
    active_resolve_ns: Vec<u64>,
    rounds: u64,
    silent: u64,
    tx: u64,
    rx: u64,
    tx_max: u64,
    cache_consulted: u64,
    cache_patched: u64,
    /// Active rounds the resolver saw, and those whose transmitter set a
    /// persistent field cache could have patched from the previous one.
    tx_sets: u64,
    patchable: u64,
    phases: Vec<PhaseAcc>,
    open: Vec<(usize, Instant, u64)>,
    sink: Option<JsonlSink>,
    sink_events: u64,
}

impl Profiler {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            last_stamp: Stamp::End,
            calls: Vec::new(),
            busy_ns: [0; BUCKETS],
            round_ns: 0,
            round_clean: false,
            resolve_ns: None,
            silent_round_ns: 0,
            silent_clean: 0,
            active_round_ns: Vec::new(),
            active_resolve_ns: Vec::new(),
            rounds: 0,
            silent: 0,
            tx: 0,
            rx: 0,
            tx_max: 0,
            cache_consulted: 0,
            cache_patched: 0,
            tx_sets: 0,
            patchable: 0,
            phases: Vec::new(),
            open: Vec::new(),
            sink: None,
            sink_events: 0,
        }
    }

    fn bucket(&self, prev: Stamp, cur: Stamp) -> Bucket {
        match (prev, cur) {
            (Stamp::Round, Stamp::ResolveStart) => Bucket::Poll,
            (Stamp::ResolveStart, Stamp::ResolveEnd) => Bucket::Resolve,
            (Stamp::ResolveEnd, Stamp::Round) => Bucket::Deliver,
            (Stamp::Round, Stamp::Round) => Bucket::Round,
            _ => match self.calls.last() {
                None => Bucket::Unattributed,
                Some(&b) if self.open.is_empty() => b,
                Some(_) => Bucket::OffRound,
            },
        }
    }

    fn stamp(&mut self, cur: Stamp) -> Instant {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        let b = self.bucket(self.last_stamp, cur);
        self.busy_ns[b as usize] += ns;
        match b {
            Bucket::Poll | Bucket::Resolve | Bucket::Deliver | Bucket::Round => self.round_ns += ns,
            _ => self.round_clean = false,
        }
        if b == Bucket::Resolve {
            self.resolve_ns = Some(ns);
        }
        self.last = now;
        self.last_stamp = cur;
        now
    }

    /// Charges the time since the last stamp to `b` without moving the
    /// interval chain (used for the trace sink inside an event).
    fn absorb(&mut self, b: Bucket) {
        let now = Instant::now();
        self.busy_ns[b as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    fn begin(&mut self, b: Bucket) {
        self.stamp(Stamp::Begin);
        self.calls.push(b);
    }

    fn end(&mut self) {
        self.stamp(Stamp::End);
        self.calls.pop();
    }

    fn on_round(&mut self, tx: u64, rx: u64, cache: Option<CacheOp>) {
        self.stamp(Stamp::Round);
        self.rounds += 1;
        self.tx += tx;
        self.rx += rx;
        self.tx_max = self.tx_max.max(tx);
        if tx == 0 {
            self.silent += 1;
            if self.round_clean {
                self.silent_round_ns += self.round_ns;
                self.silent_clean += 1;
            }
        } else {
            if self.round_clean {
                self.active_round_ns.push(self.round_ns);
            }
            if let Some(ns) = self.resolve_ns {
                self.active_resolve_ns.push(ns);
            }
        }
        match cache {
            Some(CacheOp::Patched { .. }) => {
                self.cache_consulted += 1;
                self.cache_patched += 1;
            }
            Some(_) => self.cache_consulted += 1,
            None => {}
        }
        if let Some(&(i, _, _)) = self.open.last() {
            self.phases[i].rounds += 1;
            self.phases[i].silent += u64::from(tx == 0);
        }
        self.round_ns = 0;
        self.round_clean = true;
        self.resolve_ns = None;
    }

    fn on_phase_start(&mut self, name: &'static str) {
        let now = self.stamp(Stamp::PhaseStart);
        let i = match self.phases.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => {
                self.phases.push(PhaseAcc {
                    name,
                    ..PhaseAcc::default()
                });
                self.phases.len() - 1
            }
        };
        self.open.push((i, now, 0));
    }

    fn on_phase_end(&mut self) {
        let now = self.stamp(Stamp::PhaseEnd);
        if let Some((i, start, child_ns)) = self.open.pop() {
            let span = now.duration_since(start).as_nanos() as u64;
            self.phases[i].self_ns += span.saturating_sub(child_ns);
            if let Some(parent) = self.open.last_mut() {
                parent.2 += span;
            }
        }
    }

    fn seconds(&self, b: Bucket) -> f64 {
        self.busy_ns[b as usize] as f64 * 1e-9
    }
}

impl Tracer for Profiler {
    fn on_event(&mut self, ev: &Event) {
        match ev {
            Event::PhaseStart { phase, .. } => self.on_phase_start(phase),
            Event::PhaseEnd { .. } => self.on_phase_end(),
            Event::Round { tx, rx, cache, .. } => self.on_round(*tx, *rx, *cache),
            _ => {
                self.stamp(Stamp::Other);
            }
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.on_event(ev);
            self.sink_events += 1;
            self.absorb(Bucket::Sink);
        }
    }
}

type Shared = Rc<RefCell<Profiler>>;

/// The resolver the Runner chose, stamped around every call.
#[derive(Debug)]
struct Stamped {
    inner: Box<dyn SinrResolver>,
    prof: Shared,
    prev_tx: Vec<usize>,
    prev_stamp: u64,
}

impl Stamped {
    fn new(inner: Box<dyn SinrResolver>, prof: Shared) -> Self {
        Self {
            inner,
            prof,
            prev_tx: Vec::new(),
            prev_stamp: 0,
        }
    }

    /// Stamps the start of a resolve call. On an active round it then
    /// replays the persistent field cache's patch test and charges the
    /// replay to a bucket of its own, so that neither poll nor resolve
    /// holds it. The test mirrors `FieldCache::obtain` and
    /// `FieldCache::try_patch` in `crates/sim/src/radio.rs` (same network
    /// stamp, both sets sorted, a diff no larger than half the two sets)
    /// and must follow them when that rule changes. Silent rounds never
    /// consult the cache and leave it as it was.
    fn start(&mut self, net: &Network, tx: &[usize]) {
        let mut prof = self.prof.borrow_mut();
        prof.stamp(Stamp::ResolveStart);
        if tx.is_empty() {
            return;
        }
        let sorted = tx.windows(2).all(|w| w[0] < w[1]);
        prof.tx_sets += 1;
        if sorted && !self.prev_tx.is_empty() && self.prev_stamp == net.stamp() {
            let (old, new) = (&self.prev_tx, tx);
            let (mut i, mut j, mut same) = (0, 0, 0);
            while i < old.len() && j < new.len() {
                match old[i].cmp(&new[j]) {
                    std::cmp::Ordering::Equal => {
                        same += 1;
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
            }
            let diff = old.len() + new.len() - 2 * same;
            if diff * 2 <= old.len() + new.len() {
                prof.patchable += 1;
            }
        }
        self.prev_tx.clear();
        self.prev_tx.extend_from_slice(tx);
        self.prev_stamp = if sorted { net.stamp() } else { 0 };
        prof.absorb(Bucket::Replay);
    }
}

impl SinrResolver for Stamped {
    fn kind(&self) -> ResolverKind {
        self.inner.kind()
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        self.start(net, transmitters);
        self.inner.resolve_into(net, transmitters, out);
        self.prof.borrow_mut().stamp(Stamp::ResolveEnd);
    }

    fn resolve(&mut self, net: &Network, transmitters: &[usize]) -> Vec<Reception> {
        self.start(net, transmitters);
        let out = self.inner.resolve(net, transmitters);
        self.prof.borrow_mut().stamp(Stamp::ResolveEnd);
        out
    }

    fn stats(&self) -> ResolverStats {
        self.inner.stats()
    }

    fn audit(&self, net: &Network) -> Result<(), String> {
        self.inner.audit(net)
    }

    fn last_cache_op(&self) -> Option<CacheOp> {
        self.inner.last_cache_op()
    }
}

/// One traced execution and what it measured.
#[derive(Debug)]
pub struct Traced {
    pub output: Output,
    pub run_s: f64,
    pub prof: Profiler,
    pub trace: Option<TraceFile>,
    pub stats: ResolverStats,
    pub het_power: bool,
    pub mutations: u64,
}

fn timed<T>(prof: &Shared, b: Bucket, f: impl FnOnce() -> T) -> T {
    prof.borrow_mut().begin(b);
    let out = f();
    prof.borrow_mut().end();
    out
}

/// Runs `kind` once through the same public functions `Runner::run_on`
/// calls, with the profiler's seams installed. `reference` is the
/// untraced Report of the same input; the traced one is built on a copy
/// of it and must come out equal.
pub fn traced_execution(
    kind: Kind,
    runner: &Runner,
    net: Network,
    seed: u64,
    reference: &Output,
    tmp: &Path,
) -> Result<Traced, String> {
    let prof: Shared = Rc::new(RefCell::new(Profiler::new()));
    let het_power = !net.has_uniform_power();
    let start = Instant::now();
    prof.borrow_mut().last = start;
    let resolver = runner.resolver_for(&net).map_err(|e| e.to_string())?;
    let stamped = |p: &Shared| Box::new(Stamped::new(resolver.build(), p.clone()));
    let mut mutations = 0;
    let mut trace_path = None;
    let (output, stats) = match (kind, reference) {
        (Kind::Field20k, _) => {
            let mut engine = Engine::with_resolver(&net, stamped(&prof));
            engine.set_tracer(prof.clone());
            let density = timed(&prof, Bucket::Density, || net.density());
            let out = timed(&prof, Bucket::OffRound, || {
                workload::field_rounds(&mut engine, density, seed)
            })?;
            (Output::Field(out), engine.resolver_stats())
        }
        (_, Output::Report(reference)) => {
            let spec = runner.spec();
            let workload = spec.workload.clone().ok_or("spec has no workload")?;
            let params = spec.params;
            let mut seeds = SeedSeq::new(params.seed);
            let mut report = reference.as_ref().clone();
            if kind == Kind::Fig1Jsonl {
                let meta = TraceMeta {
                    scenario: spec.name.clone(),
                    workload: workload.name().to_string(),
                    n: net.len(),
                    resolver: resolver.to_string(),
                    seed: spec.seed,
                };
                let path = workload::trace_path(tmp, "traced");
                let sink = JsonlSink::create(&path, &meta).map_err(|e| e.to_string())?;
                prof.borrow_mut().sink = Some(sink);
                trace_path = Some(path);
            }
            report.n = net.len();
            report.density = timed(&prof, Bucket::Density, || net.density());
            report.max_degree = net.max_degree();
            report.resolver = resolver;
            let stats = match workload {
                Workload::GlobalBroadcast { source, token } => {
                    let mut engine = Engine::with_resolver(&net, stamped(&prof));
                    engine.set_tracer(prof.clone());
                    let delta = timed(&prof, Bucket::Density, || net.density());
                    let (out, quality) = timed(&prof, Bucket::OffRound, || {
                        let out = global_broadcast(
                            &mut engine,
                            &params,
                            &mut seeds,
                            source,
                            delta,
                            token,
                        );
                        let quality = check_clustering(&net, &out.cluster_of);
                        (out, quality)
                    });
                    report.fill_engine(&engine);
                    match &mut report.outcome {
                        WorkloadOutcome::GlobalBroadcast {
                            delivered_all,
                            local_broadcast_ok,
                            phases,
                            cluster_of,
                            report: q,
                            ..
                        } => {
                            *delivered_all = out.delivered_all;
                            *local_broadcast_ok = out.local_broadcast_ok;
                            *phases = out.phases;
                            *cluster_of = out.cluster_of;
                            *q = quality;
                        }
                        _ => return Err("reference is not a global broadcast".into()),
                    }
                    engine.resolver_stats()
                }
                Workload::Maintenance => {
                    let mut world = World::new(net);
                    let mut models = runner.models(world.network());
                    let mut driver = MaintenanceDriver::new(params);
                    driver.set_tracer(prof.clone());
                    let mut epochs = Vec::new();
                    for _ in 0..runner.epochs() {
                        timed(&prof, Bucket::Step, || world.step(&mut models));
                        timed(&prof, Bucket::Audit, || world.audit_incremental())?;
                        let awake = world.awake_nodes();
                        let epoch = timed(&prof, Bucket::Maintenance, || {
                            driver.epoch(world.network(), resolver, &mut seeds, &awake)
                        });
                        epochs.push(epoch);
                    }
                    let ws = world.stats();
                    mutations = ws.moves + ws.power_changes;
                    let es = driver.engine_stats();
                    report.rounds = epochs.iter().map(|e| e.rounds).sum();
                    report.transmissions = es.transmissions;
                    report.receptions = es.receptions;
                    report.resolver_stats = driver.resolver_stats();
                    report.phases = driver.phase_table().summaries().to_vec();
                    match &mut report.outcome {
                        WorkloadOutcome::Maintenance {
                            epochs: e, summary, ..
                        } => {
                            *e = epochs;
                            *summary = driver.summary();
                        }
                        _ => return Err("reference is not a maintenance run".into()),
                    }
                    driver.resolver_stats()
                }
                other => return Err(format!("no traced replica for workload {}", other.name())),
            };
            (Output::Report(Box::new(report)), stats)
        }
        _ => return Err("reference output does not match the workload".into()),
    };
    // `Runner::run_on` flushes its sink before returning, so the traced
    // run does too, inside the timed span.
    let sink = prof.borrow_mut().sink.take();
    if let Some(mut sink) = sink {
        timed(&prof, Bucket::Sink, || sink.finish()).map_err(|e| e.to_string())?;
    }
    let run_s = start.elapsed().as_secs_f64();
    prof.borrow_mut().stamp(Stamp::End);
    let mut trace = None;
    if let Some(path) = trace_path {
        trace = Some(TraceFile::read(&path)?);
        let _ = std::fs::remove_file(&path);
    }
    let prof = Rc::try_unwrap(prof)
        .map_err(|_| "profiler still shared after the run")?
        .into_inner();
    Ok(Traced {
        output,
        run_s,
        prof,
        trace,
        stats,
        het_power,
        mutations,
    })
}

/// A per-layer metric: name, value, unit, and whether this workload
/// produces it at all (absent ones are reported with value 0 and listed).
pub type Metric = (String, f64, &'static str, bool);

fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let k = ((values.len() - 1) as f64 * q).round() as usize;
    *values.select_nth_unstable(k).1 as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the traced executions measured, averaged over `runs`
/// (time buckets) or taken from the last one (deterministic counts).
pub fn metrics(kind: Kind, runs: &[Traced], untraced_run_s: f64, build_s: f64) -> Vec<Metric> {
    let count = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Traced) -> f64| runs.iter().map(f).sum::<f64>() / count;
    let traced_run_s = mean(&|t| t.run_s);
    let traced_median = crate::median(runs.iter().map(|t| t.run_s).collect());
    let sec = |b: Bucket| mean(&|t| t.prof.seconds(b));
    let mut active_round: Vec<u64> = runs
        .iter()
        .flat_map(|t| t.prof.active_round_ns.iter().copied())
        .collect();
    let mut active_resolve: Vec<u64> = runs
        .iter()
        .flat_map(|t| t.prof.active_resolve_ns.iter().copied())
        .collect();
    let silent_ns: u64 = runs.iter().map(|t| t.prof.silent_round_ns).sum();
    let silent_n: u64 = runs.iter().map(|t| t.prof.silent_clean).sum();
    let last = runs.last().expect("at least one traced execution");
    let p = &last.prof;
    // `MaintenanceDriver::epoch` builds its own engine, so its resolve
    // calls cannot be stamped.
    let stamped = kind != Kind::MaintHetpower;
    let maint = kind == Kind::MaintHetpower;
    let jsonl = kind == Kind::Fig1Jsonl;
    let in_rounds =
        sec(Bucket::Poll) + sec(Bucket::Resolve) + sec(Bucket::Deliver) + sec(Bucket::Round);
    // The replay is the benchmark's own work inside rounds, so it is taken
    // out of the traced run before the layers are held to account for it.
    let replay_s = sec(Bucket::Replay);
    let attributed = traced_run_s - replay_s - sec(Bucket::Unattributed);
    let s = last.stats;
    let m = |name: &str, v: f64, unit: &'static str, present: bool| -> Metric {
        (
            name.to_string(),
            if present { v } else { 0.0 },
            unit,
            present,
        )
    };
    let mut out = vec![
        m("engine.rounds", p.rounds as f64, "count", true),
        m(
            "engine.silent_share",
            ratio(p.silent as f64, p.rounds as f64),
            "ratio",
            true,
        ),
        m(
            "engine.silent_round_ns",
            ratio(silent_ns as f64, silent_n as f64),
            "ns",
            silent_n > 0,
        ),
        m(
            "engine.active_round_ns_p50",
            quantile(&mut active_round, 0.5),
            "ns",
            !active_round.is_empty(),
        ),
        m(
            "engine.active_round_ns_p99",
            quantile(&mut active_round, 0.99),
            "ns",
            !active_round.is_empty(),
        ),
        m("engine.round_s", in_rounds, "s", true),
        m("engine.poll_s", sec(Bucket::Poll), "s", stamped),
        m("engine.deliver_s", sec(Bucket::Deliver), "s", stamped),
        m(
            "engine.tx_mean",
            ratio(p.tx as f64, (p.rounds - p.silent) as f64),
            "count",
            p.rounds > p.silent,
        ),
        m("engine.tx_max", p.tx_max as f64, "count", true),
        m(
            "engine.rx_per_tx",
            ratio(p.rx as f64, p.tx as f64),
            "ratio",
            p.tx > 0,
        ),
        m("radio.resolve_s", sec(Bucket::Resolve), "s", stamped),
        m(
            "radio.resolve_share",
            ratio(sec(Bucket::Resolve), traced_run_s),
            "ratio",
            stamped,
        ),
        m(
            "radio.resolve_ns_p50",
            quantile(&mut active_resolve, 0.5),
            "ns",
            stamped && !active_resolve.is_empty(),
        ),
        m(
            "radio.resolve_ns_p99",
            quantile(&mut active_resolve, 0.99),
            "ns",
            stamped && !active_resolve.is_empty(),
        ),
        m("radio.candidates", s.candidates as f64, "count", true),
        m(
            "radio.short_circuited",
            s.short_circuited as f64,
            "count",
            true,
        ),
        m("radio.exact_sums", s.exact_sums as f64, "count", true),
        m(
            "radio.residual_decided",
            s.residual_decided as f64,
            "count",
            true,
        ),
        m(
            "radio.exact_fallbacks",
            s.exact_fallbacks as f64,
            "count",
            true,
        ),
        m(
            "radio.decode_ratio",
            ratio(p.rx as f64, s.candidates as f64),
            "ratio",
            s.candidates > 0,
        ),
        m(
            "radio.cache_patch_share",
            ratio(p.cache_patched as f64, p.cache_consulted as f64),
            "ratio",
            p.cache_consulted > 0,
        ),
    ];
    for name in PHASES {
        let acc = p.phases.iter().position(|a| a.name == name);
        let self_s = mean(&|t| {
            t.prof
                .phases
                .iter()
                .find(|a| a.name == name)
                .map_or(0.0, |a| a.self_ns as f64 * 1e-9)
        });
        let (rounds, silent) = acc.map_or((0, 0), |i| (p.phases[i].rounds, p.phases[i].silent));
        out.push(m(
            &format!("phase.{name}.self_s"),
            self_s,
            "s",
            acc.is_some(),
        ));
        out.push(m(
            &format!("phase.{name}.rounds"),
            rounds as f64,
            "count",
            acc.is_some(),
        ));
        out.push(m(
            &format!("phase.{name}.silent_share"),
            ratio(silent as f64, rounds as f64),
            "ratio",
            acc.is_some() && rounds > 0,
        ));
    }
    let trace_bytes = last.trace.map_or(0, |t| t.bytes);
    out.extend([
        m("core.off_round_s", sec(Bucket::OffRound), "s", true),
        m("network.build_s", build_s, "s", true),
        m("network.density_s", sec(Bucket::Density), "s", true),
        m("dynamics.step_s", sec(Bucket::Step), "s", maint),
        m("dynamics.audit_s", sec(Bucket::Audit), "s", maint),
        m("maintenance.epoch_s", sec(Bucket::Maintenance), "s", maint),
        m("obs.sink_s", sec(Bucket::Sink), "s", jsonl),
        m("obs.trace_events", p.sink_events as f64, "count", jsonl),
        m("obs.trace_bytes", trace_bytes as f64, "bytes", jsonl),
        m("bench.traced_run_s", traced_run_s, "s", true),
        m(
            "bench.trace_overhead",
            ratio(traced_median, untraced_run_s) - 1.0,
            "ratio",
            untraced_run_s > 0.0,
        ),
        m(
            "bench.accounted_share",
            ratio(attributed, traced_run_s - replay_s),
            "ratio",
            true,
        ),
        m(
            "prop.het_power",
            f64::from(u8::from(last.het_power)),
            "flag",
            true,
        ),
        m("prop.mutations", last.mutations as f64, "count", true),
        m(
            "prop.patchable_share",
            ratio(p.patchable as f64, p.tx_sets as f64),
            "ratio",
            stamped && p.tx_sets > 0,
        ),
    ]);
    out
}
