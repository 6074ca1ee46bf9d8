//! The four workloads: their inputs (benchmark-owned spec copies plus the
//! seed), one untraced execution each, and the output checks.
//!
//! Everything here goes through the program's public entry points:
//! `ScenarioSpec::parse`, `Runner::build_network`, `Runner::run_on`,
//! `Runner::engine` and `Engine::run` with a benchmark-owned
//! `RoundBehavior`. No resolver is pinned and no `DCLUSTER_*` variable is
//! read or set here, so every run takes the default path users get.

use dcluster_scenario::{Report, Runner, ScenarioSpec, WorkloadOutcome};
use dcluster_sim::{Engine, Network, RoundBehavior};
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};

/// Rounds per `field-20k` execution (≈ 75 ms each under the default
/// backend at n = 2·10⁴).
pub const FIELD_ROUNDS: u64 = 32;
/// `field-20k` transmit probability per node and round (|T| ≈ 1,000).
const FIELD_TX_PROB: f64 = 0.05;
/// The seed whose outputs are committed under `golden/`, the same for
/// every workload. At this seed each protocol workload runs its committed
/// spec unchanged.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload (names are fixed: later changes cite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig1Global,
    Fig1Jsonl,
    MaintHetpower,
    Field20k,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig1Global,
        Kind::Fig1Jsonl,
        Kind::MaintHetpower,
        Kind::Field20k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig1Global => "fig1-global",
            Kind::Fig1Jsonl => "fig1-jsonl",
            Kind::MaintHetpower => "maint-hetpower",
            Kind::Field20k => "field-20k",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn spec_text(self) -> &'static str {
        match self {
            Kind::Fig1Global | Kind::Fig1Jsonl => include_str!("../specs/fig1_phases.scn"),
            Kind::MaintHetpower => include_str!("../specs/maint_hetpower.scn"),
            Kind::Field20k => include_str!("../specs/field_20k.scn"),
        }
    }

    /// The committed output at [`DEFAULT_SEED`]. Tracing to a file does not
    /// change the Report, so both fig1 workloads share one.
    pub fn golden(self) -> &'static str {
        match self {
            Kind::Fig1Global | Kind::Fig1Jsonl => include_str!("../golden/fig1.txt"),
            Kind::MaintHetpower => include_str!("../golden/maint-hetpower.txt"),
            Kind::Field20k => include_str!("../golden/field-20k.txt"),
        }
    }

    pub fn is_protocol(self) -> bool {
        self != Kind::Field20k
    }
}

/// Parses the workload's spec and applies `seed`. The deployment (and,
/// for `maint-hetpower`, the dynamics streams derived from it) stays the
/// committed one, so every seed runs the same geometry; the seed moves
/// the protocol seed — the selector families every node derives — which
/// changes every round's transmitter set. At [`DEFAULT_SEED`] the spec is
/// exactly the committed one. `field-20k` takes its seed in
/// [`Rotate`] instead.
pub fn spec(kind: Kind, seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::parse(kind.spec_text()).map_err(|e| e.to_string())?;
    if kind.is_protocol() {
        spec.params.seed ^= seed ^ DEFAULT_SEED;
    }
    Ok(spec)
}

/// Set-up as users pay it: spec parse plus `Runner::build_network`.
/// `fig1-jsonl`'s runner streams its trace to a file under `tmp`.
pub fn setup(kind: Kind, seed: u64, tmp: &Path) -> Result<(Runner, Network), String> {
    let mut runner = Runner::new(spec(kind, seed)?);
    if kind == Kind::Fig1Jsonl {
        runner = runner.with_trace(Some(trace_path(tmp, "run")));
    }
    let net = runner.build_network().map_err(|e| e.to_string())?;
    Ok((runner, net))
}

/// What one execution produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Report(Box<Report>),
    Field(FieldOutcome),
}

impl Output {
    /// The backend the Runner chose for this execution.
    pub fn resolver(&self) -> String {
        match self {
            Output::Report(r) => r.resolver.to_string(),
            Output::Field(f) => f.resolver.clone(),
        }
    }
}

/// `field-20k`'s result: counters plus a digest of the reception stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldOutcome {
    pub resolver: String,
    pub density: usize,
    pub rounds: u64,
    pub transmissions: u64,
    pub receptions: u64,
    pub digest: u64,
}

/// Node `v` transmits in round `r` iff `hash(seed, v, r) < 0.05` — the
/// rotate shape of `BENCH_resolvers.json`: consecutive rounds are
/// unrelated, so nothing carries over between rounds.
#[derive(Debug)]
pub struct Rotate {
    seed: u64,
    threshold: u64,
    transmissions: u64,
    receptions: u64,
    digest: u64,
}

impl Rotate {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            threshold: (FIELD_TX_PROB * u64::MAX as f64) as u64,
            transmissions: 0,
            receptions: 0,
            digest: FNV_OFFSET,
        }
    }
}

impl RoundBehavior<u32> for Rotate {
    fn transmit(&mut self, _net: &Network, node: usize, round: u64) -> Option<u32> {
        let h = mix(mix(self.seed ^ 0x9e37_79b9_7f4a_7c15) ^ node as u64) ^ round;
        if mix(h) < self.threshold {
            self.transmissions += 1;
            Some(node as u32)
        } else {
            None
        }
    }

    fn receive(&mut self, _net: &Network, node: usize, round: u64, sender: usize, msg: &u32) {
        debug_assert_eq!(*msg as usize, sender);
        self.receptions += 1;
        for word in [round, node as u64, sender as u64] {
            self.digest = fnv(self.digest, &word.to_le_bytes());
        }
    }
}

/// The `field-20k` execution: engine creation, the density the protocols
/// would read, and the round batch.
pub fn run_field(runner: &Runner, net: &Network, seed: u64) -> Result<FieldOutcome, String> {
    let mut engine = runner.engine(net).map_err(|e| e.to_string())?;
    let density = net.density();
    field_rounds(&mut engine, density, seed)
}

/// The round batch shared by the untraced and traced `field-20k`
/// executions.
pub fn field_rounds(
    engine: &mut Engine<'_>,
    density: usize,
    seed: u64,
) -> Result<FieldOutcome, String> {
    let mut behavior = Rotate::new(seed);
    engine.run(&mut behavior, FIELD_ROUNDS);
    let stats = engine.stats();
    if stats.transmissions != behavior.transmissions || stats.receptions != behavior.receptions {
        return Err("engine counters disagree with the behavior's own".into());
    }
    Ok(FieldOutcome {
        resolver: engine.resolver_kind().to_string(),
        density,
        rounds: stats.rounds,
        transmissions: stats.transmissions,
        receptions: stats.receptions,
        digest: behavior.digest,
    })
}

/// Where `fig1-jsonl` writes its trace (inside the checkout).
pub fn trace_path(tmp: &Path, tag: &str) -> PathBuf {
    tmp.join(format!("fig1-jsonl-{tag}.jsonl"))
}

/// One untraced execution on a built network.
pub fn execute(kind: Kind, runner: &Runner, net: Network, seed: u64) -> Result<Output, String> {
    match kind {
        Kind::Field20k => run_field(runner, &net, seed).map(Output::Field),
        _ => {
            let workload = runner
                .spec()
                .workload
                .clone()
                .ok_or("spec has no workload")?;
            let report = runner.run_on(net, &workload).map_err(|e| e.to_string())?;
            Ok(Output::Report(Box::new(report)))
        }
    }
}

/// The trace `fig1-jsonl`'s Runner just wrote (removed once read), or
/// `None` for the other workloads.
pub fn take_run_trace(kind: Kind, tmp: &Path) -> Result<Option<TraceFile>, String> {
    if kind != Kind::Fig1Jsonl {
        return Ok(None);
    }
    let path = trace_path(tmp, "run");
    let trace = TraceFile::read(&path)?;
    let _ = std::fs::remove_file(&path);
    Ok(Some(trace))
}

/// A trace file's size and digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFile {
    pub bytes: u64,
    pub digest: u64,
}

impl TraceFile {
    /// Streams the file through the digest, so checking a trace does not
    /// raise the process's peak resident set.
    pub fn read(path: &Path) -> Result<Self, String> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut file = std::fs::File::open(path).map_err(err)?;
        let mut buf = vec![0u8; 1 << 16];
        let mut trace = Self {
            bytes: 0,
            digest: FNV_OFFSET,
        };
        loop {
            let n = file.read(&mut buf).map_err(err)?;
            if n == 0 {
                return Ok(trace);
            }
            trace.bytes += n as u64;
            trace.digest = fnv(trace.digest, &buf[..n]);
        }
    }
}

/// The resolver-invariant part of an execution's output, one fact per
/// line: everything in the Report except `resolver` and
/// `resolver_stats`; for `field-20k`, the counters and the digest of the
/// (round, receiver, sender) stream. The JSONL trace is left out: it names
/// the resolver and every round's cache operation, and its schema is
/// versioned, so neither a backend deletion nor a schema change fails it.
pub fn golden_text(output: &Output) -> String {
    let mut s = String::new();
    match output {
        Output::Field(f) => {
            let _ = writeln!(s, "density {}", f.density);
            let _ = writeln!(s, "rounds {}", f.rounds);
            let _ = writeln!(s, "transmissions {}", f.transmissions);
            let _ = writeln!(s, "receptions {}", f.receptions);
            let _ = writeln!(s, "reception_digest {:016x}", f.digest);
        }
        Output::Report(r) => {
            let _ = writeln!(s, "scenario {} workload {}", r.scenario, r.workload);
            let _ = writeln!(
                s,
                "n {} density {} max_degree {}",
                r.n, r.density, r.max_degree
            );
            let _ = writeln!(s, "rounds {}", r.rounds);
            let _ = writeln!(s, "transmissions {}", r.transmissions);
            let _ = writeln!(s, "receptions {}", r.receptions);
            for p in &r.phases {
                let _ = writeln!(
                    s,
                    "phase {} spans={} rounds={} tx={} rx={}",
                    p.phase, p.spans, p.rounds, p.tx, p.rx
                );
            }
            outcome_text(&mut s, &r.outcome);
            let _ = writeln!(s, "ok {}", r.ok());
        }
    }
    s
}

fn quality_line(s: &mut String, tag: &str, q: &dcluster_core::check::ClusteringReport) {
    let _ = writeln!(
        s,
        "{tag} unassigned={} clusters={} max_radius={:?} clusters_per_ball={} min_center_sep={:?}",
        q.unassigned,
        q.clusters,
        q.max_radius,
        q.max_clusters_per_unit_ball,
        q.min_center_separation
    );
}

fn outcome_text(s: &mut String, outcome: &WorkloadOutcome) {
    match outcome {
        WorkloadOutcome::GlobalBroadcast {
            delivered_all,
            local_broadcast_ok,
            phases,
            cluster_of,
            report,
            ..
        } => {
            let _ = writeln!(
                s,
                "global_broadcast delivered_all={delivered_all} local_broadcast_ok={local_broadcast_ok}"
            );
            for p in phases {
                let _ = writeln!(
                    s,
                    "bcast_phase {} newly_awake={} awake_total={} rounds={} stages={}/{}/{}",
                    p.phase,
                    p.newly_awake,
                    p.awake_total,
                    p.rounds,
                    p.stage1_rounds,
                    p.stage2_rounds,
                    p.stage3_rounds
                );
            }
            let _ = writeln!(s, "cluster_of {}", clusters_text(cluster_of));
            quality_line(s, "quality", report);
        }
        WorkloadOutcome::Maintenance {
            epochs, summary, ..
        } => {
            for e in epochs {
                let _ = writeln!(
                    s,
                    "epoch {} awake={} rounds={} clusters={} re_elections={} retained={} violations={}",
                    e.epoch,
                    e.awake,
                    e.rounds,
                    e.clusters,
                    e.re_elections,
                    e.retained,
                    e.coverage_violations
                );
                quality_line(s, "epoch_quality", &e.report);
            }
            let _ = writeln!(
                s,
                "summary epochs={} rounds={} re_elections={} violations={} mean_lifetime={:?} max_lifetime={}",
                summary.epochs,
                summary.total_rounds,
                summary.total_re_elections,
                summary.total_violations,
                summary.mean_center_lifetime,
                summary.max_center_lifetime
            );
        }
        other => {
            let _ = writeln!(s, "outcome {other:?}");
        }
    }
}

fn clusters_text(cluster_of: &[Option<u64>]) -> String {
    let ids: Vec<String> = cluster_of
        .iter()
        .map(|c| c.map_or("-".to_string(), |id| id.to_string()))
        .collect();
    ids.join(",")
}

/// Checks one execution. At [`DEFAULT_SEED`] the output must equal the
/// committed golden text; at any seed the workload's own `ok()` must hold.
pub fn check(kind: Kind, seed: u64, output: &Output) -> Result<(), String> {
    if let Output::Report(r) = output {
        if !r.ok() {
            return Err(format!("{}: Report::ok() is false", kind.name()));
        }
    }
    if seed == DEFAULT_SEED {
        let got = golden_text(output);
        let want = kind.golden();
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .find(|(g, w)| g != w)
                .map(|(g, w)| format!("got `{g}`, golden `{w}`"))
                .unwrap_or_else(|| "line counts differ".into());
            return Err(format!(
                "{}: output differs from golden: {first}",
                kind.name()
            ));
        }
    }
    Ok(())
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
