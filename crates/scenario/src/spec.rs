//! The declarative scenario description and its text format.
//!
//! A [`ScenarioSpec`] is a complete, typed description of a workload:
//! deployment layers, dynamics models, protocol parameters, resolver
//! backend, seed and epochs. Specs live in `scenarios/*.scn`
//! files using a deterministic line-based text format — hand-rolled (no
//! serde), designed so that [`ScenarioSpec::parse`] and
//! [`ScenarioSpec::to_text`] round-trip exactly:
//! `parse(&spec.to_text()) == spec` for every representable spec.
//!
//! ## Format
//!
//! One directive per line; blank lines and `#` comments are ignored.
//!
//! ```text
//! # scenarios/dynamics_maintenance.scn: maintenance under mobility,
//! # churn and mixed radios
//! scenario dynamics-maintenance
//! seed 857536
//! epochs 5
//! workload maintenance
//! deploy degree n=150 delta=8
//! dynamics waypoint speed=0.25 frac=0.2
//! dynamics churn sleep=0.08 wake=0.35
//! dynamics het_power spread=0.3
//! ```
//!
//! `deploy` lines are **layers**: points accumulate in order, sharing one
//! deployment RNG seeded from `seed` — `clumped` hotspots over a `uniform`
//! background reproduce the paper's dense-area worry cases exactly. The
//! optional `params` line overrides [`ProtocolParams::practical`] field by
//! field; `resolver naive|aggregated` pins the backend; `max_id`/`id_seed`
//! control the ID space the way `NetworkBuilder::max_id`/`seed` do.

use dcluster_core::ProtocolParams;
use dcluster_sim::ResolverKind;
use std::fmt::Write as _;

/// Error from [`ScenarioSpec::parse`] / [`ScenarioSpec::load`]: the line it
/// happened on (1-based; 0 = file-level) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for file-level errors such as I/O).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, msg: impl Into<String>) -> SpecError {
    SpecError {
        line,
        msg: msg.into(),
    }
}

/// One deployment layer; layers accumulate points in order, sharing a
/// single RNG seeded from the spec seed (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum DeployLayer {
    /// `n` points uniform in `[0, side]²`.
    Uniform {
        /// Node count.
        n: usize,
        /// Square side.
        side: f64,
    },
    /// A connected uniform deployment targeting max degree ≈ `delta`
    /// (retries seeds until the communication graph is connected; falls
    /// back to a spined corridor). Must be the only layer: the retry loop
    /// owns the whole deployment.
    Degree {
        /// Node count.
        n: usize,
        /// Target max communication-graph degree.
        delta: usize,
    },
    /// Gaussian hotspot clusters: `centers` cluster centers uniform in
    /// `[0, side]²`, each with `per` points at N(0, sigma²) offsets.
    Clumped {
        /// Number of hotspots.
        centers: usize,
        /// Points per hotspot.
        per: usize,
        /// Offset standard deviation.
        sigma: f64,
        /// Field side.
        side: f64,
    },
    /// `rows × cols` grid with `spacing`, jittered by up to `jitter`.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Grid spacing.
        spacing: f64,
        /// Per-coordinate jitter bound.
        jitter: f64,
    },
    /// A corridor `length × width` with `n` uniform points plus a spine of
    /// points every `spine` along the center line (connected backbone).
    Corridor {
        /// Uniform point count (the spine adds more).
        n: usize,
        /// Corridor length.
        length: f64,
        /// Corridor width.
        width: f64,
        /// Spine spacing.
        spine: f64,
    },
    /// `n` points on a horizontal line with the given spacing.
    Line {
        /// Node count.
        n: usize,
        /// Point spacing.
        spacing: f64,
    },
    /// `n` points evenly spaced on a circle of the given radius.
    Ring {
        /// Node count.
        n: usize,
        /// Circle radius.
        radius: f64,
    },
}

/// The deployment part of a spec: an ordered stack of [`DeployLayer`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeploySpec {
    /// Layers, applied in order over one shared deployment RNG.
    pub layers: Vec<DeployLayer>,
}

/// One dynamics model of a scenario, mirroring `dcluster-dynamics`
/// (mobility / churn) and the deploy-time heterogeneous power profile.
///
/// Sub-seeds are derived from the spec seed: mobility models get
/// `seed ^ 1`, churn `seed ^ 2`, the power profile `seed ^ 3`. So a spec
/// alone pins a whole maintenance run, bit for bit
/// (`scenarios/dynamics_maintenance.scn` records the EXPERIMENTS.md one).
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsSpec {
    /// Random waypoint mobility over a `frac` mobile subset.
    Waypoint {
        /// Distance per epoch.
        speed: f64,
        /// Mobile fraction of the nodes.
        frac: f64,
    },
    /// Bounded random walk.
    Walk {
        /// Step length per epoch.
        step: f64,
        /// Mobile fraction of the nodes.
        frac: f64,
    },
    /// Group / hotspot drift.
    Group {
        /// Group drift speed per epoch.
        speed: f64,
        /// Mobile fraction of the nodes.
        frac: f64,
        /// Number of drifting groups.
        groups: usize,
    },
    /// Deterministic sleep/wake churn (node 0 anchored awake).
    Churn {
        /// Per-epoch sleep probability for awake nodes.
        sleep: f64,
        /// Per-epoch wake probability for asleep nodes.
        wake: f64,
    },
    /// Heterogeneous transmit power, applied at deployment: node powers in
    /// `[P, (1 + spread)·P]`, hashed from the spec seed.
    HetPower {
        /// Relative spread above the model power.
        spread: f64,
    },
}

/// What the [`crate::Runner`] executes against the scenario's world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1 clustering over the whole deployment.
    Clustering,
    /// The full stack: clustering + labeling + label-sweep local broadcast
    /// (Algorithm 7 / Theorem 2).
    LocalBroadcast,
    /// Global broadcast from `source` carrying `token` (Algorithm 8 /
    /// Theorem 3).
    GlobalBroadcast {
        /// Source node index.
        source: usize,
        /// Broadcast payload.
        token: u64,
    },
    /// Per-epoch cluster maintenance under the spec's dynamics models
    /// (`epochs` epochs of the `MaintenanceDriver` loop).
    Maintenance,
    /// Theorem 4 wake-up from the given spontaneous node indices.
    Wakeup {
        /// Spontaneously active node indices.
        sources: Vec<usize>,
    },
    /// Theorem 5 leader election over the whole network.
    LeaderElection,
}

impl Workload {
    /// Short stable name (reports, CSV, spec files).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Clustering => "clustering",
            Workload::LocalBroadcast => "local",
            Workload::GlobalBroadcast { .. } => "global",
            Workload::Maintenance => "maintenance",
            Workload::Wakeup { .. } => "wakeup",
            Workload::LeaderElection => "leader",
        }
    }
}

/// A complete, typed description of a workload. See the module docs for
/// the text format and [`crate::Runner`] for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports, CSV file names).
    pub name: String,
    /// Deployment master seed (also the root of dynamics sub-seeds).
    pub seed: u64,
    /// Epochs for the maintenance workload, which needs at least one
    /// (ignored by the others).
    pub epochs: u64,
    /// Pinned resolver backend; only a CLI `--resolver` outranks it, and
    /// `None` means the default (see `Runner::resolver_for`).
    pub resolver: Option<ResolverKind>,
    /// Default workload for file-driven runs; binaries may impose their
    /// own instead.
    pub workload: Option<Workload>,
    /// ID-space bound (`NetworkBuilder::max_id`); `None` = dense IDs.
    pub max_id: Option<u64>,
    /// ID shuffle seed (`NetworkBuilder::seed`); `None` = identity.
    pub id_seed: Option<u64>,
    /// Deployment layers.
    pub deploy: DeploySpec,
    /// Dynamics models, applied in order each epoch.
    pub dynamics: Vec<DynamicsSpec>,
    /// Protocol parameters (defaults to [`ProtocolParams::practical`]).
    pub params: ProtocolParams,
}

impl ScenarioSpec {
    /// An empty spec with the given name and seed; add layers with
    /// [`ScenarioSpec::layer`].
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            epochs: 1,
            resolver: None,
            workload: None,
            max_id: None,
            id_seed: None,
            deploy: DeploySpec::default(),
            dynamics: Vec::new(),
            params: ProtocolParams::practical(),
        }
    }

    /// A single-layer uniform deployment (`n` nodes in `[0, side]²`).
    pub fn uniform(name: impl Into<String>, seed: u64, n: usize, side: f64) -> Self {
        Self::new(name, seed).layer(DeployLayer::Uniform { n, side })
    }

    /// A connected deployment targeting max degree ≈ `delta`.
    pub fn degree(name: impl Into<String>, seed: u64, n: usize, delta: usize) -> Self {
        Self::new(name, seed).layer(DeployLayer::Degree { n, delta })
    }

    /// A spined-corridor deployment (the multi-hop workload).
    pub fn corridor(
        name: impl Into<String>,
        seed: u64,
        n: usize,
        length: f64,
        width: f64,
        spine: f64,
    ) -> Self {
        Self::new(name, seed).layer(DeployLayer::Corridor {
            n,
            length,
            width,
            spine,
        })
    }

    /// Appends a deployment layer.
    pub fn layer(mut self, layer: DeployLayer) -> Self {
        self.deploy.layers.push(layer);
        self
    }

    /// Appends a dynamics model.
    pub fn dynamics(mut self, d: DynamicsSpec) -> Self {
        self.dynamics.push(d);
        self
    }

    /// Sets the maintenance epoch count.
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self
    }

    /// Pins the resolver backend.
    pub fn resolver(mut self, kind: ResolverKind) -> Self {
        self.resolver = Some(kind);
        self
    }

    /// Sets the default workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = Some(w);
        self
    }

    /// Replaces the protocol parameters.
    pub fn params(mut self, p: ProtocolParams) -> Self {
        self.params = p;
        self
    }

    /// Sets the ID-space bound.
    pub fn max_id(mut self, max_id: u64) -> Self {
        self.max_id = Some(max_id);
        self
    }

    /// Sets the ID shuffle seed.
    pub fn id_seed(mut self, id_seed: u64) -> Self {
        self.id_seed = Some(id_seed);
        self
    }

    // ---- text format ----------------------------------------------------

    /// Renders the canonical text form. Guaranteed inverse of
    /// [`ScenarioSpec::parse`]: `parse(&spec.to_text()) == Ok(spec)`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# dcluster scenario");
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "epochs {}", self.epochs);
        if let Some(r) = self.resolver {
            let _ = writeln!(out, "resolver {r}");
        }
        if let Some(w) = &self.workload {
            let _ = writeln!(out, "{}", workload_line(w));
        }
        if let Some(m) = self.max_id {
            let _ = writeln!(out, "max_id {m}");
        }
        if let Some(i) = self.id_seed {
            let _ = writeln!(out, "id_seed {i}");
        }
        for l in &self.deploy.layers {
            let _ = writeln!(out, "{}", deploy_line(l));
        }
        for d in &self.dynamics {
            let _ = writeln!(out, "{}", dynamics_line(d));
        }
        if self.params != ProtocolParams::practical() {
            let p = self.params;
            let _ = writeln!(
                out,
                "params kappa={} rho={} sns_k={} mis_degree={} len_factor={} \
                 min_sched_len={} seed={} adaptive={} cap_factor={}",
                p.kappa,
                p.rho,
                p.sns_k,
                p.mis_degree,
                p.len_factor,
                p.min_sched_len,
                p.seed,
                p.adaptive,
                p.cap_factor
            );
        }
        out
    }

    /// Parses the text format (see the module docs). Unknown directives
    /// and malformed values are errors, never silently ignored.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = ScenarioSpec::new("scenario", 0);
        let mut saw_deploy = false;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kw, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match kw {
                "scenario" => {
                    if rest.is_empty() {
                        return Err(err(lineno, "scenario needs a name"));
                    }
                    spec.name = rest.to_string();
                }
                "seed" => spec.seed = parse_u64(rest).map_err(|m| err(lineno, m))?,
                "epochs" => spec.epochs = parse_u64(rest).map_err(|m| err(lineno, m))?,
                "resolver" => {
                    spec.resolver = Some(rest.parse::<ResolverKind>().map_err(|m| err(lineno, m))?);
                }
                "workload" => spec.workload = Some(parse_workload(rest, lineno)?),
                "max_id" => spec.max_id = Some(parse_u64(rest).map_err(|m| err(lineno, m))?),
                "id_seed" => spec.id_seed = Some(parse_u64(rest).map_err(|m| err(lineno, m))?),
                "deploy" => {
                    saw_deploy = true;
                    spec.deploy.layers.push(parse_deploy(rest, lineno)?);
                }
                "dynamics" => spec.dynamics.push(parse_dynamics(rest, lineno)?),
                "params" => {
                    let kv = KeyValues::parse(rest, lineno)?;
                    let mut p = spec.params;
                    for (k, v) in &kv.pairs {
                        match k.as_str() {
                            "kappa" => p.kappa = kv.get_usize(k)?,
                            "rho" => p.rho = kv.get_usize(k)?,
                            "sns_k" => p.sns_k = kv.get_usize(k)?,
                            "mis_degree" => p.mis_degree = kv.get_usize(k)?,
                            "len_factor" => p.len_factor = kv.get_f64(k)?,
                            "min_sched_len" => p.min_sched_len = kv.get_u64(k)?,
                            "seed" => p.seed = kv.get_u64(k)?,
                            "adaptive" => {
                                p.adaptive = match v.as_str() {
                                    "true" => true,
                                    "false" => false,
                                    other => {
                                        return Err(err(
                                            lineno,
                                            format!("adaptive: expected true|false, got '{other}'"),
                                        ))
                                    }
                                }
                            }
                            "cap_factor" => p.cap_factor = kv.get_f64(k)?,
                            other => {
                                return Err(err(lineno, format!("unknown params key '{other}'")))
                            }
                        }
                    }
                    spec.params = p;
                }
                other => return Err(err(lineno, format!("unknown directive '{other}'"))),
            }
        }
        if !saw_deploy {
            return Err(err(0, "spec has no deploy layer"));
        }
        if spec
            .deploy
            .layers
            .iter()
            .any(|l| matches!(l, DeployLayer::Degree { .. }))
            && spec.deploy.layers.len() > 1
        {
            return Err(err(
                0,
                "'deploy degree' owns the whole deployment and cannot be layered",
            ));
        }
        Ok(spec)
    }

    /// Reads and parses a `.scn` file; errors name the path.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text).map_err(|e| err(e.line, format!("{}: {}", path.display(), e.msg)))
    }
}

fn deploy_line(l: &DeployLayer) -> String {
    match *l {
        DeployLayer::Uniform { n, side } => format!("deploy uniform n={n} side={side}"),
        DeployLayer::Degree { n, delta } => format!("deploy degree n={n} delta={delta}"),
        DeployLayer::Clumped {
            centers,
            per,
            sigma,
            side,
        } => format!("deploy clumped centers={centers} per={per} sigma={sigma} side={side}"),
        DeployLayer::Grid {
            rows,
            cols,
            spacing,
            jitter,
        } => format!("deploy grid rows={rows} cols={cols} spacing={spacing} jitter={jitter}"),
        DeployLayer::Corridor {
            n,
            length,
            width,
            spine,
        } => format!("deploy corridor n={n} length={length} width={width} spine={spine}"),
        DeployLayer::Line { n, spacing } => format!("deploy line n={n} spacing={spacing}"),
        DeployLayer::Ring { n, radius } => format!("deploy ring n={n} radius={radius}"),
    }
}

fn dynamics_line(d: &DynamicsSpec) -> String {
    match *d {
        DynamicsSpec::Waypoint { speed, frac } => {
            format!("dynamics waypoint speed={speed} frac={frac}")
        }
        DynamicsSpec::Walk { step, frac } => format!("dynamics walk step={step} frac={frac}"),
        DynamicsSpec::Group {
            speed,
            frac,
            groups,
        } => format!("dynamics group speed={speed} frac={frac} groups={groups}"),
        DynamicsSpec::Churn { sleep, wake } => format!("dynamics churn sleep={sleep} wake={wake}"),
        DynamicsSpec::HetPower { spread } => format!("dynamics het_power spread={spread}"),
    }
}

fn workload_line(w: &Workload) -> String {
    match w {
        Workload::Clustering => "workload clustering".into(),
        Workload::LocalBroadcast => "workload local".into(),
        Workload::GlobalBroadcast { source, token } => {
            format!("workload global source={source} token={token}")
        }
        Workload::Maintenance => "workload maintenance".into(),
        Workload::Wakeup { sources } => {
            let list: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
            format!("workload wakeup sources={}", list.join(","))
        }
        Workload::LeaderElection => "workload leader".into(),
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("expected an unsigned integer, got '{s}'"))
}

/// The `k=v` tail of a directive, with typed accessors that name the key
/// in errors.
struct KeyValues {
    line: usize,
    pairs: Vec<(String, String)>,
}

impl KeyValues {
    fn parse(rest: &str, line: usize) -> Result<Self, SpecError> {
        let mut pairs = Vec::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| err(line, format!("expected key=value, got '{tok}'")))?;
            pairs.push((k.to_string(), v.to_string()));
        }
        Ok(Self { line, pairs })
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn raw(&self, key: &str) -> Result<&str, SpecError> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| err(self.line, format!("missing key '{key}'")))
    }

    fn get_u64(&self, key: &str) -> Result<u64, SpecError> {
        parse_u64(self.raw(key)?).map_err(|m| err(self.line, format!("{key}: {m}")))
    }

    fn get_usize(&self, key: &str) -> Result<usize, SpecError> {
        Ok(self.get_u64(key)? as usize)
    }

    fn get_f64(&self, key: &str) -> Result<f64, SpecError> {
        let v = self.raw(key)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| {
                err(
                    self.line,
                    format!("{key}: expected a finite number, got '{v}'"),
                )
            })
    }

    /// Rejects keys outside `allowed` (typo protection).
    fn expect_only(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(err(
                    self.line,
                    format!("unknown key '{k}' (expected one of {allowed:?})"),
                ));
            }
        }
        Ok(())
    }
}

fn parse_deploy(rest: &str, line: usize) -> Result<DeployLayer, SpecError> {
    let (kind, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let kv = KeyValues::parse(tail, line)?;
    let layer = match kind {
        "uniform" => {
            kv.expect_only(&["n", "side"])?;
            DeployLayer::Uniform {
                n: kv.get_usize("n")?,
                side: kv.get_f64("side")?,
            }
        }
        "degree" => {
            kv.expect_only(&["n", "delta"])?;
            DeployLayer::Degree {
                n: kv.get_usize("n")?,
                delta: kv.get_usize("delta")?,
            }
        }
        "clumped" => {
            kv.expect_only(&["centers", "per", "sigma", "side"])?;
            DeployLayer::Clumped {
                centers: kv.get_usize("centers")?,
                per: kv.get_usize("per")?,
                sigma: kv.get_f64("sigma")?,
                side: kv.get_f64("side")?,
            }
        }
        "grid" => {
            kv.expect_only(&["rows", "cols", "spacing", "jitter"])?;
            DeployLayer::Grid {
                rows: kv.get_usize("rows")?,
                cols: kv.get_usize("cols")?,
                spacing: kv.get_f64("spacing")?,
                jitter: kv.get_f64("jitter")?,
            }
        }
        "corridor" => {
            kv.expect_only(&["n", "length", "width", "spine"])?;
            DeployLayer::Corridor {
                n: kv.get_usize("n")?,
                length: kv.get_f64("length")?,
                width: kv.get_f64("width")?,
                spine: kv.get_f64("spine")?,
            }
        }
        "line" => {
            kv.expect_only(&["n", "spacing"])?;
            DeployLayer::Line {
                n: kv.get_usize("n")?,
                spacing: kv.get_f64("spacing")?,
            }
        }
        "ring" => {
            kv.expect_only(&["n", "radius"])?;
            DeployLayer::Ring {
                n: kv.get_usize("n")?,
                radius: kv.get_f64("radius")?,
            }
        }
        other => {
            return Err(err(
                line,
                format!(
                    "unknown deploy kind '{other}' \
                     (expected uniform|degree|clumped|grid|corridor|line|ring)"
                ),
            ))
        }
    };
    Ok(layer)
}

fn parse_dynamics(rest: &str, line: usize) -> Result<DynamicsSpec, SpecError> {
    let (kind, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let kv = KeyValues::parse(tail, line)?;
    let d = match kind {
        "waypoint" => {
            kv.expect_only(&["speed", "frac"])?;
            DynamicsSpec::Waypoint {
                speed: kv.get_f64("speed")?,
                frac: kv.get_f64("frac")?,
            }
        }
        "walk" => {
            kv.expect_only(&["step", "frac"])?;
            DynamicsSpec::Walk {
                step: kv.get_f64("step")?,
                frac: kv.get_f64("frac")?,
            }
        }
        "group" => {
            kv.expect_only(&["speed", "frac", "groups"])?;
            DynamicsSpec::Group {
                speed: kv.get_f64("speed")?,
                frac: kv.get_f64("frac")?,
                groups: kv.get_usize("groups")?,
            }
        }
        "churn" => {
            kv.expect_only(&["sleep", "wake"])?;
            DynamicsSpec::Churn {
                sleep: kv.get_f64("sleep")?,
                wake: kv.get_f64("wake")?,
            }
        }
        "het_power" => {
            kv.expect_only(&["spread"])?;
            DynamicsSpec::HetPower {
                spread: kv.get_f64("spread")?,
            }
        }
        other => {
            return Err(err(
                line,
                format!(
                    "unknown dynamics kind '{other}' \
                     (expected waypoint|walk|group|churn|het_power)"
                ),
            ))
        }
    };
    Ok(d)
}

fn parse_workload(rest: &str, line: usize) -> Result<Workload, SpecError> {
    let (kind, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let kv = KeyValues::parse(tail, line)?;
    let w = match kind {
        "clustering" => Workload::Clustering,
        "local" => Workload::LocalBroadcast,
        "global" => {
            kv.expect_only(&["source", "token"])?;
            // Absent keys take the defaults; present-but-malformed values
            // are errors like everywhere else in the parser.
            Workload::GlobalBroadcast {
                source: if kv.has("source") {
                    kv.get_usize("source")?
                } else {
                    0
                },
                token: if kv.has("token") {
                    kv.get_u64("token")?
                } else {
                    1
                },
            }
        }
        "maintenance" => Workload::Maintenance,
        "wakeup" => {
            kv.expect_only(&["sources"])?;
            let raw = kv.raw("sources")?;
            let mut sources = Vec::new();
            // An empty list is representable (`sources=`) so the canonical
            // text of every Wakeup value re-parses; execution rejects it.
            for part in raw.split(',').filter(|p| !p.is_empty()) {
                sources.push(
                    parse_u64(part).map_err(|m| err(line, format!("sources: {m}")))? as usize,
                );
            }
            Workload::Wakeup { sources }
        }
        "leader" => Workload::LeaderElection,
        other => {
            return Err(err(
                line,
                format!(
                    "unknown workload '{other}' \
                     (expected clustering|local|global|maintenance|wakeup|leader)"
                ),
            ))
        }
    };
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> ScenarioSpec {
        ScenarioSpec::new("kitchen-sink", 0xD15C0)
            .layer(DeployLayer::Clumped {
                centers: 3,
                per: 15,
                sigma: 0.25,
                side: 5.0,
            })
            .layer(DeployLayer::Uniform { n: 40, side: 5.0 })
            .dynamics(DynamicsSpec::Waypoint {
                speed: 0.25,
                frac: 0.2,
            })
            .dynamics(DynamicsSpec::Churn {
                sleep: 0.08,
                wake: 0.35,
            })
            .dynamics(DynamicsSpec::HetPower { spread: 0.3 })
            .epochs(5)
            .resolver(ResolverKind::Aggregated)
            .workload(Workload::Maintenance)
            .max_id(10_000)
            .id_seed(3)
    }

    #[test]
    fn rich_spec_round_trips() {
        let spec = rich_spec();
        let text = spec.to_text();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn custom_params_round_trip() {
        let mut p = ProtocolParams::practical();
        p.len_factor = 0.004;
        p.min_sched_len = 16;
        let spec = ScenarioSpec::uniform("ablate", 60, 80, 2.0).params(p);
        let text = spec.to_text();
        assert!(
            text.contains("params "),
            "non-default params must be emitted"
        );
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        let default = ScenarioSpec::uniform("d", 1, 10, 1.0);
        assert!(
            !default.to_text().contains("params "),
            "default params stay implicit"
        );
    }

    #[test]
    fn workload_forms_round_trip() {
        for w in [
            Workload::Clustering,
            Workload::LocalBroadcast,
            Workload::GlobalBroadcast {
                source: 7,
                token: 0xBEEF,
            },
            Workload::Maintenance,
            Workload::Wakeup {
                sources: vec![0, 15, 29],
            },
            Workload::LeaderElection,
        ] {
            let spec = ScenarioSpec::uniform("w", 1, 20, 2.0).workload(w.clone());
            assert_eq!(
                ScenarioSpec::parse(&spec.to_text()).unwrap().workload,
                Some(w)
            );
        }
    }

    #[test]
    fn comments_blanks_and_hex_are_accepted() {
        let text = "\n# header\n\nscenario t\nseed 0xD15C0\ndeploy uniform n=10 side=2\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.seed, 0xD15C0);
        assert_eq!(spec.name, "t");
        assert_eq!(
            spec.deploy.layers,
            [DeployLayer::Uniform { n: 10, side: 2.0 }]
        );
    }

    #[test]
    fn errors_name_the_line_and_problem() {
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2\nfrobnicate 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("frobnicate"), "{e}");
        let e = ScenarioSpec::parse("deploy uniform n=ten side=2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("unsigned integer"), "{e}");
        let e = ScenarioSpec::parse("seed 1\n").unwrap_err();
        assert!(e.msg.contains("no deploy layer"), "{e}");
        let e = ScenarioSpec::parse("deploy degree n=9 delta=3\ndeploy uniform n=1 side=1\n")
            .unwrap_err();
        assert!(e.msg.contains("cannot be layered"), "{e}");
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2 bogus=1\n").unwrap_err();
        assert!(e.msg.contains("unknown key 'bogus'"), "{e}");
        // Present-but-malformed workload values are errors, not silent
        // defaults (absent keys still default).
        let e = ScenarioSpec::parse("deploy uniform n=9 side=2\nworkload global source=5O\n")
            .unwrap_err();
        assert!(e.msg.contains("unsigned integer"), "{e}");
        let w = ScenarioSpec::parse("deploy uniform n=9 side=2\nworkload global\n")
            .unwrap()
            .workload;
        assert_eq!(
            w,
            Some(Workload::GlobalBroadcast {
                source: 0,
                token: 1
            })
        );
    }

    #[test]
    fn malformed_lines_report_the_line_number_and_offending_token() {
        // A truncated dynamics block (missing a required key) names the
        // key and the line it was expected on.
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2\ndynamics waypoint speed=0.25\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("missing key 'frac'"), "{e}");
        assert!(e.to_string().starts_with("line 2:"), "{e}");

        // A malformed float names the key and the rejected value.
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2.O\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("side"), "{e}");
        assert!(e.msg.contains("2.O"), "{e}");

        // A bare key=value token with no '=' is rejected where it sits.
        let e =
            ScenarioSpec::parse("deploy uniform n=10 side=2\ndynamics churn rate\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("key=value"), "{e}");

        // A resolver typo, or a retired backend, lists both valid ones.
        for stale in ["paralel", "grid", "parallel"] {
            let e = ScenarioSpec::parse(&format!("deploy uniform n=10 side=2\nresolver {stale}\n"))
                .unwrap_err();
            assert_eq!(e.line, 2);
            for backend in ["naive", "aggregated"] {
                assert!(e.msg.contains(backend), "error must list '{backend}': {e}");
            }
        }

        // Unknown dynamics and workload names are line-numbered too.
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2\ndynamics teleport frac=0.5\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2\nworkload frisbee\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn scale_is_an_unknown_directive() {
        let e = ScenarioSpec::parse("deploy uniform n=10 side=2\nscale quick\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown directive 'scale'"), "{e}");
    }

    #[test]
    fn empty_wakeup_sources_round_trip() {
        // Representable ⇒ canonically encodable ⇒ re-parseable, even for
        // the degenerate empty list (execution rejects it, not the format).
        let spec = ScenarioSpec::uniform("w", 1, 20, 2.0).workload(Workload::Wakeup {
            sources: Vec::new(),
        });
        assert_eq!(ScenarioSpec::parse(&spec.to_text()).unwrap(), spec);
    }
}
