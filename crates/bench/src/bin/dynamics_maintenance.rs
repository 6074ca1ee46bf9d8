//! **Cluster maintenance under dynamics** — the dynamics subsystem's
//! experiment binary and CI gate.
//!
//! Two parts:
//!
//! 1. **Maintenance sweep** (protocol scale): a seeded scenario spec
//!    (degree deployment + the selected mobility/churn/power dynamics)
//!    runs through the unified Runner's maintenance workload; each epoch
//!    the `MaintenanceDriver` re-runs Theorem 1 clustering over the awake
//!    set and records cluster lifetimes, re-elections and coverage
//!    violations. Every resolver backend drives the identical scenario
//!    and must produce **identical** epoch reports; the primary backend's
//!    scenario is run twice and must be **byte-identical** across runs.
//! 2. **Incremental-vs-rebuild sweep** (10⁴–10⁵ nodes): a waypoint
//!    mobility workload where `k ≪ n` nodes move per epoch, comparing the
//!    wall clock of incremental world maintenance (`O(k·Δ)`) against
//!    rebuilding the network from scratch, with an equality audit of the
//!    maintained world against a rebuild.
//!
//! Flags: `--mobility none|waypoint|walk|group` (default `waypoint`),
//! `--churn on|off` (default `on`), `--power uniform|het` (default
//! `het`), `--resolver naive|aggregated` — the *primary* backend whose
//! run is recorded and rerun for the determinism check (default
//! `aggregated`; the other backend always runs too, for the agreement
//! gate) — or `--scenario <file>.scn` to run one committed spec through
//! the maintenance workload instead. A flag value outside these lists
//! exits with status 1 and a message naming the flag.
//! Tiers via `DCLUSTER_SCALE=ci|quick|full`; the `ci` tier exits non-zero
//! on any agreement/determinism/audit/coverage failure or if incremental
//! maintenance is slower than rebuilding.
//!
//! Output: markdown tables, `results/dynamics_maintenance.csv`,
//! `BENCH_dynamics.json`.

use dcluster_bench::{
    epoch_row, flag_value, or_exit, print_table, resolver_flag, run_scenario_flag, scale,
    write_csv, DynamicsSpec, Runner, Scale, ScenarioSpec, Workload, WorkloadOutcome, EPOCH_HEADERS,
};
use dcluster_core::maintenance::EpochReport;
use dcluster_dynamics::{MobilityKind, World};
use dcluster_sim::ResolverKind;
use std::time::Instant;

/// Fraction of nodes that are mobile in the maintenance sweep.
const MOBILE_FRAC: f64 = 0.2;
/// Heterogeneous power spread (powers in `[P, 1.3·P]`).
const POWER_SPREAD: f64 = 0.3;
/// Churn rates (awake→sleep, sleep→wake per epoch).
const P_SLEEP: f64 = 0.08;
const P_WAKE: f64 = 0.35;
/// Master scenario seed.
const SEED: u64 = 0xD15C0;

#[derive(Debug, Clone, Copy)]
struct Scenario {
    mobility: MobilityKind,
    churn: bool,
    het_power: bool,
}

fn scenario_from_flags() -> Scenario {
    let mobility = flag_value("--mobility")
        .map(|v| {
            or_exit(
                v.parse::<MobilityKind>()
                    .map_err(|e| format!("--mobility: {e}")),
            )
        })
        .unwrap_or(MobilityKind::Waypoint);
    let churn = or_exit(match flag_value("--churn").as_deref() {
        None | Some("on") | Some("true") => Ok(true),
        Some("off") | Some("false") => Ok(false),
        Some(other) => Err(format!("--churn: expected on|off, got '{other}'")),
    });
    let het_power = or_exit(match flag_value("--power").as_deref() {
        None | Some("het") | Some("heterogeneous") => Ok(true),
        Some("uniform") => Ok(false),
        Some(other) => Err(format!("--power: expected uniform|het, got '{other}'")),
    });
    Scenario {
        mobility,
        churn,
        het_power,
    }
}

/// The flag combination as a declarative spec: degree deployment seeded
/// with the historical master seed, dynamics with the historical
/// sub-seed derivations (mobility `seed^1`, churn `seed^2`, power
/// `seed^3` — the Runner's convention), default speeds matching
/// `MobilityKind::build`.
fn spec_for(sc: Scenario, n: usize, epochs: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::degree("dynamics-maintenance", SEED, n, 8)
        .epochs(epochs)
        .workload(Workload::Maintenance);
    spec = match sc.mobility {
        MobilityKind::None => spec,
        MobilityKind::Waypoint => spec.dynamics(DynamicsSpec::Waypoint {
            speed: 0.25,
            frac: MOBILE_FRAC,
        }),
        MobilityKind::Walk => spec.dynamics(DynamicsSpec::Walk {
            step: 0.2,
            frac: MOBILE_FRAC,
        }),
        MobilityKind::Group => spec.dynamics(DynamicsSpec::Group {
            speed: 0.2,
            frac: MOBILE_FRAC,
            groups: 4,
        }),
    };
    if sc.churn {
        spec = spec.dynamics(DynamicsSpec::Churn {
            sleep: P_SLEEP,
            wake: P_WAKE,
        });
    }
    if sc.het_power {
        spec = spec.dynamics(DynamicsSpec::HetPower {
            spread: POWER_SPREAD,
        });
    }
    spec
}

/// Runs the full maintenance scenario with one resolver backend; returns
/// the per-epoch reports (the deterministic fingerprint of the run).
fn run_scenario(spec: &ScenarioSpec, kind: ResolverKind) -> Vec<EpochReport> {
    let report = Runner::new(spec.clone())
        .with_resolver_override(Some(kind))
        .run(&Workload::Maintenance)
        .expect("sweep spec is valid"); // lint:allow(P1, reason = "spec_for builds a valid spec from any accepted flags")
    let WorkloadOutcome::Maintenance { epochs, .. } = report.outcome else {
        unreachable!("maintenance workload returns a maintenance outcome");
    };
    epochs
}

struct ScalingRow {
    n: usize,
    movers: usize,
    incr_ms: f64,
    rebuild_ms: f64,
}

/// Part 2: incremental world maintenance vs rebuild-from-scratch on a
/// large mobility workload (`k ≪ n` movers per epoch).
fn scaling_sweep(ns: &[usize], epochs: u64) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in ns {
        let side = (n as f64 / 40.0).sqrt() * 2.0; // ≈40 nodes per unit ball
        let net = Runner::new(ScenarioSpec::uniform(
            "dynamics-scaling",
            SEED + n as u64,
            n,
            side,
        ))
        .build_network()
        .expect("sweep spec is valid"); // lint:allow(P1, reason = "the built-in scaling spec is valid at every size")
        let mut world = World::new(net);
        // 1% movers: the sparse regime incremental maintenance targets.
        let mut model = MobilityKind::Waypoint
            .build(n, (side, side), 0.01, SEED ^ 1)
            .expect("waypoint"); // lint:allow(P1, reason = "waypoint mobility at a fixed 1% fraction is valid")
        let (mut incr_ms, mut rebuild_ms) = (0.0f64, 0.0f64);
        let mut movers = 0usize;
        for epoch in 0..epochs {
            let mut updates = Vec::new();
            model.advance(&world, &mut updates);
            movers += updates.len();
            // Incremental world apply vs rebuild-from-scratch.
            let t0 = Instant::now();
            world.apply(&updates);
            incr_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let _rebuilt = world.rebuilt_network();
            rebuild_ms += t1.elapsed().as_secs_f64() * 1e3;
            if epoch == epochs - 1 {
                world
                    .audit_incremental()
                    // lint:allow(P1, reason = "an audit failure is a bug, not bad input")
                    .expect("incremental world maintenance must equal a rebuild");
            }
        }
        rows.push(ScalingRow {
            n,
            movers,
            incr_ms,
            rebuild_ms,
        });
        eprintln!("scaling: n={n} done ({movers} moves over {epochs} epochs)");
    }
    rows
}

fn main() {
    if run_scenario_flag(Workload::Maintenance) {
        return;
    }
    let tier = scale();
    let sc = scenario_from_flags();
    let primary = resolver_flag().unwrap_or_default();
    let (n, epochs) = match tier {
        Scale::Ci => (80, 3),
        Scale::Quick => (150, 5),
        Scale::Full => (300, 8),
    };
    let scaling_ns: &[usize] = match tier {
        Scale::Ci => &[10_000],
        Scale::Quick => &[10_000, 20_000],
        Scale::Full => &[10_000, 50_000, 100_000],
    };
    println!(
        "# dynamics_maintenance — tier {tier:?}, mobility {}, churn {}, power {}, primary resolver {primary}",
        sc.mobility,
        if sc.churn { "on" } else { "off" },
        if sc.het_power { "het" } else { "uniform" },
    );
    let spec = spec_for(sc, n, epochs);

    // ---- Part 1: maintenance sweep, all backends + determinism check.
    let mut failures = 0u32;
    let reference = run_scenario(&spec, primary);
    let rerun = run_scenario(&spec, primary);
    if reference != rerun {
        eprintln!("FAIL: repeated {primary} runs are not byte-identical");
        failures += 1;
    }
    for kind in ResolverKind::ALL {
        if kind == primary {
            continue;
        }
        let got = run_scenario(&spec, kind);
        for (a, b) in reference.iter().zip(&got) {
            // The resolver field differs by construction; everything else
            // (clusters, lifetimes, violations, rounds) must be identical.
            let same = a.epoch == b.epoch
                && a.awake == b.awake
                && a.rounds == b.rounds
                && a.clusters == b.clusters
                && a.re_elections == b.re_elections
                && a.retained == b.retained
                && a.coverage_violations == b.coverage_violations
                && a.report == b.report;
            if !same {
                eprintln!(
                    "FAIL: {kind} disagrees with {primary} at epoch {} \
                     ({} vs {} clusters, {} vs {} rounds)",
                    a.epoch, b.clusters, a.clusters, b.rounds, a.rounds
                );
                failures += 1;
            }
        }
    }
    let unassigned_total: usize = reference.iter().map(|r| r.report.unassigned).sum();
    let violations_total: usize = reference.iter().map(|r| r.coverage_violations).sum();
    let worst_radius = reference
        .iter()
        .map(|r| r.report.max_radius)
        .fold(0.0f64, f64::max);

    let maint_table: Vec<Vec<String>> = reference.iter().map(epoch_row).collect();
    print_table(
        &format!("Maintenance sweep (n = {n}, {epochs} epochs, resolver {primary})"),
        &EPOCH_HEADERS,
        &maint_table,
    );
    write_csv("dynamics_maintenance", &EPOCH_HEADERS, &maint_table);

    // ---- Part 2: incremental vs rebuild scaling.
    let scaling = scaling_sweep(scaling_ns, 5);
    let scale_headers = ["n", "moves_total", "incr_ms", "rebuild_ms", "world_speedup"];
    let scale_table: Vec<Vec<String>> = scaling
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.movers.to_string(),
                format!("{:.2}", r.incr_ms),
                format!("{:.2}", r.rebuild_ms),
                format!("{:.1}x", r.rebuild_ms / r.incr_ms.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        "Incremental world maintenance vs rebuild-from-scratch (5 epochs, 1% movers)",
        &scale_headers,
        &scale_table,
    );
    write_json(sc, tier, primary, n, &reference, &scaling);

    // ---- CI gate.
    if unassigned_total > 0 {
        eprintln!("FAIL: {unassigned_total} awake node(s) left unclustered");
        failures += 1;
    }
    if worst_radius > 2.0 {
        // Hard sanity bound: maintenance must never degrade past a
        // 2-clustering. The per-epoch distance to the paper's radius-1
        // bound is recorded as `violations`, not gated (heterogeneous
        // power legitimately stretches it).
        eprintln!("FAIL: cluster radius {worst_radius:.3} exceeds the hard bound 2");
        failures += 1;
    }
    if tier == Scale::Ci {
        for r in &scaling {
            if r.incr_ms > r.rebuild_ms {
                eprintln!(
                    "FAIL: incremental maintenance slower than rebuild at n={} \
                     ({:.2} ms vs {:.2} ms)",
                    r.n, r.incr_ms, r.rebuild_ms
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} gate failure(s)");
        std::process::exit(1);
    }
    println!(
        "\nci gate: OK (byte-identical reruns, {} backends agree, \
         {violations_total} coverage violations recorded, worst radius {worst_radius:.3})",
        ResolverKind::ALL.len()
    );
}

/// Committed reference numbers (`BENCH_dynamics.json`).
fn write_json(
    sc: Scenario,
    tier: Scale,
    primary: ResolverKind,
    n: usize,
    reports: &[EpochReport],
    scaling: &[ScalingRow],
) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"dynamics_maintenance\",\n  \"tier\": \"{tier:?}\",\n  \
         \"mobility\": \"{}\",\n  \"churn\": {},\n  \"power\": \"{}\",\n  \
         \"resolver\": \"{primary}\",\n  \"n\": {n},\n  \"maintenance\": [\n",
        sc.mobility,
        sc.churn,
        if sc.het_power { "het" } else { "uniform" },
    ));
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"epoch\": {}, \"awake\": {}, \"clusters\": {}, \"re_elections\": {}, \
             \"retained\": {}, \"violations\": {}, \"max_radius\": {:.4}, \
             \"clusters_per_ball\": {}, \"rounds\": {}}}{}\n",
            r.epoch,
            r.awake,
            r.clusters,
            r.re_elections,
            r.retained,
            r.coverage_violations,
            r.report.max_radius,
            r.report.max_clusters_per_unit_ball,
            r.rounds,
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"incremental_vs_rebuild\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"moves\": {}, \"incr_ms\": {:.3}, \"rebuild_ms\": {:.3}}}{}\n",
            r.n,
            r.movers,
            r.incr_ms,
            r.rebuild_ms,
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write("BENCH_dynamics.json", &out) {
        Ok(()) => println!("[json] wrote BENCH_dynamics.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_dynamics.json: {e}"),
    }
}
