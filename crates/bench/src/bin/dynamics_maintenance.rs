//! **Cluster maintenance under dynamics** — the dynamics subsystem's
//! experiment binary and CI gate.
//!
//! A seeded scenario spec (degree deployment + the selected
//! mobility/churn/power dynamics) runs through the unified Runner's
//! maintenance workload; each epoch the `MaintenanceDriver` re-runs
//! Theorem 1 clustering over the awake set and records cluster lifetimes,
//! re-elections and coverage violations. Every resolver backend drives the
//! identical scenario and must produce **identical** epoch reports; the
//! primary backend's scenario is run twice and must be **byte-identical**
//! across runs.
//!
//! Flags: `--mobility none|waypoint|walk|group` (default `waypoint`),
//! `--churn on|off` (default `on`), `--power uniform|het` (default
//! `het`), `--resolver naive|aggregated` — the *primary* backend whose
//! run is recorded and rerun for the determinism check (default
//! `aggregated`; the other backend always runs too, for the agreement
//! gate) — or `--scenario <file>.scn` to run one committed spec through
//! the maintenance workload instead. A flag value outside these lists
//! exits with status 1 and a message naming the flag.
//! Tiers via `DCLUSTER_SCALE=ci|quick|full`; every tier exits non-zero
//! on any agreement, determinism or coverage failure.
//!
//! Output: markdown tables, `results/dynamics_maintenance.csv`,
//! `BENCH_dynamics.json`.

use dcluster_bench::{
    epoch_row, flag_value, or_exit, print_table, resolver_flag, run_scenario_flag, scale,
    write_csv, DynamicsSpec, Runner, Scale, ScenarioSpec, Workload, WorkloadOutcome, EPOCH_HEADERS,
};
use dcluster_core::maintenance::EpochReport;
use dcluster_dynamics::MobilityKind;
use dcluster_sim::ResolverKind;

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
    println!(
        "# dynamics_maintenance — tier {tier:?}, mobility {}, churn {}, power {}, primary resolver {primary}",
        sc.mobility,
        if sc.churn { "on" } else { "off" },
        if sc.het_power { "het" } else { "uniform" },
    );
    let spec = spec_for(sc, n, epochs);

    // ---- Maintenance sweep, all backends + determinism check.
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

    write_json(sc, tier, primary, n, &reference);

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
fn write_json(sc: Scenario, tier: Scale, primary: ResolverKind, n: usize, reports: &[EpochReport]) {
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
    out.push_str("  ]\n}\n");
    match std::fs::write("BENCH_dynamics.json", &out) {
        Ok(()) => println!("[json] wrote BENCH_dynamics.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_dynamics.json: {e}"),
    }
}
