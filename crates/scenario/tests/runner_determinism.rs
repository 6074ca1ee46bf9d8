//! Golden-report determinism: the committed `scenarios/*.scn` files must
//! parse, round-trip through the canonical text form, and produce
//! byte-identical [`Report`]s (and renderings) across repeated runs —
//! the same contract the `scenario_smoke` CI job gates on, enforced here
//! at test time for every committed spec.

use dcluster_scenario::{Runner, ScenarioSpec, Workload, WorkloadOutcome};
use dcluster_sim::ResolverStats;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_specs() -> Vec<(PathBuf, ScenarioSpec)> {
    let mut out: Vec<(PathBuf, ScenarioSpec)> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "scn")).then(|| {
                let spec = ScenarioSpec::load(&path)
                    .unwrap_or_else(|e| panic!("committed spec must parse: {e}"));
                (path, spec)
            })
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 10, "the starter scenario library is committed");
    out
}

#[test]
fn every_committed_spec_round_trips_through_the_canonical_form() {
    for (path, spec) in committed_specs() {
        let reparsed = ScenarioSpec::parse(&spec.to_text())
            .unwrap_or_else(|e| panic!("{}: canonical text must re-parse: {e}", path.display()));
        assert_eq!(reparsed, spec, "{}: lossy text round-trip", path.display());
    }
}

#[test]
fn golden_ci_specs_produce_byte_identical_reports() {
    // The two CI smoke specs run end-to-end twice; whole-report equality
    // (not just headline numbers) is the determinism contract.
    for name in ["ci_clustering.scn", "ci_maintenance.scn"] {
        let runner = Runner::from_file(scenarios_dir().join(name)).expect("committed spec");
        let first = runner.run_default().expect("committed spec runs");
        let second = runner.run_default().expect("committed spec runs");
        assert_eq!(first, second, "{name}: reports differ across reruns");
        assert_eq!(
            first.to_markdown(),
            second.to_markdown(),
            "{name}: renderings differ across reruns"
        );
        assert!(first.ok(), "{name}: workload must complete");
    }
}

#[test]
fn ci_maintenance_spec_is_resolver_invariant() {
    // Protocol outcomes must not depend on the resolver backend: pinning
    // each backend over the committed maintenance spec yields identical
    // epochs, each epoch's clustering-quality report included (only the
    // recorded backend tag differs).
    let path = scenarios_dir().join("ci_maintenance.scn");
    let run = |kind| {
        let runner = Runner::from_file(&path)
            .expect("committed spec")
            .with_resolver_override(Some(kind));
        let report = runner
            .run(&Workload::Maintenance)
            .expect("committed spec runs");
        let WorkloadOutcome::Maintenance { epochs, summary } = report.outcome else {
            panic!("maintenance outcome expected");
        };
        (
            epochs
                .into_iter()
                .map(|e| {
                    (
                        e.epoch,
                        e.awake,
                        e.rounds,
                        e.clusters,
                        e.re_elections,
                        e.retained,
                        e.coverage_violations,
                        e.report,
                    )
                })
                .collect::<Vec<_>>(),
            summary,
        )
    };
    let naive = run(dcluster_sim::ResolverKind::Naive);
    let agg = run(dcluster_sim::ResolverKind::Aggregated);
    assert_eq!(naive, agg, "backends must agree epoch by epoch");
}

/// Deterministic work counters of the two CI specs and of Figure 1's
/// global broadcast, pinned so that CI gates on counts rather than wall
/// clock: the rounds the engines replayed from recordings and every
/// counter of each backend's `ResolverStats`. A change that stops a
/// recording from hitting moves the round counts; one that changes a
/// resolver decision, or how it was reached, moves the rest. Both CI specs
/// take field rounds (`|T| > EXACT_MAX_TX`), so their aggregated rows pin
/// the field's work too; Figure 1 takes none, so its two rows are equal.
/// Its labeling replays the units that sparsification recorded, with
/// other units run in between. Resolved and replayed rounds add up to the
/// run's rounds.
#[test]
fn ci_specs_pin_resolved_and_replayed_rounds() {
    use dcluster_sim::ResolverKind::{Aggregated, Naive};
    let stats = |rounds, candidates, short_circuited, exact_sums, residual, fallbacks, terms| {
        ResolverStats {
            rounds,
            candidates,
            short_circuited,
            exact_sums,
            residual_decided: residual,
            exact_fallbacks: fallbacks,
            field_terms: terms,
        }
    };
    let pinned = [
        (
            "ci_clustering.scn",
            Naive,
            595_678,
            stats(98_757, 389_552, 0, 1_262_014, 0, 0, 0),
        ),
        (
            "ci_clustering.scn",
            Aggregated,
            595_678,
            stats(98_757, 396_022, 3_529, 1_249_646, 7_750, 0, 53_819),
        ),
        (
            "ci_maintenance.scn",
            Naive,
            1_685_560,
            stats(280_336, 1_152_788, 0, 6_116_853, 0, 0, 0),
        ),
        (
            "ci_maintenance.scn",
            Aggregated,
            1_685_560,
            stats(280_336, 1_173_293, 11_405, 6_079_132, 21_036, 144, 115_422),
        ),
        (
            "fig1_phases.scn",
            Naive,
            1_166_075,
            stats(166_111, 293_917, 0, 1_235_752, 0, 0, 0),
        ),
        (
            "fig1_phases.scn",
            Aggregated,
            1_166_075,
            stats(166_111, 293_917, 0, 1_235_752, 0, 0, 0),
        ),
    ];
    for (name, kind, replayed, resolver_stats) in pinned {
        let report = Runner::from_file(scenarios_dir().join(name))
            .expect("committed spec")
            .with_resolver_override(Some(kind))
            .run_default()
            .expect("committed spec runs");
        assert_eq!(
            report.resolver_stats.rounds + report.replayed,
            report.rounds,
            "{name} ({kind}): every round is resolved or replayed"
        );
        assert_eq!(
            report.replayed, replayed,
            "{name} ({kind}): replayed rounds"
        );
        assert_eq!(
            report.resolver_stats, resolver_stats,
            "{name} ({kind}): resolver work"
        );
    }
}

#[test]
fn empty_deployment_scn_text_errors_instead_of_panicking() {
    // Regression: a syntactically valid spec whose deployment realizes to
    // zero points used to panic deep inside `Network::builder` via an
    // `expect("nonempty")`; it must surface as a `SpecError` naming the
    // deploy section instead.
    let text = "\
scenario hollow
seed 7
deploy uniform n=0 side=2.0
workload clustering
";
    let spec = ScenarioSpec::parse(text).expect("zero-node specs parse fine");
    let err = Runner::new(spec)
        .run_default()
        .expect_err("zero-point deployment must be an error, not a panic");
    let msg = err.to_string();
    assert!(
        msg.contains("deploy"),
        "error must name the deploy section, got: {msg}"
    );
}

#[test]
fn spec_workload_lines_drive_run_default() {
    for (path, spec) in committed_specs() {
        let Some(w) = spec.workload.clone() else {
            continue;
        };
        // Cheap structural check only: run_default executes the spec's own
        // workload line (full runs are covered by the smoke binary).
        assert_eq!(
            Runner::new(spec).spec().workload.as_ref().map(|x| x.name()),
            Some(w.name()),
            "{}",
            path.display()
        );
    }
}
