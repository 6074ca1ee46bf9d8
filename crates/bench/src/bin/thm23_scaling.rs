//! **Theorems 2–3** — normalized scaling of the headline algorithms:
//! local broadcast rounds/Δ should be ≈ flat (linear in Δ, Theorem 2 vs
//! the universal Ω(Δ)); global broadcast rounds/(D·Δ) likewise
//! (Theorem 3).
//!
//! Both sweeps run scenario specs through the unified Runner;
//! `--scenario <file>.scn` runs one spec (local workload) instead.

use dcluster_bench::{
    full_scale, print_table, resolver_flag, run_scenario_flag, write_csv, Runner, ScenarioSpec,
    Workload, WorkloadOutcome,
};

fn main() {
    if run_scenario_flag(Workload::LocalBroadcast) {
        return;
    }

    // --- Theorem 2: local broadcast vs Δ.
    let deltas: Vec<usize> = if full_scale() {
        vec![4, 8, 12, 18]
    } else {
        vec![4, 8, 12]
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, &delta) in deltas.iter().enumerate() {
        let spec = ScenarioSpec::degree(format!("thm2-d{delta}"), 300 + i as u64, 70, delta);
        let out = Runner::new(spec)
            .with_resolver_override(resolver_flag())
            .run(&Workload::LocalBroadcast)
            .expect("sweep spec is valid");
        let WorkloadOutcome::LocalBroadcast { complete, .. } = out.outcome else {
            unreachable!("local workload returns a local outcome");
        };
        assert!(complete);
        let gamma = out.density;
        rows.push(vec![
            gamma.to_string(),
            out.rounds.to_string(),
            format!("{:.0}", out.rounds as f64 / gamma as f64),
            gamma.to_string(), // the Ω(Δ) reference
        ]);
        eprintln!("local done Γ={gamma}");
    }
    print_table(
        "Theorem 2 — local broadcast scaling (n = 70)",
        &["Γ (≈Δ)", "rounds", "rounds/Γ (≈flat)", "Ω(Δ) reference"],
        &rows,
    );
    write_csv(
        "thm2_local_scaling",
        &["gamma", "rounds", "rounds_per_gamma", "lb"],
        &rows,
    );

    // --- Theorem 3: global broadcast vs D at similar Δ.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, &len) in [5.0f64, 10.0, 15.0].iter().enumerate() {
        let n = (len * 5.0) as usize;
        let spec =
            ScenarioSpec::corridor(format!("thm3-len{len}"), 400 + i as u64, n, len, 1.2, 0.5);
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let net = runner.build_network().expect("sweep spec is valid");
        let d = net.comm_graph().diameter().unwrap_or(1).max(1);
        let out = runner
            .run_on(
                net,
                &Workload::GlobalBroadcast {
                    source: 0,
                    token: 1,
                },
            )
            .expect("sweep spec is valid");
        let WorkloadOutcome::GlobalBroadcast {
            delivered_all,
            phases,
            ..
        } = &out.outcome
        else {
            unreachable!("global workload returns a global outcome");
        };
        assert!(delivered_all);
        let gamma = out.density;
        rows.push(vec![
            d.to_string(),
            gamma.to_string(),
            out.rounds.to_string(),
            phases.len().to_string(),
            format!("{:.0}", out.rounds as f64 / (d as f64 * gamma as f64)),
        ]);
        eprintln!("global done D={d}");
    }
    print_table(
        "Theorem 3 — global broadcast scaling (spined corridors)",
        &["D", "Γ (≈Δ)", "rounds", "phases", "rounds/(D·Γ) (≈flat)"],
        &rows,
    );
    write_csv(
        "thm3_global_scaling",
        &["D", "gamma", "rounds", "phases", "normalized"],
        &rows,
    );
    println!(
        "\nTheorem 2: O(Δ·log N·log* N) ⇒ rounds/Δ flat up to polylog; \
         Theorem 3: O(D(Δ+log* N) log N) ⇒ rounds/(D·Δ) flat up to polylog."
    );
}
