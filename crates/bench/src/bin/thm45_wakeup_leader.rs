//! **Theorems 4–5** — wake-up and leader election on multi-hop networks.
//!
//! Each corridor is one scenario spec run through the wake-up and leader
//! workloads; `--scenario <file>.scn` runs one spec (leader workload by
//! default) instead of the sweep.

use dcluster_bench::{
    print_table, resolver_flag, run_scenario_flag, write_csv, Runner, ScenarioSpec, Workload,
    WorkloadOutcome,
};

fn main() {
    if run_scenario_flag(Workload::LeaderElection) {
        return;
    }
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (i, &len) in [4.0f64, 8.0, 12.0].iter().enumerate() {
        let n = (len * 5.0) as usize;
        let spec =
            ScenarioSpec::corridor(format!("thm45-len{len}"), 800 + i as u64, n, len, 1.2, 0.5);
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let net = runner.build_network().expect("sweep spec is valid");
        let d = net.comm_graph().diameter().unwrap_or(0);

        // Theorem 4: wake-up from a single spontaneous node.
        let w = runner
            .run_on(net.clone(), &Workload::Wakeup { sources: vec![0] })
            .expect("sweep spec is valid");
        let WorkloadOutcome::Wakeup { all_awake, .. } = w.outcome else {
            unreachable!("wakeup workload returns a wakeup outcome");
        };
        assert!(all_awake);

        // Theorem 4: wake-up from scattered spontaneous nodes.
        let spont: Vec<usize> = (0..net.len()).step_by(5).collect();
        let w2 = runner
            .run_on(net.clone(), &Workload::Wakeup { sources: spont })
            .expect("sweep spec is valid");
        let WorkloadOutcome::Wakeup { all_awake, .. } = w2.outcome else {
            unreachable!("wakeup workload returns a wakeup outcome");
        };
        assert!(all_awake);

        // Theorem 5: leader election.
        let le = runner
            .run_on(net.clone(), &Workload::LeaderElection)
            .expect("sweep spec is valid");
        let WorkloadOutcome::Leader {
            leader_id, probes, ..
        } = le.outcome
        else {
            unreachable!("leader workload returns a leader outcome");
        };

        rows.push(vec![
            d.to_string(),
            net.len().to_string(),
            le.density.to_string(),
            w.rounds.to_string(),
            w2.rounds.to_string(),
            le.rounds.to_string(),
            probes.to_string(),
            leader_id.to_string(),
        ]);
        eprintln!("done D={d}");
    }
    print_table(
        "Theorems 4–5 — wake-up and leader election (spined corridors)",
        &[
            "D",
            "n",
            "Δ",
            "wake-up (1 src)",
            "wake-up (n/5 src)",
            "leader rounds",
            "probes",
            "leader id",
        ],
        &rows,
    );
    println!(
        "\nTheorem 4: O(D(Δ+log* N) log N); Theorem 5 pays an extra log N \
         factor for the binary search (probes ≈ log₂ N)."
    );
    write_csv(
        "thm45_wakeup_leader",
        &[
            "D",
            "n",
            "delta",
            "wakeup1",
            "wakeup_many",
            "leader_rounds",
            "probes",
            "leader_id",
        ],
        &rows,
    );
}
