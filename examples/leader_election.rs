//! Wake-up + leader election (Theorems 4–5): scattered sensors activate
//! spontaneously, wake the whole network, then elect a unique leader by
//! binary search over ID ranges — both as Runner workloads over one
//! scenario spec with a sparse shuffled ID space.
//!
//! ```sh
//! cargo run --release --example leader_election
//! ```

use dcluster::prelude::*;

fn main() {
    let spec = ScenarioSpec::corridor("leader-election", 55, 30, 6.0, 1.2, 0.5)
        .max_id(10_000)
        .id_seed(3);
    let runner = Runner::new(spec);
    let net = runner.build_network().expect("example spec is valid");
    println!(
        "network: n = {}, Δ = {}, N (ID space) = {}",
        net.len(),
        net.max_degree(),
        net.max_id()
    );

    // Theorem 4: three scattered nodes activate spontaneously.
    let spontaneous = vec![0, net.len() / 2, net.len() - 1];
    let w = runner
        .run_on(
            net.clone(),
            &Workload::Wakeup {
                sources: spontaneous.clone(),
            },
        )
        .expect("example spec is valid");
    let WorkloadOutcome::Wakeup { all_awake, centers } = w.outcome else {
        unreachable!("wakeup workload returns a wakeup outcome");
    };
    println!(
        "\nwake-up: {} spontaneous → everyone awake in {} rounds ({} centers)",
        spontaneous.len(),
        w.rounds,
        centers
    );
    assert!(all_awake);

    // Theorem 5: leader election over the whole network.
    let le = runner
        .run_on(net.clone(), &Workload::LeaderElection)
        .expect("example spec is valid");
    let WorkloadOutcome::Leader {
        leader_id, probes, ..
    } = le.outcome
    else {
        unreachable!("leader workload returns a leader outcome");
    };
    println!(
        "leader election: id {leader_id} elected in {} rounds ({probes} binary-search probes)",
        le.rounds
    );
    let leader_idx = net.index_of(leader_id).expect("leader must exist");
    println!("leader position: {}", net.pos(leader_idx));
}
