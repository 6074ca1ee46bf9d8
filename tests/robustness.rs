//! Failure injection and degenerate inputs: the stack must stay honest —
//! no panics, and incomplete outcomes reported as incomplete.

use dcluster::prelude::*;

#[test]
fn starved_schedules_fail_gracefully_not_loudly() {
    // Absurdly short selector schedules: guarantees evaporate, but nothing
    // panics and the outcome reports exactly what happened.
    let mut rng = Rng64::new(91);
    let net = Network::builder(deploy::uniform_square(30, 2.0, &mut rng))
        .build()
        .unwrap();
    let params = ProtocolParams {
        min_sched_len: 2,
        len_factor: 1e-9,
        ..ProtocolParams::practical()
    };
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = Engine::new(&net);
    let out = local_broadcast(&mut engine, &params, &mut seeds, net.density());
    // With 2-round schedules the broadcast will likely fail — that must be
    // visible in the outcome, not hidden.
    let truly_complete = local_broadcast_complete(&net, &out.heard_by);
    assert_eq!(
        out.complete, truly_complete,
        "outcome must report the truth"
    );
}

#[test]
fn colocated_nodes_do_not_break_the_radio() {
    // Two nodes at the same point: distances clamp, nobody panics.
    let net = Network::builder(vec![
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(0.5, 0.0),
    ])
    .build()
    .unwrap();
    for kind in dcluster::sim::ResolverKind::ALL {
        let recs = kind.build().resolve(&net, &[0, 1]);
        // Colocated simultaneous transmitters annihilate each other.
        assert!(
            recs.iter().all(|r| r.receiver != 2 || r.sender == 2),
            "{kind}"
        );
    }
    let params = ProtocolParams::practical();
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = Engine::new(&net);
    let out = local_broadcast(&mut engine, &params, &mut seeds, net.density());
    let _ = out.complete; // no panic is the assertion
}

#[test]
fn disconnected_network_broadcast_reports_partial_delivery() {
    // Two far-apart blobs: broadcast from one can never reach the other.
    let mut rng = Rng64::new(92);
    let mut pts = deploy::uniform_square(10, 1.0, &mut rng);
    pts.extend(
        deploy::uniform_square(10, 1.0, &mut rng)
            .into_iter()
            .map(|p| Point::new(p.x + 50.0, p.y)),
    );
    let net = Network::builder(pts).build().unwrap();
    assert!(!net.comm_graph().is_connected());
    let params = ProtocolParams::practical();
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = Engine::new(&net);
    let out = global_broadcast(&mut engine, &params, &mut seeds, 0, net.density(), 1);
    assert!(!out.delivered_all, "cross-component delivery is impossible");
    assert!(out.awake[..10].iter().filter(|&&a| a).count() >= 10 - 1);
    assert!(
        out.awake[10..].iter().all(|&a| !a),
        "the far blob must stay asleep"
    );
}

#[test]
fn single_node_network_is_trivially_fine() {
    let net = Network::builder(vec![Point::new(0.0, 0.0)])
        .build()
        .unwrap();
    let params = ProtocolParams::practical();
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = Engine::new(&net);
    let lb = local_broadcast(&mut engine, &params, &mut seeds, 1);
    assert!(lb.complete, "no neighbors ⇒ vacuously complete");

    let mut seeds2 = SeedSeq::new(params.seed);
    let mut engine2 = Engine::new(&net);
    let gb = global_broadcast(&mut engine2, &params, &mut seeds2, 0, 1, 7);
    assert!(gb.delivered_all);
}

#[test]
fn theory_parameters_work_on_tiny_instances() {
    // The faithful (len_factor = 1) parameters on a 6-node toy network.
    let pts = deploy::line(6, 0.5);
    let net = Network::builder(pts).build().unwrap();
    let params = ProtocolParams::theory();
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = Engine::new(&net);
    let out = local_broadcast(&mut engine, &params, &mut seeds, net.density());
    assert!(
        out.complete,
        "theory-length schedules must certainly succeed"
    );
}

#[test]
fn huge_id_space_only_costs_logarithmically() {
    let mut rng = Rng64::new(93);
    let pts = deploy::uniform_square(20, 2.0, &mut rng);
    let small = Network::builder(pts.clone())
        .max_id(100)
        .seed(1)
        .build()
        .unwrap();
    let big = Network::builder(pts)
        .max_id(1_000_000)
        .seed(1)
        .build()
        .unwrap();
    let params = ProtocolParams::practical();
    let run = |net: &Network| {
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(net);
        let out = local_broadcast(&mut engine, &params, &mut seeds, net.density());
        assert!(out.complete);
        out.rounds
    };
    let (rs, rb) = (run(&small), run(&big));
    // N grows 10_000×; rounds should grow by ≈ log factor only.
    assert!(
        (rb as f64) < (rs as f64) * 6.0,
        "rounds {rs} → {rb} grew more than logarithmically"
    );
}
