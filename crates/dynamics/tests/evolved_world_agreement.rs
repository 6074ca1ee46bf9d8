//! Property tests for the dynamics subsystem: on worlds evolved under
//! mobility, churn and heterogeneous power, the aggregated SINR backend
//! resolves every round exactly as the naive oracle does. The world
//! rebuilds its network whenever an update moves a node, so these are the
//! networks a maintenance epoch runs on.

use dcluster_dynamics::{
    Churn, DynamicsModel, GroupDrift, RandomWalk, RandomWaypoint, World, WorldUpdate,
};
use dcluster_sim::rng::Rng64;
use dcluster_sim::{deploy, Network, Point, Reception, ResolverKind, SinrParams};
use proptest::prelude::*;

/// Deterministic transmitter sets over the awake nodes (ascending — the
/// order every engine-produced set has).
fn tx_sets(world: &World, rounds: usize, salt: u64) -> Vec<Vec<usize>> {
    (0..rounds)
        .map(|r| {
            world
                .awake_nodes()
                .into_iter()
                .filter(|&v| dcluster_sim::rng::hash_chance(salt, &[r as u64, v as u64], 0.3))
                .collect()
        })
        .collect()
}

fn resolve_all(net: &Network, tx: &[Vec<usize>], kind: ResolverKind) -> Vec<Vec<Reception>> {
    let mut resolver = kind.build();
    tx.iter().map(|t| resolver.resolve(net, t)).collect()
}

/// The aggregated backend's receptions equal the naive oracle's on every
/// round (each round's receptions compared sorted by receiver).
fn backends_agree(net: &Network, tx: &[Vec<usize>]) -> Result<(), String> {
    let naive = resolve_all(net, tx, ResolverKind::Naive);
    let got = resolve_all(net, tx, ResolverKind::Aggregated);
    for (round, (mut a, mut b)) in naive.into_iter().zip(got).enumerate() {
        a.sort_by_key(|r| r.receiver);
        b.sort_by_key(|r| r.receiver);
        prop_assert_eq!(a, b, "aggregated disagrees with naive (round {})", round);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Scenario-driven worlds: waypoint/walk/group mobility + churn +
    /// heterogeneous power, evolved for several epochs.
    #[test]
    fn evolved_world_backends_agree(
        seed in 0u64..10_000,
        n in 20usize..90,
        epochs in 1u64..8,
        mobility in 0usize..3,
        spread_tenths in 0u32..6,
    ) {
        let mut rng = Rng64::new(seed);
        let side = 3.5;
        let base = Network::builder(deploy::uniform_square(n, side, &mut rng))
            .build()
            .expect("nonempty");
        let spread = spread_tenths as f64 / 10.0;
        let net = dcluster_dynamics::with_power_profile(&base, spread, seed ^ 5).unwrap();
        let mut world = World::new(net);
        let bounds = (side, side);
        let moving: Box<dyn DynamicsModel> = match mobility {
            0 => Box::new(RandomWaypoint::new(n, bounds, 0.25, 0.5, seed ^ 9)),
            1 => Box::new(RandomWalk::new(n, bounds, 0.2, 0.5, seed ^ 9)),
            _ => Box::new(GroupDrift::new(n, bounds, 0.2, 0.5, 4, seed ^ 9)),
        };
        let mut models: Vec<Box<dyn DynamicsModel>> =
            vec![Box::new(Churn::new(seed ^ 7, 0.15, 0.4)), moving];
        for _ in 0..epochs {
            world.step(&mut models);
        }
        backends_agree(world.network(), &tx_sets(&world, 4, seed ^ 11))?;
    }

    /// Raw update streams: moves, sleeps and wakes, on a network whose
    /// nodes each draw a power from `[0.5, 2.5)` times the base power.
    #[test]
    fn raw_update_stream_backends_agree(
        seed in 0u64..10_000,
        n in 10usize..60,
        batches in 1usize..6,
    ) {
        let mut rng = Rng64::new(seed ^ 0xABCD);
        let side = 3.0;
        let points = deploy::uniform_square(n, side, &mut rng);
        let base_power = SinrParams::default().power;
        let powers = (0..n)
            .map(|_| base_power * (0.5 + 2.0 * rng.next_f64()))
            .collect();
        let net = Network::builder(points)
            .powers(powers)
            .build()
            .expect("nonempty, positive powers");
        let mut world = World::new(net);
        for _ in 0..batches {
            let updates: Vec<WorldUpdate> = (0..8)
                .map(|_| {
                    let node = rng.range_usize(n);
                    match rng.range_usize(3) {
                        0 => WorldUpdate::Move {
                            node,
                            to: Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)),
                        },
                        1 => WorldUpdate::Sleep { node },
                        _ => WorldUpdate::Wake { node },
                    }
                })
                .collect();
            world.apply(&updates);
        }
        backends_agree(world.network(), &tx_sets(&world, 3, seed ^ 13))?;
    }
}
