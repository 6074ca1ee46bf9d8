//! Property tests for the dynamics subsystem's central contract: a world
//! maintained **incrementally** (sparse grid/comm-graph/field updates) is
//! observationally identical to one **rebuilt from scratch** after every
//! update — byte-identical receptions under both SINR resolver backends,
//! under mobility, churn and heterogeneous power.
//!
//! Structural equality (same grid cells in the same member order) is what
//! pins the floating-point summation order, so the reception equality here
//! is exact `Vec<Reception>` equality, not set equality.

use dcluster_dynamics::{Churn, DynamicsModel, MobilityKind, World, WorldUpdate};
use dcluster_sim::rng::Rng64;
use dcluster_sim::{deploy, Network, Point, Reception, ResolverKind};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Scenario-driven worlds: waypoint/walk/group mobility + churn +
    /// heterogeneous power, evolved incrementally for several epochs, must
    /// resolve identically to a from-scratch rebuild on every backend.
    #[test]
    fn evolved_world_resolves_identically_to_rebuild(
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
        let net = dcluster_dynamics::with_power_profile(&base, spread, seed ^ 5);
        let mut world = World::new(net);
        let kind = [MobilityKind::Waypoint, MobilityKind::Walk, MobilityKind::Group][mobility];
        let mut models: Vec<Box<dyn DynamicsModel>> = vec![Box::new(Churn::new(seed ^ 7, 0.15, 0.4))];
        if let Some(m) = kind.build(n, (side, side), 0.5, seed ^ 9) {
            models.push(m);
        }
        for _ in 0..epochs {
            world.step(&mut models);
        }
        // Structural audit: incremental grid + comm graph == rebuild.
        world.audit_incremental()?;
        // Observational audit: byte-identical receptions per backend.
        let rebuilt = world.rebuilt_network();
        let tx = tx_sets(&world, 4, seed ^ 11);
        for kind in ResolverKind::ALL {
            let inc = resolve_all(world.network(), &tx, kind);
            let fresh = resolve_all(&rebuilt, &tx, kind);
            prop_assert_eq!(
                &inc, &fresh,
                "{} receptions diverged between incremental and rebuilt worlds", kind
            );
        }
        // Cross-backend agreement still holds on the evolved world.
        let naive = resolve_all(world.network(), &tx, ResolverKind::Naive);
        let got = resolve_all(world.network(), &tx, ResolverKind::Aggregated);
        for (round, (a, b)) in naive.iter().zip(&got).enumerate() {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_by_key(|r| r.receiver);
            b.sort_by_key(|r| r.receiver);
            prop_assert_eq!(
                a, b,
                "aggregated disagrees with naive on evolved world (round {})", round
            );
        }
    }

    /// Raw update streams (moves, power changes, sleep/wake) applied
    /// incrementally keep the world equal to its rebuild.
    #[test]
    fn raw_update_stream_matches_rebuild(
        seed in 0u64..10_000,
        n in 10usize..60,
        batches in 1usize..6,
    ) {
        let mut rng = Rng64::new(seed ^ 0xABCD);
        let side = 3.0;
        let net = Network::builder(deploy::uniform_square(n, side, &mut rng))
            .build()
            .expect("nonempty");
        let base_power = net.params().power;
        let mut world = World::new(net);
        for _ in 0..batches {
            let updates: Vec<WorldUpdate> = (0..8)
                .map(|_| {
                    let node = rng.range_usize(n);
                    match rng.range_usize(4) {
                        0 => WorldUpdate::Move {
                            node,
                            to: Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)),
                        },
                        1 => WorldUpdate::SetPower {
                            node,
                            power: base_power * (0.5 + 2.0 * rng.next_f64()),
                        },
                        2 => WorldUpdate::Sleep { node },
                        _ => WorldUpdate::Wake { node },
                    }
                })
                .collect();
            world.apply(&updates);
            world.audit_incremental()?;
        }
        let rebuilt = world.rebuilt_network();
        let tx = tx_sets(&world, 3, seed ^ 13);
        for kind in ResolverKind::ALL {
            prop_assert_eq!(
                resolve_all(world.network(), &tx, kind),
                resolve_all(&rebuilt, &tx, kind),
                "{} receptions diverged after raw update batches", kind
            );
        }
    }
}
