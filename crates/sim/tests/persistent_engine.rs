//! The persistent resolution engine must be invisible: running an
//! [`Engine`] for N rounds over an evolving transmitter set, the
//! aggregated backend must produce receptions identical to the naive
//! oracle's, and its warm gain cache and reach index must audit as equal
//! to a fresh computation after every step ([`Engine::audit_resolver`]):
//! every cached signal bit for bit, every reach list as a brute-force
//! scan finds it. Schedules that cross `EXACT_MAX_TX` round by round
//! build an interference field on every field round and none on the
//! exact rounds, which read the gain cache at the listeners the reach
//! index lists.
//! Every property runs under uniform and heterogeneous power (where the
//! gain matrix is not symmetric).

use dcluster_obs::{shared, CacheOp, Event, Tracer};
use dcluster_sim::engine::FnBehavior;
use dcluster_sim::radio::EXACT_MAX_TX;
use dcluster_sim::rng::Rng64;
use dcluster_sim::{Engine, Network, Point, Reception, ResolverKind, SinrParams};
use proptest::prelude::*;

/// Pre-computes an evolving transmitter schedule: a membership vector
/// mutated by `churn` random flips per round, so consecutive rounds differ
/// by a small sparse diff.
fn evolving_schedule(n: usize, rounds: usize, churn: usize, rng: &mut Rng64) -> Vec<Vec<bool>> {
    let mut active: Vec<bool> = (0..n).map(|_| rng.chance(0.4)).collect();
    let mut schedule = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for _ in 0..churn {
            let v = rng.range_usize(n);
            active[v] = !active[v];
        }
        schedule.push(active.clone());
    }
    schedule
}

/// A uniform random deployment; with `het_power`, every node transmits at
/// up to 8× the model power.
fn random_network(n: usize, het_power: bool, rng: &mut Rng64) -> Network {
    let side = (n as f64 / 12.0).sqrt().max(1.0) * 1.5;
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
        .collect();
    let params = SinrParams::default();
    let mut builder = Network::builder(pts).params(params);
    if het_power {
        builder = builder.powers(
            (0..n)
                .map(|_| params.power * (1.0 + 7.0 * rng.next_f64()))
                .collect(),
        );
    }
    let net = builder.build().expect("nonempty deployment");
    assert_eq!(net.has_uniform_power(), !het_power);
    net
}

/// A tracer that keeps the engine's event stream.
#[derive(Debug)]
struct Events(Vec<Event>);

impl Tracer for Events {
    fn on_event(&mut self, ev: &Event) {
        self.0.push(ev.clone());
    }
}

/// Each round's receptions, and the cache operation its trace event
/// carries.
type Rounds = (Vec<Vec<Reception>>, Vec<Option<CacheOp>>);

/// Runs one engine step per schedule entry with the given backend,
/// recording [`Rounds`] and auditing the resolver's cached state after
/// every step.
fn run_engine(net: &Network, kind: ResolverKind, schedule: &[Vec<bool>]) -> Result<Rounds, String> {
    let mut engine = Engine::with_resolver_kind(net, kind);
    let recorder = shared(Events(Vec::new()));
    engine.set_tracer(recorder.clone());
    let mut per_round = Vec::with_capacity(schedule.len());
    for (r, active) in schedule.iter().enumerate() {
        let mut b = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| active[v].then_some(0u8),
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        per_round.push(engine.step(&mut b).to_vec());
        engine
            .audit_resolver()
            .map_err(|e| format!("round {r}: resolver audit failed: {e}"))?;
    }
    let ops = recorder
        .borrow()
        .0
        .iter()
        .filter_map(|e| match e {
            Event::Round { cache, .. } => Some(*cache),
            _ => None,
        })
        .collect();
    Ok((per_round, ops))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// N engine rounds over a sparsely evolving transmitter set equal the
    /// oracle every round.
    #[test]
    fn persistent_backends_equal_fresh_rebuild_over_engine_rounds(
        seed in 0u64..10_000,
        n in 30usize..150,
        churn in 1usize..8,
        het_power in 0u8..2,
    ) {
        let mut rng = Rng64::new(seed ^ 0x9e37);
        let net = random_network(n, het_power == 1, &mut rng);
        let schedule = evolving_schedule(n, 12, churn, &mut rng);
        let (naive, _) = run_engine(&net, ResolverKind::Naive, &schedule)?;
        let (agg, _) = run_engine(&net, ResolverKind::Aggregated, &schedule)?;
        prop_assert_eq!(&naive, &agg, "persistent aggregated diverged");
    }

    /// Rounds alternating across `EXACT_MAX_TX`: a sparsely evolving
    /// large set in even rounds, a fresh set of 1..=EXACT_MAX_TX
    /// transmitters in odd ones. Every field round builds its field, the
    /// exact rounds build none. Receptions equal the oracle's round by
    /// round.
    #[test]
    fn field_rounds_build_a_field_and_exact_rounds_none(
        seed in 0u64..10_000,
        n in 60usize..150,
        churn in 1usize..4,
        het_power in 0u8..2,
    ) {
        let mut rng = Rng64::new(seed ^ 0xe8ac7);
        let net = random_network(n, het_power == 1, &mut rng);
        let large = evolving_schedule(n, 8, churn, &mut rng);
        let mut schedule = Vec::new();
        for active in large {
            schedule.push(active);
            let k = 1 + rng.range_usize(EXACT_MAX_TX);
            let mut small = vec![false; n];
            while small.iter().filter(|&&a| a).count() < k {
                small[rng.range_usize(n)] = true;
            }
            schedule.push(small);
        }
        let (naive, _) = run_engine(&net, ResolverKind::Naive, &schedule)?;
        let (agg, ops) = run_engine(&net, ResolverKind::Aggregated, &schedule)?;
        prop_assert_eq!(&naive, &agg, "aggregated diverged across the exact/field seam");
        for (r, (active, op)) in schedule.iter().zip(&ops).enumerate() {
            let tx = active.iter().filter(|&&a| a).count();
            if tx <= EXACT_MAX_TX {
                prop_assert_eq!(*op, None, "round {} (|T| = {}) built a field", r, tx);
            } else {
                prop_assert_eq!(
                    *op, Some(CacheOp::Rebuilt), "round {} (|T| = {}) built no field", r, tx
                );
            }
        }
    }
}
