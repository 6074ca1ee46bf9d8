//! Property tests for the spec text format: `parse(to_text(spec)) == spec`
//! across every deploy layer, dynamics model and workload variant, with
//! randomized numeric fields (f64 values round-trip through Rust's
//! shortest-representation `Display`).

use dcluster_core::ProtocolParams;
use dcluster_scenario::{DeployLayer, DynamicsSpec, ScenarioSpec, Workload};
use dcluster_sim::ResolverKind;
use proptest::prelude::*;

/// A "random-looking" f64 from raw integer entropy: a dyadic value plus a
/// hash-derived tail, exercising both short ("2.5") and long
/// ("0.30000000000000004"-style) decimal renderings.
fn f64_from(entropy: u64, lo: f64, hi: f64) -> f64 {
    let unit = (entropy >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

fn layer_from(kind: usize, a: u64, b: u64) -> DeployLayer {
    let n = 1 + (a % 500) as usize;
    match kind % 7 {
        0 => DeployLayer::Uniform {
            n,
            side: f64_from(b, 0.5, 20.0),
        },
        1 => DeployLayer::Degree {
            n,
            delta: 1 + (b % 40) as usize,
        },
        2 => DeployLayer::Clumped {
            centers: 1 + (a % 9) as usize,
            per: 1 + (b % 40) as usize,
            sigma: f64_from(a ^ b, 0.01, 1.0),
            side: f64_from(b, 0.5, 10.0),
        },
        3 => DeployLayer::Grid {
            rows: 1 + (a % 30) as usize,
            cols: 1 + (b % 30) as usize,
            spacing: f64_from(a ^ 1, 0.1, 2.0),
            jitter: f64_from(b ^ 2, 0.0, 0.5),
        },
        4 => DeployLayer::Corridor {
            n,
            length: f64_from(b, 2.0, 30.0),
            width: f64_from(a ^ 3, 0.5, 3.0),
            spine: f64_from(b ^ 4, 0.2, 1.0),
        },
        5 => DeployLayer::Line {
            n,
            spacing: f64_from(b, 0.1, 1.0),
        },
        _ => DeployLayer::Ring {
            n,
            radius: f64_from(b, 0.5, 10.0),
        },
    }
}

fn dynamics_from(kind: usize, a: u64, b: u64) -> DynamicsSpec {
    match kind % 5 {
        0 => DynamicsSpec::Waypoint {
            speed: f64_from(a, 0.01, 1.0),
            frac: f64_from(b, 0.0, 1.0),
        },
        1 => DynamicsSpec::Walk {
            step: f64_from(a, 0.01, 1.0),
            frac: f64_from(b, 0.0, 1.0),
        },
        2 => DynamicsSpec::Group {
            speed: f64_from(a, 0.01, 1.0),
            frac: f64_from(b, 0.0, 1.0),
            groups: 1 + (a % 8) as usize,
        },
        3 => DynamicsSpec::Churn {
            sleep: f64_from(a, 0.0, 1.0),
            wake: f64_from(b, 0.0, 1.0),
        },
        _ => DynamicsSpec::HetPower {
            spread: f64_from(a ^ b, 0.0, 2.0),
        },
    }
}

fn workload_from(kind: usize, a: u64) -> Workload {
    match kind % 6 {
        0 => Workload::Clustering,
        1 => Workload::LocalBroadcast,
        2 => Workload::GlobalBroadcast {
            source: (a % 100) as usize,
            token: a.rotate_left(17),
        },
        3 => Workload::Maintenance,
        4 => Workload::Wakeup {
            sources: (0..1 + a % 5).map(|i| (a ^ i) as usize % 1000).collect(),
        },
        _ => Workload::LeaderElection,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// Every representable spec survives the text round-trip exactly.
    #[test]
    fn parse_to_text_round_trips(
        seed in 0u64..=u64::MAX,
        layer_kind in 0usize..7,
        layer_a in 0u64..=u64::MAX,
        layer_b in 0u64..=u64::MAX,
        extra_layers in 0usize..3,
        dyn_count in 0usize..4,
        dyn_kind in 0usize..5,
        dyn_a in 0u64..=u64::MAX,
        dyn_b in 0u64..=u64::MAX,
        workload_kind in 0usize..8,
        resolver_kind in 0usize..3,
        epochs in 0u64..50,
        max_id in 0u64..100_000,
        id_seed in 0u64..100,
    ) {
        let mut spec = ScenarioSpec::new(format!("prop-{seed:x}"), seed).epochs(epochs);
        // Degree layers cannot be stacked with others; generate either a
        // single degree layer or a stack of non-degree ones.
        let first = layer_from(layer_kind, layer_a, layer_b);
        let degree = matches!(first, DeployLayer::Degree { .. });
        spec = spec.layer(first);
        if !degree {
            for i in 0..extra_layers {
                let mut l = layer_from(layer_kind + 1 + i, layer_a ^ i as u64, layer_b ^ (i as u64) << 7);
                if matches!(l, DeployLayer::Degree { .. }) {
                    l = DeployLayer::Line { n: 3, spacing: 0.5 };
                }
                spec = spec.layer(l);
            }
        }
        for i in 0..dyn_count {
            spec = spec.dynamics(dynamics_from(dyn_kind + i, dyn_a ^ i as u64, dyn_b ^ (i as u64) << 9));
        }
        if workload_kind < 6 {
            spec = spec.workload(workload_from(workload_kind, dyn_a));
        }
        if resolver_kind < ResolverKind::ALL.len() {
            spec = spec.resolver(ResolverKind::ALL[resolver_kind]);
        }
        if max_id > 0 {
            spec = spec.max_id(max_id);
        }
        if id_seed > 0 {
            spec = spec.id_seed(id_seed);
        }
        let text = spec.to_text();
        let parsed = ScenarioSpec::parse(&text);
        prop_assert_eq!(parsed.as_ref().ok(), Some(&spec), "text was:\n{}", text);
        // Canonical text is a fixed point: re-emitting the parsed spec
        // reproduces it byte for byte.
        prop_assert_eq!(parsed.unwrap().to_text(), text);
    }

    /// Non-default protocol params (including awkward f64s) round-trip.
    #[test]
    fn params_round_trip(
        kappa in 1usize..12,
        len_entropy in 0u64..=u64::MAX,
        min_len in 1u64..500,
        pseed in 0u64..=u64::MAX,
        adaptive in 0u8..2,
        cap_entropy in 0u64..=u64::MAX,
    ) {
        let params = ProtocolParams {
            kappa,
            len_factor: f64_from(len_entropy, 0.0001, 1.0),
            min_sched_len: min_len,
            seed: pseed,
            adaptive: adaptive == 1,
            cap_factor: f64_from(cap_entropy, 1.0, 4.0),
            ..ProtocolParams::practical()
        };
        let spec = ScenarioSpec::uniform("p", 1, 10, 2.0).params(params);
        prop_assert_eq!(ScenarioSpec::parse(&spec.to_text()).unwrap(), spec);
    }
}
