//! The aggregated backend must return **exactly** the naive oracle's
//! receptions — the equivalence promised in `radio.rs`'s module docs.
//! Rounds with `|T| ≤ EXACT_MAX_TX` run the oracle's own routine at every
//! listener that would decode some transmitter sending alone, and no
//! other listener can decode; above it the field searches each
//! listener's candidates within `Network::max_reach`, which holds every
//! decoder, its cell sums are exact partial sums, its residual bound is
//! only used when conclusive, and an inconclusive listener falls back to
//! the oracle's own sum and test, so the decisions coincide with the
//! full Eq. (1) sum. Each instance is checked through
//! the backend as dispatched and through its field path forced at any
//! `|T|`.
//! Property-tested over random, clumped and grid-boundary deployments,
//! boxes of up to 20 cells a side with hundreds of transmitters, uniform
//! and heterogeneous power, transmitter sets on both sides of the
//! constant and SINR parameter regimes.

use dcluster_sim::radio::EXACT_MAX_TX;
use dcluster_sim::rng::Rng64;
use dcluster_sim::{
    AggregatedResolver, Network, Point, Reception, ResolverKind, SinrParams, SinrResolver,
};
use proptest::prelude::*;
use std::f64::consts::TAU;

/// Canonical ordering so resolver outputs compare as sets.
fn sorted(mut receptions: Vec<Reception>) -> Vec<Reception> {
    receptions.sort_by_key(|r| (r.receiver, r.sender));
    receptions
}

fn random_network(n: usize, side: f64, params: SinrParams, rng: &mut Rng64) -> Network {
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
        .collect();
    Network::builder(pts)
        .params(params)
        .build()
        .expect("nonempty deployment")
}

/// Checks the aggregated backend, and its field path alone, against the
/// oracle on one instance (error message on disagreement, for
/// `?`-chaining inside proptest cases).
fn assert_equivalent(net: &Network, tx: &[usize], label: &str) -> Result<(), String> {
    let naive = sorted(ResolverKind::Naive.build().resolve(net, tx));
    let mut field = Vec::new();
    AggregatedResolver::new().resolve_field_into(net, tx, &mut field);
    let paths = [
        (
            "aggregated",
            ResolverKind::Aggregated.build().resolve(net, tx),
        ),
        ("field path", field),
    ];
    for (path, got) in paths {
        let got = sorted(got);
        if got != naive {
            return Err(format!(
                "{label}: {path} and naive disagree (n={}, |T|={}, EXACT_MAX_TX={}): \
                 {path} found {:?}, naive found {:?}",
                net.len(),
                tx.len(),
                EXACT_MAX_TX,
                got,
                naive
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Equivalence on uniform deployments across densities, transmitter
    /// fractions, (alpha, beta) regimes and power profiles; `|T|` ranges
    /// from 0 to 119, on both sides of `EXACT_MAX_TX`. One case in four
    /// (`large_box == 0`) is instead a box of side 15–20 with 820–1990
    /// nodes, 15–45 % of them transmitting: `|T|` in the hundreds, so
    /// decisions reach far rings and their per-ring residuals. In half the
    /// cases (`het_power == 1`) each node transmits at up to 8× the model
    /// power.
    #[test]
    fn backends_equal_naive_on_uniform_deployments(
        seed in 0u64..10_000,
        n in 2usize..120,
        side_tenths in 5u32..80,
        tx_permille in 1u32..1000,
        alpha_hundredths in 210u32..500,
        beta_hundredths in 110u32..400,
        large_box in 0u32..4,
        het_power in 0u32..2,
    ) {
        let params = SinrParams::normalized(
            alpha_hundredths as f64 / 100.0,
            beta_hundredths as f64 / 100.0,
            1.0,
            0.2,
        );
        let (n, side, tx_frac) = if large_box == 0 {
            let tx_frac = 0.15 + 0.3 * tx_permille as f64 / 1000.0;
            (10 * n + 800, 15.0 + side_tenths as f64 / 16.0, tx_frac)
        } else {
            (n, side_tenths as f64 / 10.0, tx_permille as f64 / 1000.0)
        };
        let mut rng = Rng64::new(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
            .collect();
        let mut builder = Network::builder(pts).params(params);
        if het_power == 1 {
            builder = builder.powers(
                (0..n).map(|_| params.power * (1.0 + 7.0 * rng.next_f64())).collect(),
            );
        }
        let net = builder.build().expect("nonempty deployment");
        let tx: Vec<usize> = (0..n).filter(|_| rng.chance(tx_frac)).collect();
        assert_equivalent(&net, &tx, "uniform")?;
    }

    /// Equivalence when every node transmits (nobody listens) and when a
    /// single node transmits (pure range test) — the two boundary regimes.
    #[test]
    fn backends_equal_naive_at_boundary_tx_sets(seed in 0u64..10_000, n in 1usize..60) {
        let mut rng = Rng64::new(seed);
        let net = random_network(n, 3.0, SinrParams::default(), &mut rng);

        let everyone: Vec<usize> = (0..n).collect();
        assert_equivalent(&net, &everyone, "everyone-transmits")?;

        let lone = vec![rng.range_usize(n)];
        assert_equivalent(&net, &lone, "lone-transmitter")?;
    }

    /// Clumped (near-duplicate) positions stress the grid bucketing, the
    /// short-circuit bound and the field's ring cap (distant dense clumps
    /// make the occupied-cell set tiny but far apart); equivalence must
    /// survive them too.
    #[test]
    fn backends_equal_naive_on_clumped_deployments(seed in 0u64..10_000, n in 2usize..80) {
        let mut rng = Rng64::new(seed ^ 0xc1a9);
        let mut pts = Vec::with_capacity(n);
        let mut anchor = Point::new(0.0, 0.0);
        for i in 0..n {
            if i % 4 == 0 {
                anchor = Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0));
            }
            pts.push(Point::new(
                anchor.x + rng.range_f64(-1e-3, 1e-3),
                anchor.y + rng.range_f64(-1e-3, 1e-3),
            ));
        }
        let net = Network::builder(pts).build().expect("nonempty");
        let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.4)).collect();
        assert_equivalent(&net, &tx, "clumped")?;
    }

    /// Nodes sitting *exactly* on grid-cell boundaries (integer and
    /// half-integer lattices, including negative coordinates) — the worst
    /// case for cell bucketing and for the field's "everything outside
    /// ring k is farther than k·cell" argument, which must hold for points
    /// on cell edges too.
    #[test]
    fn backends_equal_naive_on_grid_boundary_deployments(
        seed in 0u64..10_000,
        rows in 2usize..9,
        cols in 2usize..9,
        half_step in 0u32..2,
        tx_permille in 50u32..950,
    ) {
        let mut rng = Rng64::new(seed ^ 0xb0b0);
        let step = if half_step == 1 { 0.5 } else { 1.0 };
        // Offset so part of the lattice has negative coordinates (floor()
        // cell keys change sign there).
        let mut pts = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                pts.push(Point::new(
                    j as f64 * step - 1.0,
                    i as f64 * step - 1.0,
                ));
            }
        }
        let net = Network::builder(pts).build().expect("nonempty");
        let tx: Vec<usize> =
            (0..rows * cols).filter(|_| rng.chance(tx_permille as f64 / 1000.0)).collect();
        assert_equivalent(&net, &tx, "grid-boundary")?;
    }
}

/// Nodes at x = ±1e300: at the model range their cell keys sit at the
/// clamp limit, where the field's ring offsets and key differences once
/// overflowed `i64` (a panic in debug builds), and the grid's cells grow
/// to about 10²⁹⁷ so that its box fits. Cross-side pairs are infinitely
/// far apart, so each side is its own vertical line of nodes 0.2 apart.
#[test]
fn backends_equal_naive_at_far_out_coordinates() {
    let pts: Vec<Point> = (0..40)
        .map(|i| {
            let side = if i % 2 == 0 { 1e300 } else { -1e300 };
            Point::new(side, i as f64 * 0.1)
        })
        .collect();
    let net = Network::builder(pts).build().expect("nonempty");
    let tx: Vec<usize> = (0..40).filter(|i| i % 4 < 2).collect();
    assert_eq!(tx.len(), 20);
    assert!(tx.len() > EXACT_MAX_TX, "a field round");
    let naive = ResolverKind::Naive.build().resolve(&net, &tx);
    assert!(!naive.is_empty(), "the instance must decode something");
    assert_equivalent(&net, &tx, "far-out").unwrap();
}

/// A deployment whose cell box at the model range is far past the grid's
/// cap (50 nodes on a 10⁷ × 10⁷ square plus two dense clusters 10⁹
/// apart), so the grid's cells grow to side 2²¹ and each cluster falls
/// into the two cells on either side of y = 0: the field must still
/// decide like the oracle.
#[test]
fn backends_equal_naive_when_the_cell_box_is_past_the_cap() {
    let mut rng = Rng64::new(2024);
    let mut pts: Vec<Point> = (0..50)
        .map(|_| Point::new(rng.range_f64(0.0, 1e7), rng.range_f64(0.0, 1e7)))
        .collect();
    for anchor in [Point::new(-5e8, 0.0), Point::new(5e8, 0.0)] {
        pts.extend((0..30).map(|_| {
            Point::new(
                anchor.x + rng.range_f64(-1.5, 1.5),
                anchor.y + rng.range_f64(-1.5, 1.5),
            )
        }));
    }
    let n = pts.len();
    let net = Network::builder(pts).build().expect("nonempty");
    for trial in 0..8 {
        let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.2)).collect();
        assert_equivalent(&net, &tx, &format!("spilled box, trial {trial}")).unwrap();
    }
    let tx: Vec<usize> = (0..n).filter(|v| v % 5 == 0).collect();
    assert!(tx.len() > EXACT_MAX_TX, "a field round");
    let naive = ResolverKind::Naive.build().resolve(&net, &tx);
    assert!(!naive.is_empty(), "the clusters must decode something");
    assert_equivalent(&net, &tx, "spilled box").unwrap();
}

/// Random near-ties: a listener at the origin, 9 to 22 interferers at
/// random distances from 1.1 up to a random reach, and a sender slid ulp
/// by ulp across the distance at which its SINR is exactly β. A field
/// decision that falls back runs the oracle's own sum and test, so every
/// such round must equal the oracle bit for bit. Ring rejects and accepts
/// use the field's own summation order and may still differ at these
/// ties, so only fallback rounds are held to the oracle here.
#[test]
fn field_fallbacks_equal_naive_at_random_near_ties() {
    let p = SinrParams::default();
    let polar = |r: f64, a: f64| Point::new(r * a.cos(), r * a.sin());
    let mut rng = Rng64::new(20_261_018);
    let mut field = AggregatedResolver::new();
    let (mut fallbacks, mut decoded) = (0, 0);
    for config in 0..250 {
        let k = 9 + rng.range_usize(14);
        let reach = rng.range_f64(1.5, 12.0);
        let interferers: Vec<Point> = (0..k)
            .map(|_| polar(rng.range_f64(1.1, reach), rng.range_f64(0.0, TAU)))
            .collect();
        let interference: f64 = interferers
            .iter()
            .map(|w| p.signal(w.dist(Point::ORIGIN)))
            .sum();
        let d_star = (p.power / (p.beta * (p.noise + interference))).powf(1.0 / p.alpha);
        let angle = rng.range_f64(0.0, TAU);
        let tx: Vec<usize> = (1..=k + 1).collect();
        let mut d = d_star;
        for _ in 0..6 {
            d = d.next_down();
        }
        for step in 0..12 {
            let mut pts = vec![Point::ORIGIN, polar(d, angle)];
            pts.extend(interferers.iter().copied());
            let net = Network::builder(pts).build().expect("nonempty");
            let before = field.stats().exact_fallbacks;
            let mut got = Vec::new();
            field.resolve_field_into(&net, &tx, &mut got);
            if field.stats().exact_fallbacks > before {
                let naive = ResolverKind::Naive.build().resolve(&net, &tx);
                assert_eq!(got, naive, "config {config}, step {step}: d = {d:e}");
                fallbacks += 1;
                decoded += naive.len();
            }
            d = d.next_up();
        }
    }
    assert!(
        decoded > 0 && decoded < fallbacks,
        "fallback rounds on both sides of the threshold: {decoded} of {fallbacks} decode"
    );
}
