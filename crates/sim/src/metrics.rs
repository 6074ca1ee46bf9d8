//! Geometric quantities from §2 of the paper: a packing bound on
//! `χ(r1, r2)`, the close-pair distance bound `d_{Γ,r}`, and a reference
//! implementation of the **close pair** predicate (Definition 1) used to
//! validate the protocol stack. The density of a network's node set is
//! [`crate::Network::density`].

use crate::point::Point;

/// Upper bound on `χ(r1, r2)`: the maximal number of points in a ball of
/// radius `r1` with pairwise distances ≥ `r2`.
///
/// Standard packing argument: disks of radius `r2/2` around the points are
/// disjoint and fit in a ball of radius `r1 + r2/2`, so
/// `χ ≤ ((r1 + r2/2) / (r2/2))² = (1 + 2·r1/r2)²`.
pub fn chi_upper(r1: f64, r2: f64) -> usize {
    assert!(r1 > 0.0 && r2 > 0.0);
    let ratio = 1.0 + 2.0 * r1 / r2;
    (ratio * ratio).floor() as usize
}

/// The paper's `d_{Γ,r}`: the smallest `d` with `χ(r, d) ≥ Γ/2`. Since a
/// dense cluster/ball (≥ Γ/2 points inside radius `r`) must contain two
/// points at distance ≤ `d_{Γ,r}`, this bounds the closest-pair distance.
///
/// We invert the packing upper bound `(1 + 2r/d)² = Γ/2`, yielding
/// `d = 2r / (√(Γ/2) − 1)`; for `Γ ≤ 8` (where the formula degenerates) we
/// return `2r`, the ball diameter — every pair qualifies.
pub fn d_gamma_r(gamma: usize, r: f64) -> f64 {
    assert!(r > 0.0);
    let half = gamma as f64 / 2.0;
    if half.sqrt() <= 2.0 {
        return 2.0 * r;
    }
    2.0 * r / (half.sqrt() - 1.0)
}

/// A close pair per Definition 1, found by [`close_pairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosePair {
    /// First point index.
    pub u: usize,
    /// Second point index (`u < w`).
    pub w: usize,
}

/// Reference (test oracle) implementation of Definition 1: finds all close
/// pairs of a (possibly clustered) point set of density `gamma` under
/// `r`-clustering.
///
/// Conditions, for `d = d(u,w)` and `ζ = d / d_{Γ,r}`:
/// (a) same cluster; (b) `d ≤ d_{Γ,r}` and `d ≤ 1 − ε`;
/// (c) `u` and `w` are mutually nearest within their cluster;
/// (d) every same-cluster pair inside `B(u, ζ) ∪ B(w, ζ)` is at distance
///     ≥ `d/2`.
///
/// For unclustered sets pass `cluster_of = None` (every node in cluster 1,
/// `r = 1`), matching the definition's unclustered case.
pub fn close_pairs(
    points: &[Point],
    cluster_of: Option<&[u64]>,
    gamma: usize,
    r: f64,
    epsilon: f64,
) -> Vec<ClosePair> {
    let n = points.len();
    let d_bound = d_gamma_r(gamma, r);
    let cluster = |i: usize| cluster_of.map_or(1, |c| c[i]);
    // Nearest same-cluster neighbor for each node (O(n²): oracle code).
    let mut nearest = vec![(usize::MAX, f64::INFINITY); n];
    for u in 0..n {
        for w in 0..n {
            if u == w || cluster(u) != cluster(w) {
                continue;
            }
            let d = points[u].dist(points[w]);
            if d < nearest[u].1 {
                nearest[u] = (w, d);
            }
        }
    }
    let mut out = Vec::new();
    for u in 0..n {
        let (w, d) = nearest[u];
        if w == usize::MAX || w < u {
            continue; // each pair once, canonical u < w
        }
        if nearest[w].0 != u {
            continue; // (c) mutual nearest
        }
        if d > d_bound || d > 1.0 - epsilon {
            continue; // (b)
        }
        let zeta = (d / d_bound).min(1.0);
        // (d): pairs within B(u, ζ) ∪ B(w, ζ), same cluster, distance ≥ d/2.
        let nearby: Vec<usize> = (0..n)
            .filter(|&x| {
                cluster(x) == cluster(u)
                    && (points[x].in_ball(points[u], zeta) || points[x].in_ball(points[w], zeta))
            })
            .collect();
        let ok = nearby.iter().enumerate().all(|(i, &a)| {
            nearby[i + 1..]
                .iter()
                .all(|&b| points[a].dist(points[b]) >= d / 2.0 - 1e-12)
        });
        if ok {
            out.push(ClosePair { u, w });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn chi_bounds_are_ordered_and_monotone() {
        for &(r1, r2) in &[(1.0, 1.0), (2.0, 0.5), (5.0, 0.8), (1.0, 0.1)] {
            assert!(chi_upper(r1, r2) >= 1, "a ball holds its own center");
        }
        assert!(chi_upper(2.0, 0.5) >= chi_upper(1.0, 0.5));
        assert!(chi_upper(1.0, 0.25) >= chi_upper(1.0, 0.5));
    }

    #[test]
    fn chi_upper_is_a_true_upper_bound_on_random_packings() {
        // Greedy packing never exceeds the bound.
        let mut rng = Rng64::new(10);
        for _ in 0..10 {
            let r1 = rng.range_f64(0.5, 3.0);
            let r2 = rng.range_f64(0.1, r1);
            let mut kept: Vec<Point> = Vec::new();
            for _ in 0..4000 {
                let a = rng.range_f64(0.0, std::f64::consts::TAU);
                let rad = r1 * rng.next_f64().sqrt();
                let p = Point::new(rad * a.cos(), rad * a.sin());
                if kept.iter().all(|q| q.dist(p) >= r2) {
                    kept.push(p);
                }
            }
            assert!(
                kept.len() <= chi_upper(r1, r2),
                "packed {} > bound {}",
                kept.len(),
                chi_upper(r1, r2)
            );
        }
    }

    #[test]
    fn d_gamma_r_shrinks_with_density() {
        assert!(d_gamma_r(100, 1.0) < d_gamma_r(50, 1.0));
        assert!(d_gamma_r(100, 2.0) > d_gamma_r(100, 1.0));
        assert_eq!(
            d_gamma_r(4, 1.0),
            2.0,
            "degenerate small gamma returns diameter"
        );
    }

    #[test]
    fn dense_ball_contains_a_pair_within_d_gamma_r() {
        // Γ points in a unit ball ⇒ some pair at distance ≤ d_{Γ,1}.
        let mut rng = Rng64::new(11);
        for gamma in [16usize, 32, 64] {
            let pts: Vec<Point> = (0..gamma)
                .map(|_| {
                    let a = rng.range_f64(0.0, std::f64::consts::TAU);
                    let rad = rng.next_f64().sqrt();
                    Point::new(rad * a.cos(), rad * a.sin())
                })
                .collect();
            let d = d_gamma_r(gamma, 1.0);
            let min_pair = (0..gamma)
                .flat_map(|i| ((i + 1)..gamma).map(move |j| (i, j)))
                .map(|(i, j)| pts[i].dist(pts[j]))
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_pair <= d,
                "min pair {min_pair} > d_gamma_r {d} for gamma {gamma}"
            );
        }
    }

    #[test]
    fn isolated_mutual_nearest_pair_is_close() {
        // Two points at distance 0.1, far from everything else: close pair.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(50.0, 50.0),
            Point::new(50.2, 50.0),
        ];
        let got = close_pairs(&pts, None, 16, 1.0, 0.2);
        assert!(got.contains(&ClosePair { u: 0, w: 1 }));
        assert!(got.contains(&ClosePair { u: 2, w: 3 }));
    }

    #[test]
    fn pair_with_violating_nearby_points_is_not_close() {
        // u,w at distance 0.4; a third point 0.05 from a fourth inside the
        // ζ-ball violates condition (d) — for gamma where ζ-balls cover them.
        let pts = vec![
            Point::new(0.0, 0.0),  // u
            Point::new(0.4, 0.0),  // w
            Point::new(0.2, 0.3),  // x
            Point::new(0.2, 0.35), // y : d(x,y)=0.05 < 0.4/2
        ];
        // gamma small -> d_bound = 2.0, ζ = 0.2 ⇒ x,y outside ζ-balls?? ζ=0.4/2=0.2,
        // |x−u| ≈ 0.36 > 0.2. Use gamma so that d_bound is ~0.45: χ inverse.
        // d_gamma_r(g,1)=2/(sqrt(g/2)-1)=0.45 ⇒ sqrt(g/2)=5.44 ⇒ g≈59.
        let got = close_pairs(&pts, None, 59, 1.0, 0.2);
        assert!(
            !got.contains(&ClosePair { u: 0, w: 1 }),
            "condition (d) violated by the tight x,y pair: {got:?}"
        );
    }

    #[test]
    fn cross_cluster_pairs_are_never_close() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.05, 0.0)];
        let clusters = vec![1, 2];
        assert!(close_pairs(&pts, Some(&clusters), 8, 1.0, 0.2).is_empty());
    }

    #[test]
    fn lemma1_unclustered_dense_ball_has_close_pair() {
        // Lemma 1.1: a dense unit ball forces a close pair within B(x, 5).
        let mut rng = Rng64::new(12);
        for trial in 0..5 {
            let gamma = 24;
            let pts: Vec<Point> = (0..gamma)
                .map(|_| {
                    let a = rng.range_f64(0.0, std::f64::consts::TAU);
                    let rad = rng.next_f64().sqrt();
                    Point::new(rad * a.cos(), rad * a.sin())
                })
                .collect();
            let found = close_pairs(&pts, None, gamma, 1.0, 0.2);
            assert!(
                !found.is_empty(),
                "trial {trial}: dense ball without close pair"
            );
        }
    }
}
