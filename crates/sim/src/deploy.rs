//! Deployment (workload) generators.
//!
//! These produce the node layouts used throughout the experiments: uniform
//! sensor fields, perturbed grids, Gaussian "hotspot" clusters (the dense
//! areas the paper's introduction worries about), lines and corridors for
//! multi-hop diameter sweeps.

use crate::point::Point;
use crate::rng::Rng64;

/// `n` points uniform in the axis-aligned square `[0, side]²`.
pub fn uniform_square(n: usize, side: f64, rng: &mut Rng64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
        .collect()
}

/// `rows × cols` grid with spacing `spacing`, each point jittered uniformly
/// by up to `jitter` in each coordinate.
pub fn perturbed_grid(
    rows: usize,
    cols: usize,
    spacing: f64,
    jitter: f64,
    rng: &mut Rng64,
) -> Vec<Point> {
    let mut pts = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            pts.push(Point::new(
                j as f64 * spacing + rng.range_f64(-jitter, jitter),
                i as f64 * spacing + rng.range_f64(-jitter, jitter),
            ));
        }
    }
    pts
}

/// `centers` cluster centers uniform in `[0, side]²`, each with
/// `per_cluster` points at Gaussian offsets of standard deviation `sigma` —
/// the "dense hotspot" workload.
pub fn gaussian_clusters(
    centers: usize,
    per_cluster: usize,
    sigma: f64,
    side: f64,
    rng: &mut Rng64,
) -> Vec<Point> {
    let mut pts = Vec::with_capacity(centers * per_cluster);
    for _ in 0..centers {
        let c = Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side));
        for _ in 0..per_cluster {
            pts.push(Point::new(
                c.x + rng.next_gaussian() * sigma,
                c.y + rng.next_gaussian() * sigma,
            ));
        }
    }
    pts
}

/// `n` points on a horizontal line with the given spacing (multi-hop path;
/// with `spacing ≤ comm_radius` the communication graph is a path).
pub fn line(n: usize, spacing: f64) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(i as f64 * spacing, 0.0))
        .collect()
}

/// A corridor `length × width` with `n` uniform points — controlled-diameter,
/// controlled-density multi-hop workload.
pub fn corridor(n: usize, length: f64, width: f64, rng: &mut Rng64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, length), rng.range_f64(0.0, width)))
        .collect()
}

/// A corridor with a guaranteed backbone: points uniform in the corridor
/// *plus* a spine of points every `spine_spacing` along the center line, so
/// the communication graph is connected for spine spacings ≤ comm radius.
///
/// # Panics
///
/// Panics if `spine_spacing` is not positive (the spine would never end).
pub fn corridor_with_spine(
    n: usize,
    length: f64,
    width: f64,
    spine_spacing: f64,
    rng: &mut Rng64,
) -> Vec<Point> {
    assert!(spine_spacing > 0.0, "spine spacing must be positive");
    let mut pts = corridor(n, length, width, rng);
    let mut x = 0.0;
    while x <= length {
        pts.push(Point::new(x, width / 2.0));
        x += spine_spacing;
    }
    pts
}

/// `n` points evenly spaced on a circle of radius `radius` centered at
/// `(radius, radius)`.
pub fn ring(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(radius + radius * a.cos(), radius + radius * a.sin())
        })
        .collect()
}

/// Rejects points closer than `min_sep` to an already-kept point (greedy
/// filter; keeps first occurrence). Useful to bound density from above.
pub fn with_min_separation(points: Vec<Point>, min_sep: f64) -> Vec<Point> {
    let mut kept: Vec<Point> = Vec::with_capacity(points.len());
    'outer: for p in points {
        for q in &kept {
            if p.dist(*q) < min_sep {
                continue 'outer;
            }
        }
        kept.push(p);
    }
    kept
}

/// A uniform square deployment tuned to hit (approximately) a target
/// communication-graph degree `target_delta` with `n` nodes: the side is
/// chosen so that the expected number of nodes within the comm radius of a
/// point is `target_delta`.
pub fn uniform_with_target_degree(
    n: usize,
    target_delta: usize,
    comm_radius: f64,
    rng: &mut Rng64,
) -> Vec<Point> {
    let area_per_node = std::f64::consts::PI * comm_radius * comm_radius / target_delta as f64;
    let side = (n as f64 * area_per_node).sqrt();
    uniform_square(n, side.max(comm_radius), rng)
}

/// Per-node transmit powers for a heterogeneous deployment: node `v` gets
/// `base · (1 + spread · h(v))` with `h(v) ∈ [0, 1)` hashed
/// deterministically from `seed` — a mixed fleet of radios (e.g.
/// `spread = 0.5` for up to 1.5× the model power). `spread = 0` reproduces
/// the paper's uniform-power setting exactly.
pub fn power_profile(n: usize, base: f64, spread: f64, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|v| {
            let h = (crate::rng::hash64(seed, &[v as u64]) >> 11) as f64 / (1u64 << 53) as f64;
            if spread == 0.0 {
                base
            } else {
                base * (1.0 + spread * h)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_profile_is_deterministic_and_bounded() {
        let a = power_profile(100, 2.0, 0.5, 9);
        let b = power_profile(100, 2.0, 0.5, 9);
        assert_eq!(a, b, "same seed, same profile");
        assert!(a.iter().all(|&p| (2.0..3.0).contains(&p)));
        assert_ne!(a, power_profile(100, 2.0, 0.5, 10));
        assert_eq!(
            power_profile(10, 2.0, 0.0, 9),
            vec![2.0; 10],
            "zero spread is exactly uniform"
        );
    }

    #[test]
    fn uniform_square_stays_in_bounds() {
        let mut rng = Rng64::new(1);
        let pts = uniform_square(500, 3.0, &mut rng);
        assert_eq!(pts.len(), 500);
        assert!(pts
            .iter()
            .all(|p| (0.0..3.0).contains(&p.x) && (0.0..3.0).contains(&p.y)));
    }

    #[test]
    fn grid_has_expected_count_and_spacing() {
        let mut rng = Rng64::new(2);
        let pts = perturbed_grid(4, 5, 1.0, 0.0, &mut rng);
        assert_eq!(pts.len(), 20);
        assert!((pts[1].x - pts[0].x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn line_is_evenly_spaced() {
        let pts = line(10, 0.5);
        for w in pts.windows(2) {
            assert!((w[0].dist(w[1]) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn min_separation_filter_enforces_separation() {
        let mut rng = Rng64::new(3);
        let pts = with_min_separation(uniform_square(400, 2.0, &mut rng), 0.2);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                assert!(pts[i].dist(pts[j]) >= 0.2);
            }
        }
        assert!(!pts.is_empty());
    }

    #[test]
    fn gaussian_clusters_form_dense_spots() {
        let mut rng = Rng64::new(4);
        let pts = gaussian_clusters(3, 30, 0.05, 10.0, &mut rng);
        assert_eq!(pts.len(), 90);
    }

    #[test]
    fn target_degree_is_roughly_achieved() {
        let mut rng = Rng64::new(5);
        let pts = uniform_with_target_degree(600, 12, 0.8, &mut rng);
        let net = crate::Network::builder(pts).build().unwrap();
        let delta = net.max_degree();
        // Max degree concentrates a bit above the mean target; just check
        // the right ballpark (this guards against unit mistakes).
        assert!(
            (8..=40).contains(&delta),
            "max degree {delta} far from target 12"
        );
    }

    #[test]
    fn corridor_with_spine_is_connected() {
        let mut rng = Rng64::new(6);
        let pts = corridor_with_spine(60, 12.0, 1.0, 0.5, &mut rng);
        let net = crate::Network::builder(pts).build().unwrap();
        assert!(net.comm_graph().is_connected());
    }

    #[test]
    fn ring_points_lie_on_circle() {
        let pts = ring(16, 2.0);
        let c = Point::new(2.0, 2.0);
        for p in &pts {
            assert!((p.dist(c) - 2.0).abs() < 1e-9);
        }
    }
}
