//! Planar geometry primitives.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the Euclidean plane.
///
/// ```
/// use dcluster_sim::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.dist(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper; use for comparisons).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// True iff `self` lies in the closed ball `B(center, r)`.
    #[inline]
    pub fn in_ball(self, center: Point, r: f64) -> bool {
        self.dist_sq(center) <= r * r
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_squared_agree() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-2.0, 6.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(b) - 25.0).abs() < 1e-12);
        assert_eq!(a.dist(b), b.dist(a));
    }

    #[test]
    fn ball_membership_is_closed() {
        let c = Point::new(0.0, 0.0);
        assert!(Point::new(1.0, 0.0).in_ball(c, 1.0));
        assert!(!Point::new(1.0 + 1e-9, 0.0).in_ball(c, 1.0));
    }

    #[test]
    fn vector_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = Point::new(0.3, 0.7);
        let b = Point::new(2.0, -1.0);
        let c = Point::new(-4.0, 5.0);
        assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-12);
    }
}
