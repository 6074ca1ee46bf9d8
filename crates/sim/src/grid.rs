//! Uniform spatial grid.
//!
//! The geometric queries of the simulator (communication-graph
//! construction, density estimation) go through this index. Cells have a
//! fixed side length; a disk query of radius `r` touches `O((r/cell)²)`
//! cells. The SINR resolver sorts each field round's transmitters over
//! the network grid's table box and visits that round's listeners cell
//! by cell through the network grid's member lists.
//!
//! **Layout.** Member lists live in a flat table over the *cell box*: the
//! bounding box, in cell coordinates, of the points the grid is built on.
//! A cell lookup is two subtractions, a bounds check and an index. A box
//! of more than `max(4096, 4·n)` cells gets no table at all and every cell
//! goes to an ordered spill map, which bounds memory for any deployment.
//! Cell keys are clamped to `±2⁶¹`, so key differences and ring offsets
//! around a key never overflow `i64`.
//!
//! A grid is immutable once built. Members are stored in the order they
//! are inserted at build time, so query iteration order, and with it
//! every floating-point summation downstream, is a function of the points
//! alone.

use crate::point::Point;
use std::collections::BTreeMap;

/// Cell keys are clamped to `±KEY_LIMIT`: the difference of two keys and
/// a key plus any ring offset the field uses (at most `2²⁰`) stay far
/// inside `i64`. Clamping is monotone, so keys that differ by more than
/// `k` still belong to points more than `k` cells apart.
const KEY_LIMIT: i64 = 1 << 61;

/// A cell box of up to this many cells always gets a table; larger boxes
/// get one only up to `4·n` cells.
const MIN_TABLE_CELLS: u64 = 4096;

/// A uniform grid over a set of points, mapping cells to point indices.
///
/// ```
/// use dcluster_sim::{Grid, Point};
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5), Point::new(3.0, 3.0)];
/// let grid = Grid::build(&pts, 1.0);
/// let near: Vec<usize> = grid.within(&pts, Point::new(0.0, 0.0), 1.0).collect();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    cell: f64,
    /// Smallest x and y cell keys of the table box.
    origin: (i64, i64),
    /// Table box extent in cells along x and y (both 0 without a table).
    width: u64,
    height: u64,
    /// Member lists of the box's cells, x-major: cell `(x, y)` sits at
    /// `(x − origin.0)·height + (y − origin.1)`.
    table: Vec<Vec<u32>>,
    /// Number of non-empty lists in `table`.
    table_occupied: usize,
    /// The non-empty cells outside the table box.
    spill: BTreeMap<(i64, i64), Vec<u32>>,
}

impl Grid {
    /// Builds a grid with the given cell side length.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        let mut grid = Self::empty_over(points, cell);
        for (i, p) in points.iter().enumerate() {
            grid.members_for_insert(Self::key(p, cell)).push(i as u32);
        }
        grid
    }

    /// An empty grid whose table covers the cell box of `points`, or no
    /// table when that box exceeds `max(4096, 4·points.len())` cells.
    fn empty_over(points: &[Point], cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell size must be positive"
        );
        let mut lo = (KEY_LIMIT, KEY_LIMIT);
        let mut hi = (-KEY_LIMIT, -KEY_LIMIT);
        for p in points {
            let (x, y) = Self::key(p, cell);
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
        }
        let cap = MIN_TABLE_CELLS.max((points.len() as u64).saturating_mul(4));
        // Clamped keys keep `hi − lo` within 2⁶², so the extents fit.
        let extent = |lo: i64, hi: i64| (hi - lo + 1) as u64;
        let (origin, width, height) = if points.is_empty() {
            ((0, 0), 0, 0)
        } else {
            (lo, extent(lo.0, hi.0), extent(lo.1, hi.1))
        };
        let (width, height) = match width.checked_mul(height) {
            Some(cells) if cells <= cap => (width, height),
            _ => (0, 0),
        };
        Self {
            cell,
            origin,
            width,
            height,
            table: vec![Vec::new(); (width * height) as usize],
            table_occupied: 0,
            spill: BTreeMap::new(),
        }
    }

    /// Cell key of `p` under a tiling of side `cell`, each coordinate
    /// clamped to `±2⁶¹`.
    #[inline]
    pub(crate) fn key(p: &Point, cell: f64) -> (i64, i64) {
        let axis = |v: f64| ((v / cell).floor() as i64).clamp(-KEY_LIMIT, KEY_LIMIT);
        (axis(p.x), axis(p.y))
    }

    /// Table index of cell `key`, or `None` outside the table box. The
    /// wrapping differences turn a key below the box into an offset far
    /// above any extent, so one unsigned comparison per axis suffices.
    #[inline]
    fn slot(&self, (x, y): (i64, i64)) -> Option<usize> {
        let dx = x.wrapping_sub(self.origin.0) as u64;
        let dy = y.wrapping_sub(self.origin.1) as u64;
        (dx < self.width && dy < self.height).then(|| (dx * self.height + dy) as usize)
    }

    /// The member list of cell `key` for a caller about to add a member to
    /// it (an empty table list counts as occupied from here on).
    fn members_for_insert(&mut self, key: (i64, i64)) -> &mut Vec<u32> {
        match self.slot(key) {
            Some(s) => {
                let members = &mut self.table[s];
                self.table_occupied += usize::from(members.is_empty());
                members
            }
            None => self.spill.entry(key).or_default(),
        }
    }

    /// Cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Iterates indices of stored points within distance `r` of `center`
    /// (closed ball), in unspecified order.
    pub fn within<'a>(
        &'a self,
        points: &'a [Point],
        center: Point,
        r: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let r_sq = r * r;
        self.candidate_cells(center, r)
            .flat_map(|ids| ids.iter().copied())
            .filter_map(move |i| {
                let i = i as usize;
                (points[i].dist_sq(center) <= r_sq).then_some(i)
            })
    }

    /// Counts stored points within distance `r` of `center`.
    pub fn count_within(&self, points: &[Point], center: Point, r: f64) -> usize {
        self.within(points, center, r).count()
    }

    /// Cell key of an arbitrary position under this grid's tiling (each
    /// coordinate clamped to `±2⁶¹`).
    #[inline]
    pub fn key_of(&self, p: Point) -> (i64, i64) {
        Self::key(&p, self.cell)
    }

    /// Stored point indices in cell `key` (empty slice if the cell is
    /// unoccupied).
    #[inline]
    pub fn cell_members(&self, key: (i64, i64)) -> &[u32] {
        match self.slot(key) {
            Some(s) => &self.table[s],
            None => self.spill.get(&key).map_or(&[], Vec::as_slice),
        }
    }

    /// Member lists of the cells a disk query of radius `r` around
    /// `center` must scan: x outer, y inner, empty cells included.
    fn candidate_cells(&self, center: Point, r: f64) -> impl Iterator<Item = &[u32]> + '_ {
        let (lo_x, lo_y) = self.key_of(Point::new(center.x - r, center.y - r));
        let (hi_x, hi_y) = self.key_of(Point::new(center.x + r, center.y + r));
        (lo_x..=hi_x).flat_map(move |cx| (lo_y..=hi_y).map(move |cy| self.cell_members((cx, cy))))
    }

    /// Number of non-empty cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        self.table_occupied + self.spill.len()
    }

    /// The table box as `(origin, width, height)`: its smallest x and y
    /// cell keys and its extent in cells, or `None` when the grid has no
    /// table.
    pub(crate) fn table_box(&self) -> Option<((i64, i64), usize, usize)> {
        (!self.table.is_empty()).then_some((self.origin, self.width as usize, self.height as usize))
    }

    /// The member lists of every cell, in key order: the table's x-major,
    /// empty cells included, then the spill's (a grid has one or the
    /// other, since its table box covers all its points).
    pub(crate) fn cells(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let table = self.table.iter().map(Vec::as_slice);
        table.chain(self.spill.values().map(Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn brute_within(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].dist(c) <= r)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn within_matches_brute_force_on_random_clouds() {
        let mut rng = Rng64::new(42);
        for trial in 0..20 {
            let n = 50 + trial * 13;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0)))
                .collect();
            let grid = Grid::build(&pts, 0.7);
            for _ in 0..10 {
                let c = Point::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0));
                let r = rng.range_f64(0.1, 3.0);
                let mut got: Vec<usize> = grid.within(&pts, c, r).collect();
                got.sort_unstable();
                assert_eq!(got, brute_within(&pts, c, r));
            }
        }
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let pts = vec![Point::new(-0.01, -0.01), Point::new(0.01, 0.01)];
        let grid = Grid::build(&pts, 1.0);
        assert_eq!(grid.count_within(&pts, Point::ORIGIN, 0.1), 2);
    }

    #[test]
    fn oversized_cell_box_spills_every_cell() {
        // 50 points on a 10⁷ × 10⁷ square plus two clusters 10⁹ apart: the
        // cell box is ~10¹⁸ cells, far past the table cap.
        let mut rng = Rng64::new(1009);
        let mut pts: Vec<Point> = (0..50)
            .map(|_| Point::new(rng.range_f64(0.0, 1e7), rng.range_f64(0.0, 1e7)))
            .collect();
        for anchor in [Point::new(-5e8, 0.0), Point::new(5e8, 0.0)] {
            pts.extend((0..20).map(|_| {
                Point::new(
                    anchor.x + rng.range_f64(-1.5, 1.5),
                    anchor.y + rng.range_f64(-1.5, 1.5),
                )
            }));
        }
        let grid = Grid::build(&pts, 1.0);
        assert!(grid.table.is_empty(), "a box past the cap gets no table");
        assert_eq!(grid.spill.len(), grid.occupied_cells());
        let mut centers: Vec<Point> = pts.clone();
        centers.extend((0..40).map(|_| {
            let anchor = pts[50 + 20 * rng.range_usize(2)];
            Point::new(
                anchor.x + rng.range_f64(-3.0, 3.0),
                anchor.y + rng.range_f64(-3.0, 3.0),
            )
        }));
        for c in centers {
            let r = rng.range_f64(0.1, 3.0);
            let mut got: Vec<usize> = grid.within(&pts, c, r).collect();
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, c, r));
        }
    }

    #[test]
    fn table_box_respects_the_cell_cap() {
        // A line of n points one cell apart has an n-cell box: tabulated.
        let line: Vec<Point> = (0..5000).map(|i| Point::new(i as f64, 0.5)).collect();
        let grid = Grid::build(&line, 1.0);
        assert_eq!(grid.table.len(), 5000);
        assert!(grid.spill.is_empty());
        assert_eq!(grid.table_box(), Some(((0, 0), 5000, 1)));
        assert!(grid.cells().all(|members| members.len() == 1));
        // Spread 4× wider (5000·4 cells for n = 5000): still at the cap.
        let wide: Vec<Point> = (0..5000).map(|i| Point::new(4.0 * i as f64, 0.5)).collect();
        assert_eq!(Grid::build(&wide, 1.0).table.len(), 19997);
        // 5× wider: past max(4096, 4n), so nothing is tabulated.
        let wider: Vec<Point> = (0..5000).map(|i| Point::new(5.0 * i as f64, 0.5)).collect();
        let grid = Grid::build(&wider, 1.0);
        assert!(grid.table.is_empty());
        assert_eq!(grid.table_box(), None);
        assert_eq!(grid.cells().count(), 5000, "every cell spilled");
        assert_eq!(grid.occupied_cells(), 5000);
        assert_eq!(grid.count_within(&wider, Point::new(10.0, 0.5), 5.0), 3);
    }

    #[test]
    fn far_out_coordinates_clamp_their_keys() {
        let pts = vec![
            Point::new(1e300, 0.5),
            Point::new(-1e300, 0.5),
            Point::new(1e300, 1.5),
        ];
        let grid = Grid::build(&pts, 1.0);
        assert_eq!(grid.key_of(pts[0]), (KEY_LIMIT, 0));
        assert_eq!(grid.key_of(pts[1]), (-KEY_LIMIT, 0));
        assert_eq!(grid.cell_members((i64::MAX, 0)), &[] as &[u32]);
        assert_eq!(grid.cell_members((i64::MIN, 0)), &[] as &[u32]);
        let near: Vec<usize> = grid.within(&pts, pts[0], 1.0).collect();
        assert_eq!(near, vec![0, 2]);
    }
}
