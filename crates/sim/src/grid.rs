//! Uniform spatial grid.
//!
//! The geometric queries of the simulator (communication-graph
//! construction, density estimation, the resolver's reach lists) go
//! through this index. Cells have a fixed side length; a disk query of
//! radius `r` touches `O((r/cell)²)` cells, and never more than the
//! grid's cell box. The SINR resolver sorts each field round's
//! transmitters over the network grid's cells and visits that round's
//! listeners in the grid's member order.
//!
//! **Layout.** A grid covers its *cell box*: the bounding box, in cell
//! coordinates, of the points it is built on. Its members sit in one
//! array sorted by cell, x-major like the box, with the start offset of
//! every box cell (`CellSorted`, whose counting sort and column lookup
//! the interference field shares). A cell lookup is two subtractions and
//! an index, and every query clips its cells to the box. The cell side is
//! the one asked for unless that box would exceed `max(4096, 4·n)` cells;
//! then it is doubled until the box fits, which bounds memory for any
//! finite deployment. Cell keys are clamped to `±2⁶¹`, so key differences
//! and ring offsets around a key never overflow `i64`.
//!
//! A grid is immutable once built. Members of a cell are stored in index
//! order, so query iteration order, and with it every floating-point
//! summation downstream, is a function of the points alone.

use crate::point::Point;

/// Cell keys are clamped to `±KEY_LIMIT`: the difference of two keys and
/// a key plus any ring offset the field uses (at most `2²⁰`) stay far
/// inside `i64`. Clamping is monotone, so keys that differ by more than
/// `k` still belong to points more than `k` cells apart.
const KEY_LIMIT: i64 = 1 << 61;

/// A cell box of up to this many cells always keeps the cell side asked
/// for; larger boxes keep it only up to `4·n` cells.
const MIN_BOX_CELLS: u64 = 4096;

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
    /// The point indices, sorted by cell.
    members: CellSorted<u32>,
}

impl Grid {
    /// Builds a grid over `points` with cell side `cell·2ʲ`, where `j` is
    /// the smallest value whose cell box has at most `max(4096, 4·n)`
    /// cells (`j = 0` unless the points are spread far apart).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite, or if a
    /// point has a coordinate that is not finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        let mut members = CellSorted::default();
        let n = points.len() as u32;
        members.sort(CellBox::over(points, cell), 0..n, |&i| points[i as usize]);
        Self { members }
    }

    /// Cell side length.
    pub fn cell_size(&self) -> f64 {
        self.members.area.cell
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
        self.members
            .disk(center, r)
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

    /// Number of non-empty cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        let starts = &self.members.starts;
        starts.windows(2).filter(|s| s[0] < s[1]).count()
    }

    /// The cell box, which covers every stored point.
    pub(crate) fn area(&self) -> CellBox {
        self.members.area
    }

    /// The stored point indices, x-major by cell and in index order
    /// within a cell.
    pub(crate) fn by_cell(&self) -> &[u32] {
        &self.members.items
    }
}

/// A tiling of the plane by square cells and a box of them: its smallest
/// x and y cell keys and its extent in cells.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct CellBox {
    /// Cell side length.
    pub cell: f64,
    pub origin: (i64, i64),
    pub width: usize,
    pub height: usize,
}

impl CellBox {
    /// The cell box of `points` at side `cell·2ʲ`, with `j` the smallest
    /// value for which it has at most `max(4096, 4·n)` cells. Keys are
    /// monotone in each coordinate, so the box is spanned by the keys of
    /// the points' bounding box. Finite points always fit before the
    /// side overflows: at a side of `2¹⁰²⁰` or more every key lies in
    /// `−16..=16`.
    fn over(points: &[Point], cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell size must be positive"
        );
        let (mut lo, mut hi) = (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        );
        for p in points {
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "grid points must be finite"
            );
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let mut area = Self {
            cell,
            ..Self::default()
        };
        if points.is_empty() {
            return area;
        }
        let cap = MIN_BOX_CELLS.max((points.len() as u64).saturating_mul(4));
        loop {
            let ((x0, y0), (x1, y1)) = (area.key(&lo), area.key(&hi));
            // Clamped keys keep `x1 − x0` within 2⁶², so the extents fit.
            let (width, height) = ((x1 - x0 + 1) as u64, (y1 - y0 + 1) as u64);
            if width.checked_mul(height).is_some_and(|cells| cells <= cap) {
                area.origin = (x0, y0);
                (area.width, area.height) = (width as usize, height as usize);
                return area;
            }
            area.cell *= 2.0;
        }
    }

    /// Cell key of `p`, each coordinate clamped to `±2⁶¹`.
    #[inline]
    pub(crate) fn key(&self, p: &Point) -> (i64, i64) {
        let axis = |v: f64| ((v / self.cell).floor() as i64).clamp(-KEY_LIMIT, KEY_LIMIT);
        (axis(p.x), axis(p.y))
    }

    /// The largest x and y keys of the box (one below the origin's on an
    /// axis of extent 0).
    pub(crate) fn last(&self) -> (i64, i64) {
        let (ox, oy) = self.origin;
        (ox + self.width as i64 - 1, oy + self.height as i64 - 1)
    }

    /// The x-major index of box cell `key`, which must lie in the box.
    #[inline]
    fn index(&self, (x, y): (i64, i64)) -> usize {
        (x - self.origin.0) as usize * self.height + (y - self.origin.1) as usize
    }
}

/// Items sorted by the cells of a [`CellBox`]: x-major, in input order
/// within a cell, with the start offset of every cell of the box.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CellSorted<T> {
    area: CellBox,
    /// Box cell `s` (x-major) holds `items[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> CellSorted<T> {
    /// Sorts `items` over the cells of `area` by a stable counting sort,
    /// each at the cell of its position `pos(item)`, which must lie in the
    /// box, and returns the number of occupied cells. The buffers are
    /// reused.
    pub(crate) fn sort<I>(&mut self, area: CellBox, items: I, pos: impl Fn(&T) -> Point) -> usize
    where
        I: Iterator<Item = T> + Clone,
    {
        self.area = area;
        let index = |t: &T| area.index(area.key(&pos(t)));
        // Cell s's count lands in starts[s + 2], the prefix sums turn
        // starts[s + 1] into its first position, and placing each item
        // advances it to the next cell's.
        self.starts.clear();
        self.starts.resize(area.width * area.height + 2, 0);
        for t in items.clone() {
            self.starts[index(&t) + 2] += 1;
        }
        let mut occupied = 0;
        let mut total = 0;
        for start in &mut self.starts[2..] {
            occupied += usize::from(*start > 0);
            total += *start;
            *start = total;
        }
        self.items.clear();
        self.items.resize(total as usize, T::default());
        for t in items {
            let next = &mut self.starts[index(&t) + 1];
            self.items[*next as usize] = t;
            *next += 1;
        }
        self.starts.pop();
        occupied
    }
}

impl<T> CellSorted<T> {
    /// The box the items were sorted over.
    pub(crate) fn area(&self) -> &CellBox {
        &self.area
    }

    /// The items of box cell `s` (x-major).
    #[inline]
    pub(crate) fn cell(&self, s: usize) -> &[T] {
        &self.items[self.starts[s] as usize..self.starts[s + 1] as usize]
    }

    /// The items of cells `(cx, lo_y..=hi_y)`, in cell order: one
    /// contiguous run, empty where the column lies outside the box. The
    /// keys may lie anywhere within a ring offset of the clamp limit.
    #[inline]
    pub(crate) fn column(&self, cx: i64, lo_y: i64, hi_y: i64) -> &[T] {
        let ((ox, oy), height) = (self.area.origin, self.area.height);
        let x = cx - ox;
        let (y0, y1) = ((lo_y - oy).max(0), (hi_y - oy).min(height as i64 - 1));
        if !(0..self.area.width as i64).contains(&x) || y0 > y1 {
            return &[];
        }
        let base = x as usize * height;
        &self.items
            [self.starts[base + y0 as usize] as usize..self.starts[base + y1 as usize + 1] as usize]
    }

    /// The columns of the cells a disk query of radius `r` around
    /// `center` must scan, clipped to the box: one run per column, x
    /// ascending, y ascending within a run.
    pub(crate) fn disk(&self, center: Point, r: f64) -> impl Iterator<Item = &[T]> + '_ {
        let (lo_x, lo_y) = self.area.key(&Point::new(center.x - r, center.y - r));
        let (hi_x, hi_y) = self.area.key(&Point::new(center.x + r, center.y + r));
        let (ox, ex) = (self.area.origin.0, self.area.last().0);
        (lo_x.max(ox)..=hi_x.min(ex)).map(move |cx| self.column(cx, lo_y, hi_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use proptest::prelude::*;

    fn brute_within(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].dist(c) <= r)
            .collect();
        v.sort_unstable();
        v
    }

    fn sorted_within(grid: &Grid, points: &[Point], c: Point, r: f64) -> Vec<usize> {
        let mut got: Vec<usize> = grid.within(points, c, r).collect();
        got.sort_unstable();
        got
    }

    /// Asserts the coarsening rule on a grid built at cell side `cell`:
    /// its side is `cell·2ʲ` with `j` the smallest value whose box fits
    /// the cap, and returns `j`.
    fn assert_coarsened(grid: &Grid, points: &[Point], cell: f64) -> u32 {
        let cap = MIN_BOX_CELLS.max(4 * points.len() as u64);
        let cells = |area: &CellBox| (area.width * area.height) as u64;
        let area = grid.area();
        assert!(
            cells(&area) <= cap,
            "{} cells past the cap {cap}",
            cells(&area)
        );
        let j = (area.cell / cell).log2().round() as u32;
        assert_eq!(area.cell, cell * 2f64.powi(j as i32), "a side of cell·2ʲ");
        if j > 0 {
            let finer = CellBox {
                cell: area.cell / 2.0,
                ..CellBox::default()
            };
            let keys: Vec<(i64, i64)> = points.iter().map(|p| finer.key(p)).collect();
            let span = |axis: fn(&(i64, i64)) -> i64| {
                let (lo, hi) = (keys.iter().map(axis).min(), keys.iter().map(axis).max());
                (hi.unwrap() - lo.unwrap() + 1) as u64
            };
            let finer_cells = span(|k| k.0).checked_mul(span(|k| k.1));
            assert!(
                finer_cells.is_none_or(|c| c > cap),
                "j = {j} is not minimal"
            );
        }
        j
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
                assert_eq!(sorted_within(&grid, &pts, c, r), brute_within(&pts, c, r));
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
    fn oversized_cell_box_coarsens_the_cells() {
        // 50 points on a 10⁷ × 10⁷ square plus two clusters 10⁹ apart: the
        // cell box at side 1 is ~10¹⁶ cells, far past the cap, and side
        // 2²¹ is the first to fit.
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
        assert_eq!(assert_coarsened(&grid, &pts, 1.0), 21);
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
            assert_eq!(sorted_within(&grid, &pts, c, r), brute_within(&pts, c, r));
        }
    }

    #[test]
    fn table_box_respects_the_cell_cap() {
        // A line of n points one cell apart has an n-cell box: side 1.
        let line: Vec<Point> = (0..5000).map(|i| Point::new(i as f64, 0.5)).collect();
        let grid = Grid::build(&line, 1.0);
        assert_eq!(assert_coarsened(&grid, &line, 1.0), 0);
        assert_eq!((grid.area().width, grid.area().height), (5000, 1));
        assert_eq!(grid.by_cell(), (0..5000).collect::<Vec<u32>>());
        assert_eq!(grid.occupied_cells(), 5000);
        // Spread 4× wider (5000·4 cells for n = 5000): still at the cap.
        let wide: Vec<Point> = (0..5000).map(|i| Point::new(4.0 * i as f64, 0.5)).collect();
        let grid = Grid::build(&wide, 1.0);
        assert_eq!(assert_coarsened(&grid, &wide, 1.0), 0);
        assert_eq!(grid.area().width, 19997);
        // 5× wider: past max(4096, 4n), so the cells double once.
        let wider: Vec<Point> = (0..5000).map(|i| Point::new(5.0 * i as f64, 0.5)).collect();
        let grid = Grid::build(&wider, 1.0);
        assert_eq!(assert_coarsened(&grid, &wider, 1.0), 1);
        assert_eq!(grid.cell_size(), 2.0);
        assert_eq!(grid.occupied_cells(), 5000);
        assert_eq!(grid.count_within(&wider, Point::new(10.0, 0.5), 5.0), 3);
        for (c, r) in [(Point::new(10.0, 0.5), 5.0), (Point::new(-3.0, 7.0), 40.0)] {
            assert_eq!(
                sorted_within(&grid, &wider, c, r),
                brute_within(&wider, c, r)
            );
        }
    }

    #[test]
    fn far_out_coordinates_clamp_their_keys() {
        let pts = vec![
            Point::new(1e300, 0.5),
            Point::new(-1e300, 0.5),
            Point::new(1e300, 1.5),
        ];
        // At side 1 the keys clamp to ±2⁶¹, so the box needs a side near
        // 10²⁹⁷ to fit.
        let unit = CellBox {
            cell: 1.0,
            ..CellBox::default()
        };
        assert_eq!(unit.key(&pts[0]), (KEY_LIMIT, 0));
        assert_eq!(unit.key(&pts[1]), (-KEY_LIMIT, 0));
        let grid = Grid::build(&pts, 1.0);
        assert!(assert_coarsened(&grid, &pts, 1.0) > 900);
        let (x, y) = grid.area().key(&pts[0]);
        assert_eq!(grid.members.column(x, y, KEY_LIMIT), &[0, 2]);
        assert_eq!(grid.members.column(KEY_LIMIT, y, y), &[] as &[u32]);
        assert_eq!(
            grid.members.column(-KEY_LIMIT, -KEY_LIMIT, KEY_LIMIT),
            &[] as &[u32]
        );
        for (c, r) in [
            (pts[0], 1.0),
            (pts[1], 2.0),
            (pts[2], 1e100),
            (Point::ORIGIN, 1e150),
        ] {
            assert_eq!(sorted_within(&grid, &pts, c, r), brute_within(&pts, c, r));
        }
    }

    #[test]
    fn huge_radius_queries_stay_in_the_box() {
        // A radius of 10¹⁰⁰ spans ~10¹⁰⁰ cell keys per axis; clipped to
        // the box, the query visits its 100 cells.
        let mut rng = Rng64::new(7);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(0.0, 10.0), rng.range_f64(0.0, 10.0)))
            .collect();
        let grid = Grid::build(&pts, 1.0);
        for c in [pts[3], Point::new(-1e50, 1e50), Point::ORIGIN] {
            assert_eq!(
                sorted_within(&grid, &pts, c, 1e100),
                brute_within(&pts, c, 1e100)
            );
        }
    }

    #[test]
    #[should_panic(expected = "grid points must be finite")]
    fn non_finite_points_are_refused() {
        let _ = Grid::build(&[Point::new(0.0, 0.0), Point::new(f64::INFINITY, 0.0)], 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `within` equals brute force on random clouds whose cell box at
        /// the side asked for is 1× to 10⁶× the cap: a dense core plus a
        /// few outliers that stretch the box along one or both axes.
        #[test]
        fn within_matches_brute_force_past_the_cap(
            seed in 0u64..10_000,
            n in 20usize..400,
            stretch_exp in 0u32..61,
            both_axes in 0u32..2,
        ) {
            let mut rng = Rng64::new(seed);
            let cap = MIN_BOX_CELLS.max(4 * n as u64) as f64;
            // Box of `cap · 10^(stretch_exp/10)` cells at side 1.
            let cells = cap * 10f64.powf(stretch_exp as f64 / 10.0);
            let (w, h) = if both_axes == 1 {
                (cells.sqrt(), cells.sqrt())
            } else {
                (cells, 1.0)
            };
            let core = (w.min(30.0), h.min(30.0));
            let mut pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, core.0), rng.range_f64(0.0, core.1)))
                .collect();
            pts.push(Point::new(w - 1.0, h - 1.0));
            pts.push(Point::new(0.0, 0.0));
            for _ in 0..4 {
                pts.push(Point::new(rng.range_f64(0.0, w), rng.range_f64(0.0, h)));
            }
            let grid = Grid::build(&pts, 1.0);
            assert_coarsened(&grid, &pts, 1.0);
            for _ in 0..20 {
                let c = pts[rng.range_usize(pts.len())];
                let r = rng.range_f64(0.0, 3.0) * grid.cell_size();
                prop_assert_eq!(sorted_within(&grid, &pts, c, r), brute_within(&pts, c, r));
            }
        }
    }
}
