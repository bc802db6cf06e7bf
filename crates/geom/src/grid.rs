//! Occupancy grids: rasterization and distance transforms.
//!
//! The grid is the shared raster substrate: the hybrid-A* planner uses it
//! for its heuristic distance map, and the perception crate rasterizes the
//! world into ego-centric BEV images on top of it.

use crate::{Aabb, Circle, ConvexPolygon, Obb, Vec2};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Integer grid coordinates `(col, row)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cell {
    /// Column index (x direction).
    pub col: i64,
    /// Row index (y direction).
    pub row: i64,
}

impl Cell {
    /// Creates a cell coordinate.
    pub const fn new(col: i64, row: i64) -> Self {
        Cell { col, row }
    }
}

/// A rectangular occupancy grid over a world-frame region.
///
/// Cells store `u8` occupancy (0 = free, 255 = occupied; intermediate values
/// are used by perception for soft evidence). The world-frame anchor is the
/// *minimum corner* of cell `(0, 0)`.
///
/// # Example
///
/// ```
/// use icoil_geom::{OccupancyGrid, Vec2, Obb, Pose2};
///
/// let mut g = OccupancyGrid::new(Vec2::ZERO, 0.5, 40, 40);
/// g.fill_obb(&Obb::from_pose(Pose2::new(10.0, 10.0, 0.3), 4.0, 2.0), 255);
/// assert!(g.occupancy_at(Vec2::new(10.0, 10.0)) > 0);
/// assert_eq!(g.occupancy_at(Vec2::new(1.0, 1.0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyGrid {
    origin: Vec2,
    resolution: f64,
    cols: usize,
    rows: usize,
    data: Vec<u8>,
}

impl OccupancyGrid {
    /// Creates an all-free grid.
    ///
    /// `origin` is the world position of the minimum corner; `resolution` is
    /// the cell edge length in meters.
    ///
    /// # Panics
    ///
    /// Panics when `resolution` is not strictly positive or a dimension is 0.
    pub fn new(origin: Vec2, resolution: f64, cols: usize, rows: usize) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "grid resolution must be positive"
        );
        assert!(cols > 0 && rows > 0, "grid dimensions must be non-zero");
        OccupancyGrid {
            origin,
            resolution,
            cols,
            rows,
            data: vec![0; cols * rows],
        }
    }

    /// Creates a grid covering `bounds` at the given resolution.
    pub fn covering(bounds: &Aabb, resolution: f64) -> Self {
        let cols = (bounds.width() / resolution).ceil().max(1.0) as usize;
        let rows = (bounds.height() / resolution).ceil().max(1.0) as usize;
        OccupancyGrid::new(bounds.min, resolution, cols, rows)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cell edge length in meters.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// World position of the minimum corner of cell `(0, 0)`.
    pub fn origin(&self) -> Vec2 {
        self.origin
    }

    /// Raw cell data in row-major order (row 0 first).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw cell data in row-major order.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// World-frame axis-aligned extent covered by the grid.
    pub fn bounds(&self) -> Aabb {
        Aabb::new(
            self.origin,
            self.origin
                + Vec2::new(
                    self.cols as f64 * self.resolution,
                    self.rows as f64 * self.resolution,
                ),
        )
    }

    /// Converts a world point to (possibly out-of-range) cell coordinates.
    pub fn world_to_cell(&self, p: Vec2) -> Cell {
        Cell::new(
            ((p.x - self.origin.x) / self.resolution).floor() as i64,
            ((p.y - self.origin.y) / self.resolution).floor() as i64,
        )
    }

    /// World position of a cell's center.
    pub fn cell_to_world(&self, c: Cell) -> Vec2 {
        self.origin
            + Vec2::new(
                (c.col as f64 + 0.5) * self.resolution,
                (c.row as f64 + 0.5) * self.resolution,
            )
    }

    /// Returns `true` when the cell lies inside the grid.
    pub fn in_bounds(&self, c: Cell) -> bool {
        c.col >= 0 && c.row >= 0 && (c.col as usize) < self.cols && (c.row as usize) < self.rows
    }

    fn index(&self, c: Cell) -> Option<usize> {
        if self.in_bounds(c) {
            Some(c.row as usize * self.cols + c.col as usize)
        } else {
            None
        }
    }

    /// Occupancy of a cell; out-of-bounds cells read as occupied (255).
    pub fn occupancy(&self, c: Cell) -> u8 {
        match self.index(c) {
            Some(i) => self.data[i],
            None => 255,
        }
    }

    /// Occupancy at a world position.
    pub fn occupancy_at(&self, p: Vec2) -> u8 {
        self.occupancy(self.world_to_cell(p))
    }

    /// Sets the occupancy of a cell; out-of-bounds writes are ignored.
    pub fn set(&mut self, c: Cell, value: u8) {
        if let Some(i) = self.index(c) {
            self.data[i] = value;
        }
    }

    /// Returns `true` when the cell is at least `threshold` occupied.
    pub fn is_occupied(&self, c: Cell, threshold: u8) -> bool {
        self.occupancy(c) >= threshold
    }

    /// Resets every cell to `value`.
    pub fn fill(&mut self, value: u8) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Rasterizes a line between two world points (Bresenham).
    pub fn draw_line(&mut self, from: Vec2, to: Vec2, value: u8) {
        let a = self.world_to_cell(from);
        let b = self.world_to_cell(to);
        for c in bresenham(a, b) {
            self.set(c, value);
        }
    }

    /// Fills every cell whose center lies inside the oriented box.
    pub fn fill_obb(&mut self, obb: &Obb, value: u8) {
        let bb = obb.aabb();
        self.fill_region(&bb, |p| obb.contains(p), value);
    }

    /// Fills every cell whose center lies inside the circle.
    pub fn fill_circle(&mut self, circle: &Circle, value: u8) {
        let bb = Aabb::from_center(circle.center, circle.radius, circle.radius);
        self.fill_region(&bb, |p| circle.contains(p), value);
    }

    /// Fills every cell whose center lies inside the convex polygon.
    pub fn fill_polygon(&mut self, poly: &ConvexPolygon, value: u8) {
        if let Some(bb) = Aabb::from_points(poly.vertices().iter().copied()) {
            self.fill_region(&bb, |p| poly.contains(p), value);
        }
    }

    fn fill_region<F: Fn(Vec2) -> bool>(&mut self, bb: &Aabb, inside: F, value: u8) {
        let lo = self.world_to_cell(bb.min);
        let hi = self.world_to_cell(bb.max);
        for row in lo.row.max(0)..=hi.row.min(self.rows as i64 - 1) {
            for col in lo.col.max(0)..=hi.col.min(self.cols as i64 - 1) {
                let c = Cell::new(col, row);
                if inside(self.cell_to_world(c)) {
                    self.set(c, value);
                }
            }
        }
    }

    /// Grows occupied cells (`>= threshold`) by `radius` meters (disc kernel).
    pub fn inflate(&mut self, radius: f64, threshold: u8) {
        let r_cells = (radius / self.resolution).ceil() as i64;
        if r_cells <= 0 {
            return;
        }
        let src = self.clone();
        let r_sq = (radius / self.resolution) * (radius / self.resolution);
        for row in 0..self.rows as i64 {
            for col in 0..self.cols as i64 {
                let c = Cell::new(col, row);
                if src.is_occupied(c, threshold) {
                    continue;
                }
                'scan: for dr in -r_cells..=r_cells {
                    for dc in -r_cells..=r_cells {
                        if (dr * dr + dc * dc) as f64 > r_sq {
                            continue;
                        }
                        let n = Cell::new(col + dc, row + dr);
                        if src.in_bounds(n) && src.is_occupied(n, threshold) {
                            self.set(c, 255);
                            break 'scan;
                        }
                    }
                }
            }
        }
    }

    /// Multi-source BFS distance map (in meters, 8-connected) from every
    /// cell satisfying `seed`. Occupied cells (`>= threshold`) are
    /// impassable and read as `f64::INFINITY`.
    ///
    /// This is the "holonomic-with-obstacles" heuristic used by hybrid A*.
    pub fn distance_map<F: Fn(Cell) -> bool>(&self, seed: F, threshold: u8) -> DistanceMap {
        let mut dist = vec![f64::INFINITY; self.cols * self.rows];
        let mut queue: VecDeque<Cell> = VecDeque::new();
        for row in 0..self.rows as i64 {
            for col in 0..self.cols as i64 {
                let c = Cell::new(col, row);
                if seed(c) && !self.is_occupied(c, threshold) {
                    dist[self.index(c).expect("in bounds")] = 0.0;
                    queue.push_back(c);
                }
            }
        }
        // Dijkstra-light: BFS with two edge weights (1, √2) processed with a
        // bucketed deque is close enough on a grid; we use a proper priority
        // order by running rounds with a simple binary heap instead.
        let mut heap: std::collections::BinaryHeap<HeapItem> = queue
            .iter()
            .map(|&c| HeapItem { cost: 0.0, cell: c })
            .collect();
        while let Some(HeapItem { cost, cell }) = heap.pop() {
            let i = match self.index(cell) {
                Some(i) => i,
                None => continue,
            };
            if cost > dist[i] {
                continue;
            }
            for (dc, dr, w) in NEIGHBORS_8 {
                let n = Cell::new(cell.col + dc, cell.row + dr);
                if let Some(j) = self.index(n) {
                    if self.data[j] >= threshold {
                        continue;
                    }
                    let nd = cost + w * self.resolution;
                    if nd < dist[j] {
                        dist[j] = nd;
                        heap.push(HeapItem { cost: nd, cell: n });
                    }
                }
            }
        }
        DistanceMap {
            cols: self.cols,
            rows: self.rows,
            resolution: self.resolution,
            origin: self.origin,
            dist,
        }
    }

    /// Fraction of cells that are at least `threshold` occupied.
    pub fn occupancy_ratio(&self, threshold: u8) -> f64 {
        let n = self.data.iter().filter(|&&v| v >= threshold).count();
        n as f64 / self.data.len() as f64
    }
}

const SQRT2: f64 = std::f64::consts::SQRT_2;
const NEIGHBORS_8: [(i64, i64, f64); 8] = [
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, SQRT2),
    (1, -1, SQRT2),
    (-1, 1, SQRT2),
    (-1, -1, SQRT2),
];

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    cell: Cell,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap behaviour.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of [`OccupancyGrid::distance_map`]: per-cell shortest obstacle-free
/// distance to the seed set, in meters.
#[derive(Debug, Clone)]
pub struct DistanceMap {
    cols: usize,
    rows: usize,
    resolution: f64,
    origin: Vec2,
    dist: Vec<f64>,
}

impl DistanceMap {
    /// Distance of a cell; out-of-bounds reads as infinity.
    pub fn distance(&self, c: Cell) -> f64 {
        if c.col < 0 || c.row < 0 || c.col as usize >= self.cols || c.row as usize >= self.rows {
            return f64::INFINITY;
        }
        self.dist[c.row as usize * self.cols + c.col as usize]
    }

    /// Distance at a world position.
    pub fn distance_at(&self, p: Vec2) -> f64 {
        let c = Cell::new(
            ((p.x - self.origin.x) / self.resolution).floor() as i64,
            ((p.y - self.origin.y) / self.resolution).floor() as i64,
        );
        self.distance(c)
    }
}

/// Integer Bresenham line between two cells (inclusive of both endpoints).
pub fn bresenham(a: Cell, b: Cell) -> Vec<Cell> {
    let mut cells = Vec::new();
    let dx = (b.col - a.col).abs();
    let dy = -(b.row - a.row).abs();
    let sx = if a.col < b.col { 1 } else { -1 };
    let sy = if a.row < b.row { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (a.col, a.row);
    loop {
        cells.push(Cell::new(x, y));
        if x == b.col && y == b.row {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pose2;

    #[test]
    fn world_cell_roundtrip() {
        let g = OccupancyGrid::new(Vec2::new(-5.0, -5.0), 0.25, 40, 40);
        let p = Vec2::new(1.3, -2.7);
        let c = g.world_to_cell(p);
        let back = g.cell_to_world(c);
        assert!(back.distance(p) <= 0.25 * SQRT2 / 2.0 + 1e-12);
    }

    #[test]
    fn out_of_bounds_reads_occupied() {
        let g = OccupancyGrid::new(Vec2::ZERO, 1.0, 4, 4);
        assert_eq!(g.occupancy(Cell::new(-1, 0)), 255);
        assert_eq!(g.occupancy(Cell::new(0, 4)), 255);
        assert_eq!(g.occupancy(Cell::new(0, 0)), 0);
    }

    #[test]
    fn set_and_fill() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 1.0, 4, 4);
        g.set(Cell::new(1, 2), 200);
        assert_eq!(g.occupancy(Cell::new(1, 2)), 200);
        g.set(Cell::new(-1, -1), 200); // ignored
        g.fill(7);
        assert!(g.data().iter().all(|&v| v == 7));
    }

    #[test]
    fn fill_obb_marks_interior_only() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 0.5, 40, 40);
        let obb = Obb::from_pose(Pose2::new(10.0, 10.0, 0.5), 4.0, 2.0);
        g.fill_obb(&obb, 255);
        assert!(g.occupancy_at(Vec2::new(10.0, 10.0)) == 255);
        assert_eq!(g.occupancy_at(Vec2::new(2.0, 2.0)), 0);
        // Every marked cell center is inside the (slightly inflated) box.
        let relaxed = obb.inflated(0.5);
        for row in 0..40 {
            for col in 0..40 {
                let c = Cell::new(col, row);
                if g.occupancy(c) == 255 {
                    assert!(relaxed.contains(g.cell_to_world(c)));
                }
            }
        }
    }

    #[test]
    fn fill_circle_and_ratio() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 0.1, 100, 100);
        g.fill_circle(&Circle::new(Vec2::new(5.0, 5.0), 2.0), 255);
        let ratio = g.occupancy_ratio(1);
        let expected = std::f64::consts::PI * 4.0 / 100.0;
        assert!((ratio - expected).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn bresenham_endpoints_and_connectivity() {
        let line = bresenham(Cell::new(0, 0), Cell::new(5, 3));
        assert_eq!(*line.first().unwrap(), Cell::new(0, 0));
        assert_eq!(*line.last().unwrap(), Cell::new(5, 3));
        for w in line.windows(2) {
            assert!((w[1].col - w[0].col).abs() <= 1 && (w[1].row - w[0].row).abs() <= 1);
        }
        // Degenerate single-cell line.
        assert_eq!(bresenham(Cell::new(2, 2), Cell::new(2, 2)).len(), 1);
    }

    #[test]
    fn draw_line_marks_cells() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 1.0, 10, 10);
        g.draw_line(Vec2::new(0.5, 0.5), Vec2::new(8.5, 0.5), 255);
        for col in 0..9 {
            assert_eq!(g.occupancy(Cell::new(col, 0)), 255);
        }
    }

    #[test]
    fn inflate_grows_obstacles() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 1.0, 11, 11);
        g.set(Cell::new(5, 5), 255);
        g.inflate(2.0, 128);
        assert!(g.is_occupied(Cell::new(3, 5), 128));
        assert!(g.is_occupied(Cell::new(5, 7), 128));
        assert!(!g.is_occupied(Cell::new(0, 0), 128));
    }

    #[test]
    fn distance_map_obeys_walls() {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 1.0, 11, 11);
        // vertical wall at col 5 with a gap at row 10
        for row in 0..10 {
            g.set(Cell::new(5, row), 255);
        }
        let goal = Cell::new(10, 0);
        let dm = g.distance_map(|c| c == goal, 128);
        assert_eq!(dm.distance(goal), 0.0);
        // direct (through-wall) distance would be 10; around the wall is longer
        let d = dm.distance(Cell::new(0, 0));
        assert!(d.is_finite());
        assert!(d > 14.0, "distance {d} must detour around the wall");
        // wall cells unreachable
        assert!(dm.distance(Cell::new(5, 0)).is_infinite());
    }

    #[test]
    fn covering_spans_bounds() {
        let b = Aabb::new(Vec2::ZERO, Vec2::new(3.3, 2.2));
        let g = OccupancyGrid::covering(&b, 0.5);
        assert!(g.bounds().contains(Vec2::new(3.2, 2.1)));
        assert_eq!(g.cols(), 7);
        assert_eq!(g.rows(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        let _ = OccupancyGrid::new(Vec2::ZERO, 0.0, 4, 4);
    }
}
