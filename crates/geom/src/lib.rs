//! 2-D geometry primitives for the iCOIL autonomous-parking stack.
//!
//! This crate provides the geometric vocabulary shared by every other crate
//! in the workspace: planar vectors and poses, segments, axis-aligned and
//! oriented bounding boxes, convex polygons, circles, occupancy grids and
//! polyline paths.
//!
//! Everything is `f64`-based, allocation-light and deterministic; there is
//! no global state and no randomness, so geometry results are reproducible
//! across runs — a requirement for the seeded experiment harness in
//! `icoil-world` / `icoil-core`.
//!
//! # Example
//!
//! ```
//! use icoil_geom::{Pose2, Obb, Vec2};
//!
//! // Two cars, one rotated; check whether their footprints collide.
//! let a = Obb::from_pose(Pose2::new(0.0, 0.0, 0.0), 4.0, 2.0);
//! let b = Obb::from_pose(Pose2::new(3.0, 0.5, 0.6), 4.0, 2.0);
//! assert!(a.intersects(&b));
//! assert!(a.contains(Vec2::new(1.9, 0.9)));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aabb;
pub mod angle;
pub mod circle;
pub mod grid;
pub mod obb;
pub mod path;
pub mod polygon;
pub mod pose;
pub mod segment;
pub mod vec2;

pub use aabb::Aabb;
pub use angle::{angle_diff, normalize_angle};
pub use circle::Circle;
pub use grid::{Cell, OccupancyGrid};
pub use obb::{Obb, ObbPointTest};
pub use path::Polyline;
pub use polygon::ConvexPolygon;
pub use pose::Pose2;
pub use segment::Segment;
pub use vec2::Vec2;

/// Numerical tolerance used by geometric predicates in this crate.
pub const EPS: f64 = 1e-9;
