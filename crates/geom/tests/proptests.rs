//! Property-based tests for the geometry crate.

use icoil_geom::{
    angle_diff, normalize_angle, Aabb, Cell, Obb, OccupancyGrid, Polyline, Pose2, Segment, Vec2,
};
use proptest::prelude::*;
use std::f64::consts::PI;

fn finite(range: f64) -> impl Strategy<Value = f64> {
    -range..range
}

fn arb_vec2(range: f64) -> impl Strategy<Value = Vec2> {
    (finite(range), finite(range)).prop_map(|(x, y)| Vec2::new(x, y))
}

fn arb_pose(range: f64) -> impl Strategy<Value = Pose2> {
    (finite(range), finite(range), finite(10.0)).prop_map(|(x, y, t)| Pose2::new(x, y, t))
}

fn arb_obb() -> impl Strategy<Value = Obb> {
    (arb_pose(20.0), 0.1f64..8.0, 0.1f64..8.0).prop_map(|(p, l, w)| Obb::from_pose(p, l, w))
}

proptest! {
    #[test]
    fn normalize_angle_in_range(a in finite(1e6)) {
        let n = normalize_angle(a);
        prop_assert!(n > -PI - 1e-9 && n <= PI + 1e-9);
        // idempotent
        prop_assert!((normalize_angle(n) - n).abs() < 1e-9);
        // same angle modulo 2π
        prop_assert!(((a - n) / (2.0 * PI)).rem_euclid(1.0) < 1e-6
            || ((a - n) / (2.0 * PI)).rem_euclid(1.0) > 1.0 - 1e-6);
    }

    #[test]
    fn angle_diff_bounded(a in finite(100.0), b in finite(100.0)) {
        let d = angle_diff(a, b);
        prop_assert!(d.abs() <= PI + 1e-9);
    }

    #[test]
    fn vec_rotation_preserves_norm(v in arb_vec2(1e3), a in finite(20.0)) {
        prop_assert!((v.rotated(a).norm() - v.norm()).abs() < 1e-6 * (1.0 + v.norm()));
    }

    #[test]
    fn pose_roundtrip(p in arb_pose(50.0), q in arb_vec2(50.0)) {
        let w = p.to_world(q);
        prop_assert!(p.to_local(w).distance(q) < 1e-9);
    }

    #[test]
    fn pose_inverse_composes_to_identity(p in arb_pose(50.0)) {
        let id = p.compose(p.inverse());
        prop_assert!(id.position().norm() < 1e-9);
        prop_assert!(id.theta.abs() < 1e-9);
    }

    #[test]
    fn obb_overlap_symmetric(a in arb_obb(), b in arb_obb()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn obb_distance_symmetric_and_consistent(a in arb_obb(), b in arb_obb()) {
        let dab = a.distance_to_obb(&b);
        let dba = b.distance_to_obb(&a);
        prop_assert!((dab - dba).abs() < 1e-6);
        // distance zero iff intersecting
        if a.intersects(&b) {
            prop_assert_eq!(dab, 0.0);
        } else {
            prop_assert!(dab > 0.0);
        }
    }

    #[test]
    fn obb_contains_center_and_corners(o in arb_obb()) {
        prop_assert!(o.contains(o.center));
        for c in o.corners() {
            prop_assert!(o.contains(c));
            prop_assert!(o.aabb().contains(c));
        }
    }

    #[test]
    fn obb_center_distance_lower_bound(a in arb_obb(), b in arb_obb()) {
        // boundary distance never exceeds center distance
        prop_assert!(a.distance_to_obb(&b) <= a.center.distance(b.center) + 1e-9);
    }

    #[test]
    fn segment_distance_triangle(s in (arb_vec2(50.0), arb_vec2(50.0)), p in arb_vec2(50.0)) {
        let seg = Segment::new(s.0, s.1);
        let d = seg.distance_to_point(p);
        prop_assert!(d <= seg.a.distance(p) + 1e-9);
        prop_assert!(d <= seg.b.distance(p) + 1e-9);
    }

    #[test]
    fn aabb_union_contains_both(
        a in (arb_vec2(50.0), arb_vec2(50.0)),
        b in (arb_vec2(50.0), arb_vec2(50.0)),
    ) {
        let x = Aabb::new(a.0, a.1);
        let y = Aabb::new(b.0, b.1);
        let u = x.union(&y);
        for c in x.corners().into_iter().chain(y.corners()) {
            prop_assert!(u.contains(c));
        }
    }

    #[test]
    fn polyline_point_at_on_path(
        pts in prop::collection::vec(arb_vec2(30.0), 2..10),
        frac in 0.0f64..1.0,
    ) {
        let p = Polyline::new(pts);
        if p.len() >= 2 {
            let s = frac * p.length();
            let q = p.point_at(s);
            // a point at arc length s is at distance ~0 from the path
            prop_assert!(p.distance_to_point(q) < 1e-6);
            // projection of that point recovers roughly s (up to self-crossings)
            let s2 = p.project(q);
            prop_assert!(p.point_at(s2).distance(q) < 1e-6);
        }
    }

    #[test]
    fn grid_world_cell_roundtrip(
        ox in -20.0f64..20.0,
        oy in -20.0f64..20.0,
        res in 0.1f64..2.0,
        px in -15.0f64..35.0,
        py in -15.0f64..35.0,
    ) {
        let g = OccupancyGrid::new(Vec2::new(ox, oy), res, 40, 40);
        let p = Vec2::new(ox + px.abs() % (40.0 * res), oy + py.abs() % (40.0 * res));
        let c = g.world_to_cell(p);
        if g.in_bounds(c) {
            let back = g.cell_to_world(c);
            // the cell center is within half a cell diagonal of the point
            prop_assert!(back.distance(p) <= res * std::f64::consts::SQRT_2 / 2.0 + 1e-9);
        }
    }

    #[test]
    fn grid_distance_map_triangle_inequality(
        seed_col in 1i64..9,
        seed_row in 1i64..9,
        obstacle_col in 1i64..9,
    ) {
        let mut g = OccupancyGrid::new(Vec2::ZERO, 1.0, 10, 10);
        // one obstacle cell somewhere
        g.set(Cell::new(obstacle_col, 5), 255);
        let seed = Cell::new(seed_col, seed_row);
        let dm = g.distance_map(|c| c == seed, 128);
        if seed != Cell::new(obstacle_col, 5) {
            prop_assert_eq!(dm.distance(seed), 0.0);
        }
        // every reachable cell's distance is at least the euclidean one
        for col in 0..10 {
            for row in 0..10 {
                let c = Cell::new(col, row);
                let d = dm.distance(c);
                if d.is_finite() {
                    let euclid = (((col - seed_col).pow(2) + (row - seed_row).pow(2)) as f64).sqrt();
                    prop_assert!(d + 1e-9 >= euclid, "cell {:?}: {} < {}", c, d, euclid);
                }
            }
        }
    }

    #[test]
    fn obb_point_distance_consistent_with_contains(o in arb_obb(), p in arb_vec2(30.0)) {
        let d = o.distance_to_point(p);
        if o.contains(p) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
            // distance is a lower bound on the distance to every corner
            for c in o.corners() {
                prop_assert!(d <= p.distance(c) + 1e-9);
            }
        }
    }

    #[test]
    fn polyline_resample_length_preserved(
        pts in prop::collection::vec(arb_vec2(30.0), 2..8),
        step in 0.05f64..2.0,
    ) {
        let p = Polyline::new(pts);
        if p.len() >= 2 && p.length() > 1e-6 {
            let r = p.resample(step);
            prop_assert!((r.length() - p.length()).abs() < 1e-6);
        }
    }
}
