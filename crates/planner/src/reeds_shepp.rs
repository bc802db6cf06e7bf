//! Reeds-Shepp curves: shortest curvature-bounded paths with forward and
//! reverse motion.
//!
//! Implements the classic CSC and CCC word families (LSL, LSR, LRL) under
//! the time-flip and reflection symmetries, which covers the maneuvers a
//! parking planner needs (including direction changes). For any pair of
//! poses at least one candidate exists, and the shortest candidate is
//! returned; candidate endpoints are exact (verified by integration in
//! the tests).

use icoil_geom::Pose2;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// The three primitive motions of a Reeds-Shepp word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Arc turning left at minimum radius.
    Left,
    /// Straight line.
    Straight,
    /// Arc turning right at minimum radius.
    Right,
}

/// One segment of a Reeds-Shepp path.
///
/// `length` is *signed* arc length in meters: negative drives in reverse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RsSegment {
    /// Steering primitive.
    pub kind: SegmentKind,
    /// Signed arc length (meters); negative means reverse gear.
    pub length: f64,
}

/// A Reeds-Shepp path: a short word of arcs and straights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RsPath {
    /// The segments in drive order.
    pub segments: Vec<RsSegment>,
    /// Minimum turning radius used (meters).
    pub radius: f64,
}

impl RsPath {
    /// Total (unsigned) path length in meters.
    pub fn length(&self) -> f64 {
        self.segments.iter().map(|s| s.length.abs()).sum()
    }

    /// Number of gear changes (sign flips between consecutive segments).
    pub fn direction_switches(&self) -> usize {
        self.segments
            .windows(2)
            .filter(|w| {
                w[0].length.signum() != w[1].length.signum()
                    && w[0].length != 0.0
                    && w[1].length != 0.0
            })
            .count()
    }

    /// Samples poses along the path every `step` meters starting from
    /// `start`, including the exact segment endpoints. Returns
    /// `(pose, direction)` pairs where `direction` is ±1.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive step.
    pub fn sample(&self, start: Pose2, step: f64) -> Vec<(Pose2, f64)> {
        assert!(step > 0.0, "sample step must be positive");
        let mut out = vec![(
            start,
            self.segments.first().map_or(1.0, |s| s.length.signum()),
        )];
        let mut pose = start;
        for seg in &self.segments {
            if seg.length.abs() < 1e-12 {
                continue;
            }
            let dir = seg.length.signum();
            let total = seg.length.abs();
            let n = (total / step).ceil().max(1.0) as usize;
            for k in 1..=n {
                let s = total * k as f64 / n as f64;
                out.push((advance(pose, seg.kind, dir * s, self.radius), dir));
            }
            pose = advance(pose, seg.kind, seg.length, self.radius);
        }
        out
    }

    /// Exact end pose of the path when driven from `start`.
    pub fn end_pose(&self, start: Pose2) -> Pose2 {
        let mut pose = start;
        for seg in &self.segments {
            pose = advance(pose, seg.kind, seg.length, self.radius);
        }
        pose
    }
}

/// Pose after driving `signed_len` meters along a primitive of the given
/// turning radius.
fn advance(pose: Pose2, kind: SegmentKind, signed_len: f64, radius: f64) -> Pose2 {
    if signed_len == 0.0 {
        return pose;
    }
    match kind {
        SegmentKind::Straight => Pose2::new(
            pose.x + signed_len * pose.theta.cos(),
            pose.y + signed_len * pose.theta.sin(),
            pose.theta,
        ),
        SegmentKind::Left | SegmentKind::Right => {
            let turn = if kind == SegmentKind::Left { 1.0 } else { -1.0 };
            let dtheta = turn * signed_len / radius;
            let theta_new = pose.theta + dtheta;
            // rotation about the circle center
            let cx = pose.x - turn * radius * pose.theta.sin();
            let cy = pose.y + turn * radius * pose.theta.cos();
            Pose2::new(
                cx + turn * radius * theta_new.sin(),
                cy - turn * radius * theta_new.cos(),
                theta_new,
            )
        }
    }
}

/// Shortest Reeds-Shepp path (over the implemented families) from `start`
/// to `goal` with minimum turning radius `radius`.
///
/// # Panics
///
/// Panics for a non-positive radius.
pub fn shortest_path(start: Pose2, goal: Pose2, radius: f64) -> RsPath {
    assert!(radius > 0.0, "turning radius must be positive");
    // normalize into the canonical frame, scaled by the radius
    let local = start.inverse().compose(goal);
    let x = local.x / radius;
    let y = local.y / radius;
    let phi = local.theta;

    let mut best: Option<(f64, Vec<RsSegment>)> = None;
    let consider = |cand: Vec<RsSegment>, best: &mut Option<(f64, Vec<RsSegment>)>| {
        let len: f64 = cand.iter().map(|s| s.length.abs()).sum();
        if len < best.as_ref().map_or(f64::INFINITY, |(l, _)| *l) {
            *best = Some((len, cand));
        }
    };
    for cand in candidates(x, y, phi) {
        consider(cand, &mut best);
    }
    // Time reversal: a word for the swapped problem (goal → start),
    // driven backwards (reversed order, negated lengths), solves the
    // original problem — this doubles the family coverage and often
    // finds much shorter maneuvers (e.g. for lateral shifts).
    let swapped = goal.inverse().compose(start);
    for cand in candidates(swapped.x / radius, swapped.y / radius, swapped.theta) {
        let reversed: Vec<RsSegment> = cand
            .into_iter()
            .rev()
            .map(|s| RsSegment {
                kind: s.kind,
                length: -s.length,
            })
            .collect();
        consider(reversed, &mut best);
    }
    let (_, mut segments) = best.expect("at least one RS family always succeeds");
    // scale unit-radius lengths back to meters (arcs and straights alike)
    for s in &mut segments {
        s.length *= radius;
    }
    RsPath { segments, radius }
}

/// All candidate words for the normalized problem `(x, y, phi)`.
///
/// Each closed-form word is expanded with every `±2π` re-branching of its
/// arc segments (an arc of `t ∈ [0, 2π)` can equivalently be driven as
/// `t − 2π`, i.e. the short way round in the other gear), and candidates
/// are kept only when they *verifiably* reach the goal — this recovers
/// the short cusped maneuvers (e.g. parallel-park shifts) that the three
/// base formulas alone miss.
fn candidates(x: f64, y: f64, phi: f64) -> Vec<Vec<RsSegment>> {
    let mut out = Vec::new();
    // base transforms: identity, timeflip, reflect, both
    let transforms: [(f64, f64, f64, bool, bool); 4] = [
        (x, y, phi, false, false),
        (-x, y, -phi, true, false),
        (x, -y, -phi, false, true),
        (-x, -y, phi, true, true),
    ];
    for (tx, ty, tphi, timeflip, reflect) in transforms {
        for word in [lsl(tx, ty, tphi), lsr(tx, ty, tphi), lrl(tx, ty, tphi)]
            .into_iter()
            .flatten()
        {
            let base = apply_symmetry(word, timeflip, reflect);
            for variant in rebranch_arcs(&base) {
                if reaches(&variant, x, y, phi) {
                    out.push(variant);
                }
            }
        }
    }
    out
}

/// Enumerates every combination of driving each arc the long or the
/// short way round (`l` vs `l ∓ 2π`).
fn rebranch_arcs(word: &[RsSegment]) -> Vec<Vec<RsSegment>> {
    let mut variants: Vec<Vec<RsSegment>> = vec![Vec::new()];
    for seg in word {
        let options: Vec<f64> = match seg.kind {
            SegmentKind::Straight => vec![seg.length],
            _ => {
                let alt = if seg.length >= 0.0 {
                    seg.length - 2.0 * PI
                } else {
                    seg.length + 2.0 * PI
                };
                vec![seg.length, alt]
            }
        };
        let mut next = Vec::with_capacity(variants.len() * options.len());
        for v in &variants {
            for &l in &options {
                let mut w = v.clone();
                w.push(RsSegment {
                    kind: seg.kind,
                    length: l,
                });
                next.push(w);
            }
        }
        variants = next;
    }
    variants
}

/// Integrates a normalized (unit-radius) word and checks it ends at
/// `(x, y, phi)`.
fn reaches(word: &[RsSegment], x: f64, y: f64, phi: f64) -> bool {
    let mut pose = Pose2::new(0.0, 0.0, 0.0);
    for seg in word {
        pose = advance(pose, seg.kind, seg.length, 1.0);
    }
    (pose.x - x).abs() < 1e-6
        && (pose.y - y).abs() < 1e-6
        && icoil_geom::angle_diff(pose.theta, phi).abs() < 1e-6
}

fn apply_symmetry(mut word: Vec<RsSegment>, timeflip: bool, reflect: bool) -> Vec<RsSegment> {
    for s in &mut word {
        if timeflip {
            s.length = -s.length;
        }
        if reflect {
            s.kind = match s.kind {
                SegmentKind::Left => SegmentKind::Right,
                SegmentKind::Right => SegmentKind::Left,
                SegmentKind::Straight => SegmentKind::Straight,
            };
        }
    }
    word
}

fn polar(x: f64, y: f64) -> (f64, f64) {
    (x.hypot(y), y.atan2(x))
}

fn mod2pi(a: f64) -> f64 {
    let mut v = a % (2.0 * PI);
    if v < 0.0 {
        v += 2.0 * PI;
    }
    v
}

/// L(t) S(u) L(v)
fn lsl(x: f64, y: f64, phi: f64) -> Option<Vec<RsSegment>> {
    let (u, t) = polar(x - phi.sin(), y - 1.0 + phi.cos());
    let t = mod2pi(t);
    let v = mod2pi(phi - t);
    Some(vec![
        RsSegment {
            kind: SegmentKind::Left,
            length: t,
        },
        RsSegment {
            kind: SegmentKind::Straight,
            length: u,
        },
        RsSegment {
            kind: SegmentKind::Left,
            length: v,
        },
    ])
}

/// L(t) S(u) R(v)
fn lsr(x: f64, y: f64, phi: f64) -> Option<Vec<RsSegment>> {
    let (u1, t1) = polar(x + phi.sin(), y - 1.0 - phi.cos());
    let u1_sq = u1 * u1;
    if u1_sq < 4.0 {
        return None;
    }
    let u = (u1_sq - 4.0).sqrt();
    let theta = 2.0f64.atan2(u);
    let t = mod2pi(t1 + theta);
    let v = mod2pi(t - phi);
    Some(vec![
        RsSegment {
            kind: SegmentKind::Left,
            length: t,
        },
        RsSegment {
            kind: SegmentKind::Straight,
            length: u,
        },
        RsSegment {
            kind: SegmentKind::Right,
            length: v,
        },
    ])
}

/// L(t) R(u) L(v) — the CCC family with a reversed middle arc.
fn lrl(x: f64, y: f64, phi: f64) -> Option<Vec<RsSegment>> {
    let (u1, t1) = polar(x - phi.sin(), y - 1.0 + phi.cos());
    if u1 > 4.0 {
        return None;
    }
    let a = (u1 / 4.0).asin();
    let u = -2.0 * a; // middle arc driven in reverse
    let t = mod2pi(t1 + 0.5 * u + PI);
    let v = mod2pi(phi - t + u);
    Some(vec![
        RsSegment {
            kind: SegmentKind::Left,
            length: t,
        },
        RsSegment {
            kind: SegmentKind::Right,
            length: u,
        },
        RsSegment {
            kind: SegmentKind::Left,
            length: v,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Vec2;

    fn check_reaches(start: Pose2, goal: Pose2, radius: f64) -> RsPath {
        let path = shortest_path(start, goal, radius);
        let end = path.end_pose(start);
        assert!(
            end.position().distance(goal.position()) < 1e-6,
            "position error {} for goal {goal}",
            end.position().distance(goal.position())
        );
        assert!(
            end.heading_error(&goal) < 1e-6,
            "heading error {}",
            end.heading_error(&goal)
        );
        path
    }

    #[test]
    fn straight_ahead_is_a_straight_line() {
        let start = Pose2::new(0.0, 0.0, 0.0);
        let goal = Pose2::new(10.0, 0.0, 0.0);
        let path = check_reaches(start, goal, 4.0);
        assert!((path.length() - 10.0).abs() < 1e-6);
        assert_eq!(path.direction_switches(), 0);
    }

    #[test]
    fn straight_behind_uses_reverse() {
        let start = Pose2::new(0.0, 0.0, 0.0);
        let goal = Pose2::new(-6.0, 0.0, 0.0);
        let path = check_reaches(start, goal, 4.0);
        assert!((path.length() - 6.0).abs() < 1e-6);
        // all motion is in reverse
        assert!(path.segments.iter().all(|s| s.length <= 1e-9));
    }

    #[test]
    fn quarter_turn() {
        let r = 4.0;
        let start = Pose2::new(0.0, 0.0, 0.0);
        // a pure left quarter arc ends at (r sin90, r (1-cos90)) = (4, 4)
        let goal = Pose2::new(4.0, 4.0, std::f64::consts::FRAC_PI_2);
        let path = check_reaches(start, goal, r);
        let arc = r * std::f64::consts::FRAC_PI_2;
        assert!((path.length() - arc).abs() < 1e-6, "len {}", path.length());
    }

    #[test]
    fn length_lower_bounded_by_euclidean() {
        let starts = [
            Pose2::new(0.0, 0.0, 0.0),
            Pose2::new(1.0, 2.0, 1.0),
            Pose2::new(-3.0, 4.0, -2.0),
        ];
        let goals = [
            Pose2::new(5.0, 5.0, 1.5),
            Pose2::new(-2.0, 3.0, 0.0),
            Pose2::new(0.5, -0.5, 3.0),
        ];
        for s in starts {
            for g in goals {
                let p = check_reaches(s, g, 3.0);
                assert!(p.length() >= s.distance(&g) - 1e-6);
            }
        }
    }

    #[test]
    fn parallel_park_shift_requires_maneuvering() {
        // pure lateral displacement: the classic parallel-park problem
        let start = Pose2::new(0.0, 0.0, 0.0);
        let goal = Pose2::new(0.0, 2.0, 0.0);
        let path = check_reaches(start, goal, 4.0);
        assert!(path.length() > 2.0);
        // it must involve arcs, not straights only
        assert!(path
            .segments
            .iter()
            .any(|s| s.kind != SegmentKind::Straight && s.length.abs() > 1e-6));
    }

    #[test]
    fn identity_path_is_empty_length() {
        let p = Pose2::new(2.0, 3.0, 1.0);
        let path = shortest_path(p, p, 4.0);
        assert!(path.length() < 1e-9);
    }

    #[test]
    fn sampled_poses_end_at_goal_and_step_bounded() {
        let start = Pose2::new(0.0, 0.0, 0.5);
        let goal = Pose2::new(6.0, -3.0, -1.0);
        let path = check_reaches(start, goal, 3.5);
        let samples = path.sample(start, 0.25);
        let (last, _) = samples.last().unwrap();
        assert!(last.position().distance(goal.position()) < 1e-6);
        for w in samples.windows(2) {
            let d = w[0].0.position().distance(w[1].0.position());
            assert!(d <= 0.26, "step {d}");
        }
    }

    #[test]
    fn grid_of_goals_all_reachable() {
        // integration check over a grid of goals and headings
        let start = Pose2::new(0.0, 0.0, 0.0);
        for gx in [-8.0, -2.0, 0.0, 3.0, 9.0] {
            for gy in [-6.0, 0.0, 4.0] {
                for gth in [-2.5, -1.0, 0.0, 1.3, 3.0] {
                    if Vec2::new(gx, gy).norm() < 1e-9 && gth == 0.0 {
                        continue;
                    }
                    check_reaches(start, Pose2::new(gx, gy, gth), 4.3);
                }
            }
        }
    }

    #[test]
    fn direction_switch_count() {
        let segs = vec![
            RsSegment {
                kind: SegmentKind::Left,
                length: 1.0,
            },
            RsSegment {
                kind: SegmentKind::Right,
                length: -1.0,
            },
            RsSegment {
                kind: SegmentKind::Left,
                length: 1.0,
            },
        ];
        let p = RsPath {
            segments: segs,
            radius: 1.0,
        };
        assert_eq!(p.direction_switches(), 2);
    }

    #[test]
    #[should_panic(expected = "turning radius")]
    fn zero_radius_panics() {
        let _ = shortest_path(Pose2::default(), Pose2::new(1.0, 0.0, 0.0), 0.0);
    }
}
