//! The per-frame safety projection shielding IL-mode actions.
//!
//! Hot-swapping weights mid-fleet means an engine can serve a policy
//! generation that has never seen the scene in front of it. The
//! projector guarantees that no IL action — stale, mid-update, or just
//! wrong — is ever applied infeasibly: each IL-mode action's
//! longitudinal command is projected onto the set allowed by one
//! half-space row per nearby obstacle, derived from the ego's clearance
//! along its heading. The rows are one-dimensional, so that set is an
//! exact interval and the projection is a clamp. Feasible actions pass
//! through **bitwise unchanged** (the projector is idempotent);
//! infeasible ones are clipped toward zero along the same gear — the
//! projection never flips a gear the policy chose — and a geometrically
//! hopeless frame degenerates to a full brake, which is always safe.

use icoil_geom::{Obb, Vec2};
use icoil_vehicle::{Action, VehicleParams, VehicleState};
use serde::{Deserialize, Serialize};

/// Safety-projection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyConfig {
    /// Master switch; disabled by default so existing deployments keep
    /// bit-identical trajectories until they opt in.
    pub enabled: bool,
    /// Clearance kept beyond the ego's bounding circle (meters).
    pub margin: f64,
    /// Look-ahead horizon the command is held for (seconds).
    pub horizon: f64,
    /// Longitudinal acceleration per unit command (m/s²) — how
    /// aggressively a unit throttle moves the ego within the horizon.
    pub accel_gain: f64,
    /// At most this many nearest obstacle rows constrain the command.
    pub max_rows: usize,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            enabled: false,
            margin: 0.35,
            horizon: 0.6,
            accel_gain: 2.5,
            max_rows: 4,
        }
    }
}

/// Outcome of projecting one action.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// The action to apply (the input, bitwise, when it was feasible).
    pub action: Action,
    /// Whether the action was modified.
    pub clipped: bool,
    /// `|projected − requested|` longitudinal command change.
    pub clip_magnitude: f64,
}

/// Projects IL-mode actions onto the feasible command set.
#[derive(Debug, Clone)]
pub struct SafetyProjector {
    config: SafetyConfig,
}

/// One active obstacle half-space `a · lon ≤ b`.
struct Row {
    a: f64,
    b: f64,
    clearance: f64,
}

impl SafetyProjector {
    /// A projector with the given parameters.
    pub fn new(config: SafetyConfig) -> Self {
        SafetyProjector { config }
    }

    /// The projector's parameters.
    pub fn config(&self) -> &SafetyConfig {
        &self.config
    }

    /// Projects `action` for the ego at `ego` among `boxes`.
    ///
    /// Pure function of its arguments: same state, same boxes, same
    /// action → same result, and projecting a projected action returns
    /// it bitwise unchanged.
    pub fn project(
        &self,
        ego: &VehicleState,
        params: &VehicleParams,
        boxes: &[Obb],
        action: Action,
    ) -> Projection {
        // Braking/coasting commands are always safe — and this early
        // return is what makes a projected full-brake idempotent.
        let lon0 = if action.brake >= action.throttle {
            0.0
        } else if action.reverse {
            -action.throttle
        } else {
            action.throttle
        };
        if lon0 == 0.0 {
            return Projection {
                action,
                clipped: false,
                clip_magnitude: 0.0,
            };
        }

        let heading = Vec2::new(ego.pose.theta.cos(), ego.pose.theta.sin());
        // Body-center circle: tight enough not to brake inside a bay,
        // conservative enough to cover both axles.
        let center = Vec2::new(ego.pose.x, ego.pose.y)
            + heading * (0.5 * params.length - params.rear_overhang);
        let ego_radius = 0.5 * params.length.hypot(params.width);

        let mut rows: Vec<Row> = Vec::new();
        let mut contact = false;
        for obb in boxes {
            let local = (center - obb.center).rotated(-obb.theta);
            let clamped = Vec2::new(
                local.x.clamp(-obb.half_length, obb.half_length),
                local.y.clamp(-obb.half_width, obb.half_width),
            );
            let closest = obb.center + clamped.rotated(obb.theta);
            let delta = closest - center;
            let dist = delta.norm();
            if dist < 1e-9 {
                // body center inside the box — no direction to reason
                // about; only a full stop is defensible
                contact = true;
                continue;
            }
            let n = delta / dist;
            let clearance = dist - ego_radius;
            let align = n.dot(heading);
            if align.abs() < 1e-6 {
                continue; // purely lateral — longitudinal command can't close it
            }
            // Displacement toward the obstacle over the horizon under
            // command `lon`: align · (v·h + ½·g·h²·lon) ≤ clearance − margin.
            let h = self.config.horizon;
            let a = align * 0.5 * self.config.accel_gain * h * h;
            let b = (clearance - self.config.margin) - align * ego.velocity * h;
            if b >= a.abs() {
                continue; // satisfied by every command in [-1, 1]
            }
            rows.push(Row { a, b, clearance });
        }
        rows.sort_by(|p, q| p.clearance.total_cmp(&q.clearance));
        rows.truncate(self.config.max_rows);

        // The rows are one-dimensional, so the feasible set is an exact
        // interval; shrinking it (instead of testing rows directly)
        // keeps the feasibility test and the clip consistent to the ulp.
        let mut lo = lon0.min(0.0);
        let mut hi = lon0.max(0.0);
        for row in &rows {
            if row.a > 0.0 {
                hi = hi.min(row.b / row.a);
            } else {
                lo = lo.max(row.b / row.a);
            }
        }

        if !contact && lon0 >= lo && lon0 <= hi {
            return Projection {
                action,
                clipped: false,
                clip_magnitude: 0.0,
            };
        }

        // The exact interval clamp, so projecting a projected action
        // returns it bitwise.
        let lon = if contact || lo > hi {
            0.0
        } else {
            lon0.clamp(lo, hi)
        };

        let projected = if lon == 0.0 {
            Action {
                throttle: 0.0,
                brake: 1.0,
                steer: action.steer,
                reverse: action.reverse,
            }
        } else {
            Action {
                throttle: lon.abs(),
                brake: 0.0,
                steer: action.steer,
                reverse: action.reverse,
            }
        };
        let clipped = projected != action;
        Projection {
            clip_magnitude: (lon - lon0).abs(),
            action: projected,
            clipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;

    fn enabled() -> SafetyConfig {
        SafetyConfig {
            enabled: true,
            ..SafetyConfig::default()
        }
    }

    fn ego(x: f64, velocity: f64) -> VehicleState {
        VehicleState {
            pose: Pose2 {
                x,
                y: 0.0,
                theta: 0.0,
            },
            velocity,
        }
    }

    fn wall_ahead(x: f64) -> Obb {
        Obb {
            center: Vec2::new(x, 0.0),
            half_length: 0.2,
            half_width: 5.0,
            theta: 0.0,
        }
    }

    #[test]
    fn open_space_is_a_bitwise_passthrough() {
        let p = SafetyProjector::new(enabled());
        let params = VehicleParams::default();
        let act = Action::forward(0.6, 0.25);
        let out = p.project(&ego(0.0, 1.0), &params, &[], act);
        assert!(!out.clipped);
        assert_eq!(out.action, act);
        assert_eq!(out.clip_magnitude, 0.0);
    }

    #[test]
    fn imminent_wall_clips_or_brakes() {
        let p = SafetyProjector::new(enabled());
        let params = VehicleParams::default();
        // wall just past the nose, closing fast
        let wall = wall_ahead(0.5 * params.length + 1.0);
        let act = Action::forward(1.0, 0.0);
        let out = p.project(&ego(0.0, 2.0), &params, &[wall], act);
        assert!(out.clipped);
        assert!(out.action.throttle < 1.0);
        assert!(out.clip_magnitude > 0.0);
        // and the hopeless version degrades to a full brake
        let near = wall_ahead(0.5 * params.length + 0.1);
        let out = p.project(&ego(0.0, 3.0), &params, &[near], act);
        assert_eq!(out.action.brake, 1.0);
        assert_eq!(out.action.throttle, 0.0);
        assert_eq!(out.action.steer, act.steer);
    }

    #[test]
    fn projection_is_idempotent_bitwise() {
        let p = SafetyProjector::new(enabled());
        let params = VehicleParams::default();
        let scenes: Vec<(VehicleState, Vec<Obb>)> = vec![
            (ego(0.0, 2.0), vec![wall_ahead(3.0)]),
            (ego(0.0, 0.5), vec![wall_ahead(1.5)]),
            (ego(0.0, -1.0), vec![wall_ahead(2.0)]),
            (ego(0.0, 1.0), vec![]),
        ];
        let actions = [
            Action::forward(1.0, 0.0),
            Action::forward(0.6, -0.5),
            Action {
                throttle: 0.6,
                brake: 0.0,
                steer: 0.3,
                reverse: true,
            },
            Action {
                throttle: 0.0,
                brake: 1.0,
                steer: 0.0,
                reverse: false,
            },
        ];
        for (state, boxes) in &scenes {
            for act in actions {
                let once = p.project(state, &params, boxes, act);
                let twice = p.project(state, &params, boxes, once.action);
                assert!(!twice.clipped, "{act:?} re-clipped to {:?}", twice.action);
                assert_eq!(once.action, twice.action);
            }
        }
    }

    #[test]
    fn gear_is_never_flipped() {
        let p = SafetyProjector::new(enabled());
        let params = VehicleParams::default();
        // obstacle behind while reversing toward it
        let wall = Obb {
            center: Vec2::new(-3.0, 0.0),
            half_length: 0.2,
            half_width: 5.0,
            theta: 0.0,
        };
        let act = Action {
            throttle: 1.0,
            brake: 0.0,
            steer: 0.0,
            reverse: true,
        };
        let out = p.project(&ego(0.0, -2.0), &params, &[wall], act);
        assert!(out.action.reverse, "projection must preserve the gear");
        assert!(out.action.throttle <= 1.0);
    }

    #[test]
    fn lateral_walls_do_not_brake_the_bay_approach() {
        let p = SafetyProjector::new(enabled());
        let params = VehicleParams::default();
        // parallel walls either side, as inside a parking bay
        let side = |y: f64| Obb {
            center: Vec2::new(0.0, y),
            half_length: 10.0,
            half_width: 0.2,
            theta: 0.0,
        };
        let act = Action::forward(0.6, 0.0);
        let out = p.project(&ego(0.0, 1.0), &params, &[side(2.5), side(-2.5)], act);
        assert!(!out.clipped, "side walls must not clip forward motion");
    }

    #[test]
    fn disabled_config_is_default() {
        assert!(!SafetyConfig::default().enabled);
    }
}
