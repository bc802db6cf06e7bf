//! Ackermann (kinematic-bicycle) state evolution: `s_{i+1} = u(s_i, a_i)`.
//!
//! Two entry points are provided:
//!
//! * [`step`] integrates a full [`Action`] (throttle/brake/steer/reverse),
//!   mapping normalized commands to physical accelerations — this is what
//!   the simulator in `icoil-world` runs every frame;
//! * [`step_continuous`] integrates raw `(acceleration, steering angle)`
//!   inputs — this is the smooth model the CO module linearizes in its
//!   sequential-convexification loop (§IV-B).

use crate::{Action, VehicleParams, VehicleState};
use icoil_geom::Pose2;

/// Integrates one simulation step under a normalized [`Action`].
///
/// The longitudinal model applies drive force in the gear direction,
/// braking opposed to the current motion (a brake never pushes the car
/// through zero speed), and linear rolling drag. The lateral model is the
/// kinematic bicycle: `θ̇ = v·tan(δ)/L` about the rear axle.
///
/// The returned speed is clamped to
/// `[-max_reverse_speed, max_speed]`.
pub fn step(
    state: &VehicleState,
    action: &Action,
    params: &VehicleParams,
    dt: f64,
) -> VehicleState {
    let a = action.clamped();
    let dir = if a.reverse { -1.0 } else { 1.0 };
    let v = state.velocity;

    let drive = a.throttle * params.max_accel * dir;
    let drag = -params.drag * v;
    let mut v_next = v + (drive + drag) * dt;

    // Brakes oppose motion and saturate at zero speed.
    if a.brake > 0.0 && v.abs() > 0.0 {
        let dv = a.brake * params.max_brake * dt;
        if dv >= v_next.abs() && v_next.signum() == v.signum() {
            v_next = 0.0;
        } else {
            v_next -= dv * v.signum();
            // Crossing zero by braking is not allowed.
            if v_next.signum() != v.signum() && v_next != 0.0 {
                v_next = 0.0;
            }
        }
    }
    v_next = v_next.clamp(-params.max_reverse_speed, params.max_speed);

    let steer_angle = a.steer * params.max_steer;
    integrate_pose(state, v_next, steer_angle, params, dt, v_next)
}

/// Integrates one step of the smooth control model used by CO:
/// longitudinal acceleration `accel` (m/s², signed) and front-wheel
/// steering angle `steer_angle` (radians, clamped to `±max_steer`).
pub fn step_continuous(
    state: &VehicleState,
    accel: f64,
    steer_angle: f64,
    params: &VehicleParams,
    dt: f64,
) -> VehicleState {
    let v_next = (state.velocity + accel * dt).clamp(-params.max_reverse_speed, params.max_speed);
    let steer = steer_angle.clamp(-params.max_steer, params.max_steer);
    integrate_pose(state, v_next, steer, params, dt, v_next)
}

/// Midpoint (2nd-order) integration of the bicycle pose update.
fn integrate_pose(
    state: &VehicleState,
    v: f64,
    steer_angle: f64,
    params: &VehicleParams,
    dt: f64,
    v_next: f64,
) -> VehicleState {
    let omega = v * steer_angle.tan() / params.wheelbase;
    let theta_mid = state.pose.theta + 0.5 * omega * dt;
    let pose = Pose2::new(
        state.pose.x + v * theta_mid.cos() * dt,
        state.pose.y + v * theta_mid.sin() * dt,
        state.pose.theta + omega * dt,
    );
    VehicleState {
        pose,
        velocity: v_next,
    }
}

/// Rolls out a sequence of actions from an initial state, returning every
/// intermediate state (length `actions.len() + 1`, starting with `state`).
pub fn rollout(
    state: &VehicleState,
    actions: &[Action],
    params: &VehicleParams,
    dt: f64,
) -> Vec<VehicleState> {
    let mut out = Vec::with_capacity(actions.len() + 1);
    out.push(*state);
    let mut s = *state;
    for a in actions {
        s = step(&s, a, params, dt);
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Vec2;

    const DT: f64 = 0.05;

    fn params() -> VehicleParams {
        VehicleParams::default()
    }

    #[test]
    fn straight_forward_moves_along_heading() {
        let p = params();
        let mut s = VehicleState::at_rest(Pose2::new(0.0, 0.0, 0.3));
        for _ in 0..200 {
            s = step(&s, &Action::forward(1.0, 0.0), &p, DT);
        }
        assert!(s.velocity > 0.0);
        let dir = s.pose.position().normalized();
        assert!(dir.distance(Vec2::from_angle(0.3)) < 1e-6);
        assert!((s.pose.theta - 0.3).abs() < 1e-9);
    }

    #[test]
    fn speed_saturates_at_limit() {
        let p = params();
        let mut s = VehicleState::at_rest(Pose2::default());
        for _ in 0..2000 {
            s = step(&s, &Action::forward(1.0, 0.0), &p, DT);
        }
        assert!(s.velocity <= p.max_speed + 1e-9);
        assert!(s.velocity > 0.9 * p.max_speed * (1.0 - p.drag));
    }

    #[test]
    fn reverse_moves_backwards() {
        let p = params();
        let mut s = VehicleState::at_rest(Pose2::default());
        for _ in 0..100 {
            s = step(&s, &Action::backward(1.0, 0.0), &p, DT);
        }
        assert!(s.velocity < 0.0);
        assert!(s.pose.x < -0.5);
        assert!(s.velocity >= -p.max_reverse_speed - 1e-9);
    }

    #[test]
    fn brake_stops_without_reversing() {
        let p = params();
        let mut s = VehicleState::new(Pose2::default(), 2.0);
        for _ in 0..400 {
            s = step(&s, &Action::full_brake(), &p, DT);
        }
        assert_eq!(s.velocity, 0.0);
        assert!(s.pose.x > 0.0); // stopping distance is positive
    }

    #[test]
    fn constant_steer_traces_circle() {
        let p = params();
        let steer = 1.0; // full lock
        let radius = p.min_turning_radius();
        let mut s = VehicleState::new(Pose2::default(), 1.0);
        // drive at fixed speed with held steering; use continuous model
        let mut max_err: f64 = 0.0;
        // circle center is at (0, radius) for a left turn from the origin
        let center = Vec2::new(0.0, radius);
        for _ in 0..2000 {
            s = step_continuous(&s, 0.0, steer * p.max_steer, &p, DT);
            let r = s.pose.position().distance(center);
            max_err = max_err.max((r - radius).abs());
        }
        assert!(max_err < 0.02 * radius, "radius error {max_err}");
    }

    #[test]
    fn left_steer_turns_left_forward_and_right_in_reverse() {
        let p = params();
        let mut fwd = VehicleState::new(Pose2::default(), 1.0);
        fwd = step_continuous(&fwd, 0.0, 0.3, &p, 1.0);
        assert!(fwd.pose.theta > 0.0);
        let mut rev = VehicleState::new(Pose2::default(), -1.0);
        rev = step_continuous(&rev, 0.0, 0.3, &p, 1.0);
        assert!(rev.pose.theta < 0.0); // same wheel angle, opposite yaw rate
    }

    #[test]
    fn zero_speed_zero_action_is_fixed_point() {
        let p = params();
        let s0 = VehicleState::at_rest(Pose2::new(1.0, 2.0, 0.5));
        let s1 = step(&s0, &Action::coast(), &p, DT);
        assert_eq!(s0, s1);
    }

    #[test]
    fn continuous_clamps_steer() {
        let p = params();
        let s = VehicleState::new(Pose2::default(), 1.0);
        let a = step_continuous(&s, 0.0, 10.0, &p, DT);
        let b = step_continuous(&s, 0.0, p.max_steer, &p, DT);
        assert!((a.pose.theta - b.pose.theta).abs() < 1e-12);
    }

    #[test]
    fn rollout_length_and_start() {
        let p = params();
        let s = VehicleState::at_rest(Pose2::default());
        let actions = vec![Action::forward(1.0, 0.0); 10];
        let traj = rollout(&s, &actions, &p, DT);
        assert_eq!(traj.len(), 11);
        assert_eq!(traj[0], s);
        assert!(traj[10].pose.x > traj[0].pose.x);
    }

    #[test]
    fn dt_halving_converges() {
        // midpoint integration: quartering dt should shrink the error
        let p = params();
        let drive = |dt: f64, n: usize| {
            let mut s = VehicleState::new(Pose2::default(), 1.0);
            for _ in 0..n {
                s = step_continuous(&s, 0.0, 0.4, &p, dt);
            }
            s.pose
        };
        let coarse = drive(0.1, 100);
        let fine = drive(0.01, 1000);
        let finest = drive(0.001, 10000);
        let e1 = coarse.position().distance(finest.position());
        let e2 = fine.position().distance(finest.position());
        assert!(e2 < e1, "finer steps should be more accurate");
        assert!(e2 < 1e-3);
    }
}
