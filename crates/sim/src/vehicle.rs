//! Vehicle dynamics: kinematic bicycle model with first-order actuator
//! smoothing.
//!
//! Both driving agents in the paper command *variations* of the actuation
//! rather than raw values; the realized actuation follows the paper's Eq. (1):
//!
//! ```text
//! a_t^steer  = (1 - alpha) * nu_t    + alpha * a_{t-1}^steer,   nu    in [-eps, eps]
//! a_t^thrust = (1 - eta)   * gamma_t + eta   * a_{t-1}^thrust,  gamma in [-eps, eps]
//! ```
//!
//! where `eps` is the mechanical limit (1.0 in normalized units). The
//! action-space attack of the paper perturbs `nu_t` *before* this smoothing
//! is applied — see [`attack-core`](../index.html).

use crate::geometry::{normalize_angle, Obb, Pose, Vec2};
use serde::{Deserialize, Serialize};

/// Normalized actuation pair in `[-1, 1]^2`.
///
/// `steer`: negative turns left in CARLA's convention — we adopt the
/// mathematical convention instead (positive steer = CCW = left) and keep the
/// sign handling internal to the controllers, so agents never need to care.
/// `thrust`: positive throttles, negative brakes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Actuation {
    /// Normalized steering in `[-1, 1]`; multiplied by
    /// [`VehicleParams::max_steer`] to obtain the road-wheel angle.
    pub steer: f64,
    /// Normalized thrust in `[-1, 1]`; positive throttle, negative brake.
    pub thrust: f64,
}

impl Actuation {
    /// Creates an actuation, clamping both channels to `[-1, 1]`.
    pub fn new(steer: f64, thrust: f64) -> Self {
        Actuation {
            steer: steer.clamp(-1.0, 1.0),
            thrust: thrust.clamp(-1.0, 1.0),
        }
    }
}

/// Physical and actuator parameters of a vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Distance from the center of gravity to the front axle, meters.
    pub lf: f64,
    /// Distance from the center of gravity to the rear axle, meters.
    pub lr: f64,
    /// Collision footprint length, meters.
    pub length: f64,
    /// Collision footprint width, meters.
    pub width: f64,
    /// Maximum road-wheel steering angle, radians (the paper's 70 degrees).
    pub max_steer: f64,
    /// Maximum forward acceleration at full throttle, m/s^2.
    pub max_accel: f64,
    /// Maximum deceleration at full brake, m/s^2 (positive number).
    pub max_brake: f64,
    /// Speed-proportional drag coefficient, 1/s.
    pub drag: f64,
    /// Top speed, m/s.
    pub max_speed: f64,
    /// Friction-limited lateral acceleration, m/s^2. The kinematic bicycle
    /// would otherwise realize arbitrarily large lateral accelerations at
    /// speed; real tires (and CARLA's dynamic model) saturate near 8 m/s^2.
    pub max_lat_accel: f64,
    /// Steering retain rate `alpha` of Eq. (1).
    pub alpha: f64,
    /// Thrust retain rate `eta` of Eq. (1).
    pub eta: f64,
    /// Mechanical limit `eps` on the per-step variation commands.
    pub eps_mech: f64,
}

impl Default for VehicleParams {
    /// A mid-size sedan comparable to CARLA's default ego vehicle.
    fn default() -> Self {
        VehicleParams {
            lf: 1.4,
            lr: 1.4,
            length: 4.5,
            width: 1.9,
            max_steer: 70.0_f64.to_radians(),
            max_accel: 3.5,
            max_brake: 7.0,
            drag: 0.05,
            max_speed: 30.0,
            max_lat_accel: 8.0,
            alpha: 0.6,
            eta: 0.4,
            eps_mech: 1.0,
        }
    }
}

impl VehicleParams {
    /// Wheelbase `lf + lr`.
    pub fn wheelbase(&self) -> f64 {
        self.lf + self.lr
    }
}

/// Inertial quantities produced during one integration substep, consumed by
/// the IMU sensor model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct InertialSample {
    /// Longitudinal (body-frame x) acceleration, m/s^2.
    pub accel_lon: f64,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
}

/// Full dynamic state of a vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    /// Physical parameters.
    pub params: VehicleParams,
    /// Pose of the center of gravity.
    pub pose: Pose,
    /// Forward speed, m/s (non-negative; this model does not reverse).
    pub speed: f64,
    /// Realized (post-smoothing) actuation `a_t` of Eq. (1).
    pub actuation: Actuation,
    /// Inertial quantities from the most recent substeps (for IMU sampling).
    pub inertial: Vec<InertialSample>,
}

impl Vehicle {
    /// Creates a vehicle at rest-less: positioned at `pose` moving at `speed`.
    pub fn new(params: VehicleParams, pose: Pose, speed: f64) -> Self {
        Vehicle {
            params,
            pose,
            speed: speed.max(0.0),
            actuation: Actuation::default(),
            inertial: Vec::new(),
        }
    }

    /// The vehicle's collision footprint.
    pub fn obb(&self) -> Obb {
        Obb::new(
            self.pose.position,
            self.params.length,
            self.params.width,
            self.pose.heading,
        )
    }

    /// World-frame velocity vector.
    pub fn velocity(&self) -> Vec2 {
        self.pose.forward() * self.speed
    }

    /// Applies the Eq. (1) first-order actuation retain to a variation
    /// command and returns the resulting steering angle `delta` (radians).
    ///
    /// This is the control half of [`Vehicle::step`]: Eq. (1) fixes the
    /// steering angle for the whole control step, before any substep.
    fn apply_variation(&mut self, variation: Actuation) -> f64 {
        let p = &self.params;
        let eps = p.eps_mech;
        let nu = variation.steer.clamp(-eps, eps);
        let gamma = variation.thrust.clamp(-eps, eps);

        // Eq. (1): first-order retain of the previous actuation.
        self.actuation.steer =
            ((1.0 - p.alpha) * nu + p.alpha * self.actuation.steer).clamp(-1.0, 1.0);
        self.actuation.thrust =
            ((1.0 - p.eta) * gamma + p.eta * self.actuation.thrust).clamp(-1.0, 1.0);

        self.actuation.steer * p.max_steer
    }

    /// Applies variation commands through Eq. (1) and integrates the bicycle
    /// model over `dt` seconds using `substeps` Euler substeps.
    ///
    /// `variation` carries `(nu_t, gamma_t)`; both are clamped to the
    /// mechanical limit `[-eps_mech, eps_mech]` before smoothing, exactly as
    /// the paper specifies. Inertial samples for the IMU are recorded per
    /// substep.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `substeps == 0`.
    pub fn step(&mut self, variation: Actuation, dt: f64, substeps: usize) {
        assert!(dt > 0.0, "dt must be positive");
        assert!(substeps > 0, "need at least one substep");
        let delta = self.apply_variation(variation);
        let p = &self.params;
        let h = dt / substeps as f64;
        // The steering angle and thrust are fixed for the whole control
        // step, so what depends on them alone is computed once, from the
        // same inputs and with the same libm calls as every substep would.
        let drive = if self.actuation.thrust >= 0.0 {
            self.actuation.thrust * p.max_accel
        } else {
            self.actuation.thrust * p.max_brake
        };
        let tan_delta = delta.tan();
        // Kinematic bicycle with slip angle beta at the CoG.
        let beta = (p.lr / p.wheelbase() * tan_delta).atan();
        let cos_beta = beta.cos();
        self.inertial.clear();
        for _ in 0..substeps {
            let accel = drive - p.drag * self.speed;
            let new_speed = (self.speed + accel * h).clamp(0.0, p.max_speed);
            let realized_accel = (new_speed - self.speed) / h;
            self.speed = new_speed;

            // The yaw rate is saturated by the tire-friction
            // lateral-acceleration limit (|v * yaw_rate| <= max_lat_accel).
            let mut yaw_rate = self.speed * cos_beta * tan_delta / p.wheelbase();
            if self.speed > 0.1 {
                let cap = p.max_lat_accel / self.speed;
                yaw_rate = yaw_rate.clamp(-cap, cap);
            }
            let course = self.pose.heading + beta;
            self.pose.position += Vec2::from_angle(course) * (self.speed * h);
            self.pose.heading = normalize_angle(self.pose.heading + yaw_rate * h);

            self.inertial.push(InertialSample {
                accel_lon: realized_accel,
                yaw_rate,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(speed: f64) -> Vehicle {
        Vehicle::new(VehicleParams::default(), Pose::new(0.0, 0.0, 0.0), speed)
    }

    #[test]
    fn straight_driving_preserves_heading_and_lateral() {
        let mut v = fresh(16.0);
        for _ in 0..50 {
            v.step(Actuation::new(0.0, 0.0), 0.1, 5);
        }
        assert!(v.pose.heading.abs() < 1e-9);
        assert!(v.pose.position.y.abs() < 1e-9);
        assert!(v.pose.position.x > 50.0);
    }

    #[test]
    fn drag_decays_speed_without_thrust() {
        let mut v = fresh(16.0);
        for _ in 0..100 {
            v.step(Actuation::new(0.0, 0.0), 0.1, 5);
        }
        assert!(v.speed < 16.0);
        assert!(v.speed > 0.0);
    }

    #[test]
    fn throttle_accelerates_brake_decelerates() {
        let mut v = fresh(10.0);
        v.step(Actuation::new(0.0, 1.0), 0.1, 5);
        let after_throttle = v.speed;
        assert!(after_throttle > 10.0);

        let mut w = fresh(10.0);
        for _ in 0..5 {
            w.step(Actuation::new(0.0, -1.0), 0.1, 5);
        }
        assert!(w.speed < 10.0);
    }

    #[test]
    fn speed_never_negative_under_full_brake() {
        let mut v = fresh(2.0);
        for _ in 0..50 {
            v.step(Actuation::new(0.0, -1.0), 0.1, 5);
        }
        assert_eq!(v.speed, 0.0);
    }

    #[test]
    fn positive_steer_turns_left() {
        let mut v = fresh(10.0);
        for _ in 0..10 {
            v.step(Actuation::new(0.5, 0.0), 0.1, 5);
        }
        assert!(v.pose.heading > 0.0);
        assert!(v.pose.position.y > 0.0);
    }

    #[test]
    fn actuation_smoothing_matches_eq1() {
        let mut v = fresh(10.0);
        let p = v.params.clone();
        // One step with nu = 1: a_1 = (1 - alpha) * 1 + alpha * 0.
        v.step(Actuation::new(1.0, 0.0), 0.1, 1);
        assert!((v.actuation.steer - (1.0 - p.alpha)).abs() < 1e-12);
        // Second step with nu = 0: a_2 = alpha * a_1.
        v.step(Actuation::new(0.0, 0.0), 0.1, 1);
        assert!((v.actuation.steer - p.alpha * (1.0 - p.alpha)).abs() < 1e-12);
    }

    #[test]
    fn actuation_converges_to_sustained_command() {
        let mut v = fresh(0.0);
        for _ in 0..200 {
            v.step(Actuation::new(0.8, 0.0), 0.1, 1);
        }
        assert!((v.actuation.steer - 0.8).abs() < 1e-6);
    }

    #[test]
    fn variation_clamped_to_mechanical_limit() {
        let mut v = fresh(0.0);
        v.params.eps_mech = 0.5;
        v.step(Actuation::new(1.0, 0.0), 0.1, 1);
        // Actuation::new clamps to [-1,1] first; step clamps to eps_mech.
        let expected = (1.0 - v.params.alpha) * 0.5;
        assert!((v.actuation.steer - expected).abs() < 1e-12);
    }

    #[test]
    fn inertial_samples_recorded_per_substep() {
        let mut v = fresh(10.0);
        v.step(Actuation::new(0.2, 0.5), 0.1, 5);
        assert_eq!(v.inertial.len(), 5);
        // Throttling: positive longitudinal acceleration.
        assert!(v.inertial[0].accel_lon > 0.0);
        // Turning left: positive yaw rate and lateral acceleration.
        assert!(v.inertial.iter().any(|s| s.yaw_rate > 0.0));
    }

    #[test]
    fn obb_tracks_pose() {
        let mut v = fresh(10.0);
        v.step(Actuation::new(0.0, 0.0), 0.1, 5);
        let obb = v.obb();
        assert_eq!(obb.center, v.pose.position);
        assert!((obb.half_extents.x - v.params.length / 2.0).abs() < 1e-12);
    }

    #[test]
    fn circular_motion_radius_roughly_matches_theory() {
        // Constant steering at low speed: the vehicle should trace a circle
        // of radius ~ L / tan(delta).
        let mut v = fresh(5.0);
        v.params.drag = 0.0;
        // Pre-converge the actuator.
        for _ in 0..100 {
            v.step(Actuation::new(0.2, 0.0), 0.1, 5);
        }
        let delta = 0.2 * v.params.max_steer;
        let expected_yaw_rate = {
            let beta = (v.params.lr / v.params.wheelbase() * delta.tan()).atan();
            v.speed * beta.cos() * delta.tan() / v.params.wheelbase()
        };
        let got = v.inertial.last().unwrap().yaw_rate;
        assert!(
            (got - expected_yaw_rate).abs() < 0.05 * expected_yaw_rate.abs(),
            "yaw rate {got} vs expected {expected_yaw_rate}"
        );
    }
}
