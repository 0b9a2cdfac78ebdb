//! Last-rung safety controller for the serving degradation ladder.
//!
//! When the serving pipeline is too overloaded (or too distrusted — the
//! perturbation detector alarming) to run learned inference, the Simplex
//! pattern says: hand control to a small verified controller whose only
//! job is to keep the vehicle safe, not to drive well. This is that
//! controller — PID lane-centering with heading damping plus a gentle
//! brake toward a crawl speed, reading the *raw* current feature frame
//! (no network, no detector, no history). It is pure `f64` arithmetic:
//! deterministic, allocation-free, and cheap enough to never miss a
//! deadline.

use crate::pid::{Pid, PidConfig};
use drive_sim::vehicle::Actuation;
use serde::{Deserialize, Serialize};

/// Gains and targets for the [`SafetyController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyConfig {
    /// PID on the normalized lateral lane offset (feature frame index 0).
    pub steer_pid: PidConfig,
    /// Linear damping on the heading error (frame index 1): steering is
    /// reduced when the vehicle is already turning back toward the lane.
    pub heading_gain: f64,
    /// Target speed as a fraction of the extractor's `speed_norm`
    /// (frame index 2 is `speed / speed_norm`). The fallback slows the
    /// vehicle to this crawl rather than stopping dead in traffic.
    pub crawl_speed: f64,
    /// Proportional brake gain on the speed excess over the crawl target.
    pub brake_gain: f64,
    /// Control period in seconds (feeds the PID derivative/integral).
    pub dt: f64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            steer_pid: PidConfig {
                kp: 0.8,
                ki: 0.05,
                kd: 0.3,
                limit: 0.6,
                integral_limit: 0.2,
            },
            heading_gain: 0.5,
            crawl_speed: 0.3,
            brake_gain: 1.5,
            dt: 0.05,
        }
    }
}

/// Simplex fallback: PID lane-centering + gentle braking on raw features.
///
/// Stateful (PID memory), so the serving layer keeps one per worker and
/// calls [`SafetyController::reset`] when the ladder re-engages it after
/// a stretch of full-pipeline operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyController {
    config: SafetyConfig,
    steer: Pid,
}

impl Default for SafetyController {
    fn default() -> Self {
        SafetyController::new(SafetyConfig::default())
    }
}

impl SafetyController {
    /// Builds the controller with zeroed PID state.
    pub fn new(config: SafetyConfig) -> Self {
        SafetyController {
            steer: Pid::new(config.steer_pid),
            config,
        }
    }

    /// The configuration in use.
    #[cfg(test)]
    pub fn config(&self) -> &SafetyConfig {
        &self.config
    }

    /// Clears PID memory. Call when the ladder drops to the fallback rung
    /// so stale integral state from a previous engagement cannot jerk the
    /// wheel.
    pub fn reset(&mut self) {
        self.steer.reset();
    }

    /// Computes a safe actuation from the most recent raw feature frame:
    /// `obs[0]` = normalized lateral lane offset, `obs[1]` = heading,
    /// `obs[2]` = normalized speed (see `drive_sim::sensors`). Extra
    /// elements (NPC features, stacked history) are ignored — the
    /// fallback must work from any observation the full pipeline accepts.
    ///
    /// Steering drives the lane offset to zero with heading damping;
    /// thrust only ever brakes (clamped at 0), easing the vehicle toward
    /// the crawl speed.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has fewer than 3 elements.
    pub fn act(&mut self, obs: &[f32]) -> Actuation {
        assert!(obs.len() >= 3, "safety controller needs lane/heading/speed");
        // Corrupted frames must not steer the fallback: non-finite inputs
        // read as zero, matching the NN path's input sanitization.
        let finite = |v: f32| if v.is_finite() { v as f64 } else { 0.0 };
        let lat = finite(obs[0]).clamp(-2.0, 2.0);
        let heading = finite(obs[1]).clamp(-1.5, 1.5);
        let speed = finite(obs[2]).clamp(-2.0, 2.0);
        let steer = self.steer.step(-lat, self.config.dt) - self.config.heading_gain * heading;
        let over = speed - self.config.crawl_speed;
        let thrust = (-self.config.brake_gain * over).clamp(-1.0, 0.0);
        Actuation::new(steer.clamp(-1.0, 1.0), thrust)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steers_against_lateral_offset() {
        let mut c = SafetyController::default();
        // Drifted left of center (positive offset) -> steer right (negative).
        let a = c.act(&[0.8, 0.0, 0.3]);
        assert!(a.steer < 0.0, "steer {}", a.steer);
        c.reset();
        let a = c.act(&[-0.8, 0.0, 0.3]);
        assert!(a.steer > 0.0, "steer {}", a.steer);
    }

    #[test]
    fn heading_damping_opposes_overshoot() {
        let mut with = SafetyController::default();
        let mut without = SafetyController::default();
        // Same offset, but already rotated back toward the lane: the
        // damped command must be weaker.
        let damped = with.act(&[0.8, -0.4, 0.3]);
        let undamped = without.act(&[0.8, 0.0, 0.3]);
        assert!(
            damped.steer > undamped.steer,
            "{} vs {}",
            damped.steer,
            undamped.steer
        );
    }

    #[test]
    fn brakes_above_crawl_and_coasts_below() {
        let mut c = SafetyController::default();
        let fast = c.act(&[0.0, 0.0, 1.0]);
        assert!(fast.thrust < 0.0, "must brake when fast");
        let slow = c.act(&[0.0, 0.0, 0.1]);
        assert_eq!(slow.thrust, 0.0, "never accelerates");
        assert!(fast.thrust >= -1.0);
    }

    #[test]
    fn outputs_always_bounded() {
        let mut c = SafetyController::default();
        for obs in [
            [10.0f32, -9.0, 8.0],
            [-10.0, 9.0, -8.0],
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
        ] {
            let a = c.act(&obs);
            assert!((-1.0..=1.0).contains(&a.steer), "steer {}", a.steer);
            assert!((-1.0..=0.0).contains(&a.thrust), "thrust {}", a.thrust);
        }
    }

    #[test]
    fn corrupted_frame_reads_as_neutral() {
        let mut c = SafetyController::default();
        let a = c.act(&[f32::NAN, f32::NAN, f32::NAN]);
        assert_eq!(a.steer, 0.0);
        assert_eq!(a.thrust, 0.0);
    }

    #[test]
    fn closed_loop_centers_a_kinematic_cart() {
        // Toy lateral plant: offset' = k * steer, so the negative steer
        // commanded at positive offset pulls the cart back to center.
        let mut c = SafetyController::default();
        let mut offset = 1.0f64;
        for _ in 0..400 {
            let a = c.act(&[offset as f32, 0.0, 0.3]);
            offset = (offset + 0.8 * a.steer * c.config().dt).clamp(-2.0, 2.0);
        }
        assert!(offset.abs() < 0.15, "offset {offset}");
    }

    #[test]
    fn reset_clears_pid_memory() {
        let mut a = SafetyController::default();
        let mut b = SafetyController::default();
        for _ in 0..20 {
            a.act(&[0.5, 0.0, 0.3]);
        }
        a.reset();
        assert_eq!(a.act(&[0.3, 0.1, 0.4]), b.act(&[0.3, 0.1, 0.4]));
    }

    #[test]
    fn extra_observation_elements_are_ignored() {
        let mut short = SafetyController::default();
        let mut long = SafetyController::default();
        let frame = [0.4f32, -0.1, 0.6];
        let mut extended = frame.to_vec();
        extended.extend([9.0f32; 37]);
        assert_eq!(short.act(&frame), long.act(&extended));
    }
}
