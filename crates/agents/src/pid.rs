//! Proportional–integral–derivative controller with output clamping and
//! anti-windup, as used by the modular driving pipeline's longitudinal and
//! lateral control (Section III-B of the paper).

use serde::{Deserialize, Serialize};

/// PID gains and limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Symmetric output clamp (`|out| <= limit`).
    pub limit: f64,
    /// Symmetric clamp on the integral term's contribution (anti-windup).
    pub integral_limit: f64,
}

impl PidConfig {
    /// A purely proportional controller.
    #[cfg(test)]
    pub fn p(kp: f64, limit: f64) -> Self {
        PidConfig {
            kp,
            ki: 0.0,
            kd: 0.0,
            limit,
            integral_limit: limit,
        }
    }
}

/// A discrete PID controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Creates a controller with zeroed state.
    pub fn new(config: PidConfig) -> Self {
        Pid {
            config,
            integral: 0.0,
            prev_error: None,
        }
    }

    /// Resets integral and derivative memory (call at episode start).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }

    /// Advances the controller by one step of `dt` seconds with the given
    /// error, returning the clamped output.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn step(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        let c = self.config;
        self.integral =
            (self.integral + error * dt).clamp(-c.integral_limit.abs(), c.integral_limit.abs());
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        let out = c.kp * error + c.ki * self.integral + c.kd * derivative;
        out.clamp(-c.limit.abs(), c.limit.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only() {
        let mut pid = Pid::new(PidConfig::p(2.0, 10.0));
        assert_eq!(pid.step(1.5, 0.1), 3.0);
        assert_eq!(pid.step(-1.0, 0.1), -2.0);
    }

    #[test]
    fn output_clamped() {
        let mut pid = Pid::new(PidConfig::p(100.0, 1.0));
        assert_eq!(pid.step(5.0, 0.1), 1.0);
        assert_eq!(pid.step(-5.0, 0.1), -1.0);
    }

    #[test]
    fn integral_accumulates_and_saturates() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 1.0,
            kd: 0.0,
            limit: 100.0,
            integral_limit: 0.5,
        });
        let mut out = 0.0;
        for _ in 0..100 {
            out = pid.step(1.0, 0.1);
        }
        // Anti-windup keeps the integral contribution at the limit.
        assert!((out - 0.5).abs() < 1e-9);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 0.0,
            kd: 1.0,
            limit: 100.0,
            integral_limit: 1.0,
        });
        // First step: no derivative (no history).
        assert_eq!(pid.step(1.0, 0.1), 0.0);
        // Error jumped by 1 over dt 0.1 → derivative 10.
        assert!((pid.step(2.0, 0.1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_memory() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 1.0,
            kd: 1.0,
            limit: 100.0,
            integral_limit: 10.0,
        });
        pid.step(1.0, 0.1);
        pid.step(2.0, 0.1);
        pid.reset();
        // After reset, behaves like a fresh controller.
        assert_eq!(pid.step(1.0, 0.1), 0.1); // integral only: 1.0 * 0.1
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: y' = u; PI controller tracking setpoint 1.
        let mut pid = Pid::new(PidConfig {
            kp: 2.0,
            ki: 0.5,
            kd: 0.0,
            limit: 5.0,
            integral_limit: 2.0,
        });
        let mut y = 0.0;
        for _ in 0..300 {
            let u = pid.step(1.0 - y, 0.05);
            y += u * 0.05;
        }
        assert!((y - 1.0).abs() < 0.02, "y = {y}");
    }
}
