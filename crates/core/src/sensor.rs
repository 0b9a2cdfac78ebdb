//! The attacker's observation sources (Section IV-C).
//!
//! The camera-based attacker sees stacked semantic features (wide-FOV
//! roof camera); the IMU-based attacker sees only the inertial window
//! (longitudinal acceleration + yaw rate at 20 sps over 3.2 s) — less
//! informative, nearly impossible to notice. One enum serves both so the
//! attack environment, the learned attacker, and the harnesses stay
//! sensor-agnostic.

use drive_sim::sensors::{FeatureConfig, FeatureExtractor, Imu, ImuConfig};
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which sensor the attacker deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Extra roof camera → semantic features.
    Camera,
    /// Hidden IMU → inertial window.
    Imu,
}

impl std::fmt::Display for SensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorKind::Camera => write!(f, "camera"),
            SensorKind::Imu => write!(f, "imu"),
        }
    }
}

/// A stateful attacker sensor.
#[derive(Debug, Clone)]
pub enum AttackerSensor {
    /// Semantic-feature camera.
    Camera(FeatureExtractor),
    /// Inertial window with its noise source.
    Imu {
        /// The IMU model.
        imu: Imu,
        /// Noise RNG (reseeded per episode).
        rng: StdRng,
        /// Base seed for per-episode noise reseeding.
        base_seed: u64,
        /// Episodes started so far (noise stream selector).
        episodes: u64,
    },
}

impl AttackerSensor {
    /// Creates a sensor of `kind`: a camera over `features`, or an IMU
    /// over `imu` whose noise stream is seeded with `seed`.
    pub fn new(kind: SensorKind, features: &FeatureConfig, imu: &ImuConfig, seed: u64) -> Self {
        match kind {
            SensorKind::Camera => AttackerSensor::camera(features.clone()),
            SensorKind::Imu => AttackerSensor::imu(imu.clone(), seed),
        }
    }

    /// Creates a camera sensor with the given feature configuration.
    pub fn camera(features: FeatureConfig) -> Self {
        AttackerSensor::Camera(FeatureExtractor::new(features))
    }

    /// Creates an IMU sensor.
    pub fn imu(config: ImuConfig, noise_seed: u64) -> Self {
        AttackerSensor::Imu {
            imu: Imu::new(config),
            rng: StdRng::seed_from_u64(noise_seed),
            base_seed: noise_seed,
            episodes: 0,
        }
    }

    /// Which kind of sensor this is.
    pub fn kind(&self) -> SensorKind {
        match self {
            AttackerSensor::Camera(_) => SensorKind::Camera,
            AttackerSensor::Imu { .. } => SensorKind::Imu,
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        match self {
            AttackerSensor::Camera(fx) => fx.config().observation_dim(),
            AttackerSensor::Imu { imu, .. } => imu.config().observation_dim(),
        }
    }

    /// Clears per-episode state (stacked frames / inertial window).
    pub fn reset(&mut self) {
        match self {
            AttackerSensor::Camera(fx) => fx.reset(),
            AttackerSensor::Imu {
                imu,
                rng,
                base_seed,
                episodes,
            } => {
                imu.reset();
                *episodes += 1;
                *rng = StdRng::seed_from_u64(base_seed.wrapping_add(*episodes));
            }
        }
    }

    /// Produces the observation for the current world state. Call exactly
    /// once per control step (both sensors are stateful).
    ///
    /// Allocates the returned vector; hot loops should hold a reused
    /// buffer and call [`AttackerSensor::observe_into`] instead.
    pub fn observe(&mut self, world: &World) -> Vec<f32> {
        let mut out = Vec::new();
        self.observe_into(world, &mut out);
        out
    }

    /// [`AttackerSensor::observe`], writing into `out` (cleared first).
    pub fn observe_into(&mut self, world: &World, out: &mut Vec<f32>) {
        match self {
            AttackerSensor::Camera(fx) => fx.observe_into(world, out),
            AttackerSensor::Imu { imu, rng, .. } => {
                imu.record(world, rng);
                imu.window_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::Scenario;
    use drive_sim::vehicle::Actuation;

    #[test]
    fn dims_match_configs() {
        let cam = AttackerSensor::camera(FeatureConfig::default());
        assert_eq!(cam.obs_dim(), FeatureConfig::default().observation_dim());
        assert_eq!(cam.kind(), SensorKind::Camera);
        let imu = AttackerSensor::imu(ImuConfig::default(), 0);
        assert_eq!(imu.obs_dim(), 128);
        assert_eq!(imu.kind(), SensorKind::Imu);
    }

    #[test]
    fn observe_tracks_world() {
        let mut world = World::new(Scenario::default());
        let mut cam = AttackerSensor::camera(FeatureConfig::default());
        let mut imu = AttackerSensor::imu(ImuConfig::default(), 1);
        let o1c = cam.observe(&world);
        let o1i = imu.observe(&world);
        world.step(Actuation::new(0.3, 1.0));
        let o2c = cam.observe(&world);
        let o2i = imu.observe(&world);
        assert_ne!(o1c, o2c);
        assert_ne!(o1i, o2i);
        assert_eq!(o1c.len(), cam.obs_dim());
        assert_eq!(o1i.len(), imu.obs_dim());
    }

    #[test]
    fn imu_reset_reseeds_noise_deterministically() {
        let run = || {
            let mut world = World::new(Scenario::default());
            let mut imu = AttackerSensor::imu(ImuConfig::default(), 7);
            imu.reset();
            world.step(Actuation::new(0.1, 0.5));
            imu.observe(&world)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn camera_reset_clears_stack() {
        let world = World::new(Scenario::default());
        let mut cam = AttackerSensor::camera(FeatureConfig::default());
        let a = cam.observe(&world);
        cam.observe(&world);
        cam.reset();
        let b = cam.observe(&world);
        assert_eq!(a, b);
    }
}
