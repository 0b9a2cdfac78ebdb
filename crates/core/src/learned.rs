//! A learned attack policy deployed as a [`SteerAttacker`].

use crate::budget::AttackBudget;
use crate::sensor::AttackerSensor;
use drive_agents::runner::SteerAttacker;
use drive_nn::batch::BatchPolicy;
use drive_nn::scratch::ActScratch;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trained camera- or IMU-based attacker.
///
/// The policy is frozen ([`BatchPolicy`]): wrap it once per evaluation
/// cell and hand each episode's attacker an O(1) clone, so its layers pack
/// once for all of them. A plain `GaussianPolicy` is accepted too and
/// wrapped on construction.
#[derive(Debug, Clone)]
pub struct LearnedAttacker {
    policy: BatchPolicy,
    sensor: AttackerSensor,
    budget: AttackBudget,
    rng: StdRng,
    deterministic: bool,
    scratch: ActScratch,
    obs: Vec<f32>,
}

impl LearnedAttacker {
    /// Wraps a trained policy with its sensor and budget.
    ///
    /// Wrap once (`BatchPolicy::from`) and hand each attacker a clone;
    /// clones share the packs. A plain `GaussianPolicy` is also accepted
    /// and wrapped here, so callers that hold one (the repo benchmark's
    /// layer probes build one attacker per episode) keep compiling.
    ///
    /// # Panics
    ///
    /// Panics if the policy's dims do not match the sensor / 1-D action.
    pub fn new(
        policy: impl Into<BatchPolicy>,
        sensor: AttackerSensor,
        budget: AttackBudget,
        seed: u64,
        deterministic: bool,
    ) -> Self {
        let policy = policy.into();
        assert_eq!(
            policy.obs_dim(),
            sensor.obs_dim(),
            "attack policy obs dim must match its sensor"
        );
        assert_eq!(policy.action_dim(), 1, "attack action is 1-D");
        LearnedAttacker {
            policy,
            sensor,
            budget,
            rng: StdRng::seed_from_u64(seed),
            deterministic,
            scratch: ActScratch::default(),
            obs: Vec::new(),
        }
    }

    /// The current budget.
    pub fn budget(&self) -> AttackBudget {
        self.budget
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }
}

impl SteerAttacker for LearnedAttacker {
    fn reset(&mut self, _world: &World) {
        self.sensor.reset();
    }

    fn delta(&mut self, world: &World) -> f64 {
        self.sensor.observe_into(world, &mut self.obs);
        let raw = self.policy.act_with(
            &self.obs,
            &mut self.rng,
            self.deterministic,
            &mut self.scratch,
        )[0] as f64;
        self.budget.scale(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_nn::gaussian::GaussianPolicy;
    use drive_sim::scenario::Scenario;
    use drive_sim::sensors::FeatureConfig;

    fn attacker(budget: f64) -> LearnedAttacker {
        let mut rng = StdRng::seed_from_u64(0);
        let dim = FeatureConfig::default().observation_dim();
        let policy = GaussianPolicy::new(dim, &[8], 1, &mut rng);
        LearnedAttacker::new(
            policy,
            AttackerSensor::camera(FeatureConfig::default()),
            AttackBudget::new(budget),
            1,
            true,
        )
    }

    #[test]
    fn delta_respects_budget() {
        let world = World::new(Scenario::default());
        for eps in [0.0, 0.3, 1.0] {
            let mut a = attacker(eps);
            a.reset(&world);
            let d = a.delta(&world);
            assert!(d.abs() <= eps + 1e-12, "delta {d} exceeds budget {eps}");
        }
    }

    #[test]
    fn deterministic_attacker_is_reproducible() {
        let world = World::new(Scenario::default());
        let mut a = attacker(1.0);
        let mut b = attacker(1.0);
        a.reset(&world);
        b.reset(&world);
        assert_eq!(a.delta(&world), b.delta(&world));
    }

    #[test]
    #[should_panic(expected = "obs dim")]
    fn sensor_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let policy = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let _ = LearnedAttacker::new(
            policy,
            AttackerSensor::camera(FeatureConfig::default()),
            AttackBudget::new(1.0),
            0,
            true,
        );
    }
}
