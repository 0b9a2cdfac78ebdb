//! The attacker's Markov decision process (Section IV).
//!
//! One [`AttackEnv`] wraps a *fixed* victim driving agent inside the
//! simulator: the attacker observes through its own sensor, outputs a raw
//! 1-D action, the budget scales it to the injected perturbation
//! `delta in [-epsilon, epsilon]`, and the reward is the adversarial reward
//! of [`crate::adv_reward`]. The optional teacher adds the
//! learning-from-teacher term for IMU training (Section IV-E).

use crate::adv_reward::AdvReward;
use crate::budget::AttackBudget;
use crate::sensor::AttackerSensor;
use drive_agents::Agent;
use drive_nn::gaussian::GaussianPolicy;
use drive_rl::env::{Env, EnvStep};
use drive_sim::scenario::Scenario;
use drive_sim::sensors::FeatureConfig;
use drive_sim::vehicle::Actuation;
use drive_sim::world::{Termination, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A frozen camera attack policy used as the IMU attacker's teacher.
#[derive(Debug, Clone)]
pub struct Teacher {
    policy: GaussianPolicy,
    sensor: AttackerSensor,
    last_obs: Vec<f32>,
    rng: StdRng,
}

impl Teacher {
    /// Wraps a trained camera policy and its feature configuration.
    pub fn new(policy: GaussianPolicy, features: FeatureConfig) -> Self {
        Teacher {
            sensor: AttackerSensor::camera(features),
            last_obs: Vec::new(),
            policy,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn reset(&mut self, world: &World) {
        self.sensor.reset();
        self.last_obs = self.sensor.observe(world);
    }

    /// Teacher's raw action for the state the student is about to act in.
    fn raw_action(&mut self) -> f64 {
        self.policy.act(&self.last_obs, &mut self.rng, true)[0] as f64
    }

    fn after_step(&mut self, world: &World) {
        self.last_obs = self.sensor.observe(world);
    }
}

/// The attack-construction environment.
pub struct AttackEnv {
    scenario: Scenario,
    victim: Box<dyn Agent>,
    sensor: AttackerSensor,
    budget: AttackBudget,
    adv: AdvReward,
    teacher: Option<Teacher>,
    world: World,
}

impl std::fmt::Debug for AttackEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackEnv")
            .field("budget", &self.budget)
            .field("sensor", &self.sensor.kind())
            .field("step", &self.world.step_index())
            .finish()
    }
}

impl AttackEnv {
    /// Creates the environment around a victim agent.
    pub fn new(
        scenario: Scenario,
        victim: Box<dyn Agent>,
        sensor: AttackerSensor,
        budget: AttackBudget,
        adv: AdvReward,
    ) -> Self {
        let world = World::new(scenario.clone());
        AttackEnv {
            scenario,
            victim,
            sensor,
            budget,
            adv,
            teacher: None,
            world,
        }
    }

    /// Installs a camera teacher (IMU learning-from-teacher training).
    pub fn set_teacher(&mut self, teacher: Option<Teacher>) {
        self.teacher = teacher;
    }
}

impl Env for AttackEnv {
    fn obs_dim(&self) -> usize {
        self.sensor.obs_dim()
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let episode = self.scenario.jittered(&mut rng);
        self.world = World::new(episode);
        self.victim.reset(&self.world);
        self.sensor.reset();
        if let Some(t) = self.teacher.as_mut() {
            t.reset(&self.world);
        }
        self.sensor.observe(&self.world)
    }

    fn step(&mut self, action: &[f32]) -> EnvStep {
        assert_eq!(action.len(), 1, "attack action is the raw steering delta");
        assert!(
            !self.world.is_done(),
            "step called after episode end; reset first"
        );
        let delta = self.budget.scale(action[0] as f64);
        let teacher_delta = self.teacher.as_mut().map(|t| {
            let raw = t.raw_action();
            self.budget.scale(raw)
        });

        let nominal = self.victim.act(&self.world);
        let outcome = self
            .world
            .step(Actuation::new(nominal.steer + delta, nominal.thrust));

        let reward = match teacher_delta {
            Some(td) => self.adv.step_with_teacher(&self.world, &outcome, delta, td),
            None => self.adv.step(&self.world, &outcome, delta),
        };

        if let Some(t) = self.teacher.as_mut() {
            t.after_step(&self.world);
        }
        let done = matches!(
            outcome.termination,
            Some(Termination::Collision(_)) | Some(Termination::RoadEnd)
        );
        let truncated = matches!(outcome.termination, Some(Termination::TimeLimit));
        EnvStep {
            obs: self.sensor.observe(&self.world),
            reward: reward as f32,
            done,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_agents::modular::{ModularAgent, ModularConfig};
    use drive_sim::sensors::ImuConfig;

    fn env(budget: f64) -> AttackEnv {
        AttackEnv::new(
            Scenario::default(),
            Box::new(ModularAgent::new(ModularConfig::default(), 1)),
            AttackerSensor::camera(FeatureConfig::default()),
            AttackBudget::new(budget),
            AdvReward::default(),
        )
    }

    #[test]
    fn dims_and_reset() {
        let mut e = env(1.0);
        assert_eq!(e.action_dim(), 1);
        assert_eq!(e.obs_dim(), FeatureConfig::default().observation_dim());
        let obs = e.reset(0);
        assert_eq!(obs.len(), e.obs_dim());
    }

    /// Steps a fresh episode with a constant raw action to its end:
    /// (adversarial return, steps, first observation, last step).
    fn run(budget: f64, seed: u64, raw: f32) -> (f32, usize, Vec<f32>, EnvStep) {
        let mut e = env(budget);
        let _ = e.reset(seed);
        let first = e.step(&[raw]);
        let (mut total, mut steps, obs) = (first.reward, 1, first.obs.clone());
        let mut last = first;
        while !last.finished() {
            last = e.step(&[raw]);
            total += last.reward;
            steps += 1;
        }
        (total, steps, obs, last)
    }

    #[test]
    fn zero_budget_attack_is_nominal_driving() {
        let (total, steps, _, last) = run(0.0, 1, 1.0);
        assert!(last.truncated && !last.done, "modular agent drives clean");
        // Nominal case: cumulative adversarial reward is ... not positive.
        // (Slightly positive per-step r_e2n can accrue during overtakes, but
        // without a side collision the attacker earns no collision bonus.)
        assert!(total < 15.0, "adv return {total}");
        // A zero budget scales every raw action to no perturbation.
        let (total_idle, steps_idle, _, last_idle) = run(0.0, 1, 0.0);
        assert_eq!(
            (total, steps, &last.obs),
            (total_idle, steps_idle, &last_idle.obs)
        );
    }

    #[test]
    fn constant_full_push_disturbs_the_victim() {
        let (_, steps, first, last) = run(1.0, 2, 1.0);
        let (_, nominal_steps, nominal_first, _) = run(0.0, 2, 1.0);
        assert_ne!(first, nominal_first, "the push acts from the first step");
        assert!(last.done, "the full push ends the episode early");
        assert!(steps < nominal_steps);
    }

    #[test]
    fn imu_sensor_variant_works() {
        let mut e = AttackEnv::new(
            Scenario::default(),
            Box::new(ModularAgent::new(ModularConfig::default(), 1)),
            AttackerSensor::imu(ImuConfig::default(), 5),
            AttackBudget::new(0.5),
            AdvReward::default(),
        );
        let obs = e.reset(0);
        assert_eq!(obs.len(), 128);
        let s = e.step(&[0.3]);
        assert_eq!(s.obs.len(), 128);
    }

    #[test]
    fn teacher_reward_shapes_towards_teacher() {
        use drive_nn::gaussian::GaussianPolicy;
        let mut rng = StdRng::seed_from_u64(0);
        let dim = FeatureConfig::default().observation_dim();
        let teacher_policy = GaussianPolicy::new(dim, &[8], 1, &mut rng);
        let mut e = env(1.0);
        e.set_teacher(Some(Teacher::new(teacher_policy, FeatureConfig::default())));
        let _ = e.reset(0);
        let s = e.step(&[0.9]);
        assert!(s.reward.is_finite());
    }
}
