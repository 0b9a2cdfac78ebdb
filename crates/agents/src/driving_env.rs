//! The end-to-end driving task as an RL environment.
//!
//! Observations are stacked semantic features, actions are the
//! `(nu, gamma)` variation pair of Eq. (1), and the reward is the shaped
//! nominal driving reward of [`crate::reward`]. An optional steering attack
//! closure lets `attack-core` train adversarially-hardened victims on the
//! same environment (Section VI-A).

use crate::reward::{RewardConfig, RewardShaper};
use drive_rl::env::{Env, EnvStep};
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::vehicle::Actuation;
use drive_sim::world::{Termination, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-step steering perturbation source for adversarial training.
pub type SteerAttack = Box<dyn FnMut(&World) -> f64>;

/// The freeway driving environment.
pub struct DrivingEnv {
    scenario: Scenario,
    features: FeatureConfig,
    world: World,
    extractor: FeatureExtractor,
    shaper: RewardShaper,
    attack: Option<SteerAttack>,
}

impl std::fmt::Debug for DrivingEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrivingEnv")
            .field("scenario", &self.scenario)
            .field("step", &self.world.step_index())
            .field("attacked", &self.attack.is_some())
            .finish()
    }
}

impl DrivingEnv {
    /// Creates an environment over the given scenario and feature config.
    pub fn new(scenario: Scenario, features: FeatureConfig) -> Self {
        let world = World::new(scenario.clone());
        let lane = scenario.ego_lane;
        DrivingEnv {
            extractor: FeatureExtractor::new(features.clone()),
            shaper: RewardShaper::new(
                RewardConfig::default(),
                crate::behavior::BehaviorConfig::default(),
                lane,
            ),
            world,
            scenario,
            features,
            attack: None,
        }
    }

    /// Installs (or removes) a steering attack applied to every future step.
    pub fn set_attack(&mut self, attack: Option<SteerAttack>) {
        self.attack = attack;
    }
}

impl Env for DrivingEnv {
    fn obs_dim(&self) -> usize {
        self.features.observation_dim()
    }

    fn action_dim(&self) -> usize {
        2
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let episode = self.scenario.jittered(&mut rng);
        self.world = World::new(episode);
        self.extractor.reset();
        self.shaper.reset(&self.world);
        self.extractor.observe(&self.world)
    }

    fn step(&mut self, action: &[f32]) -> EnvStep {
        assert_eq!(action.len(), 2, "driving actions are (steer, thrust)");
        assert!(
            !self.world.is_done(),
            "step called after episode end; reset first"
        );
        let delta = match self.attack.as_mut() {
            Some(f) => f(&self.world),
            None => 0.0,
        };
        let actuation = Actuation::new(action[0] as f64 + delta, action[1] as f64);
        let outcome = self.world.step(actuation);
        let reward = self.shaper.step(&self.world, &outcome) as f32;
        let done = matches!(
            outcome.termination,
            Some(Termination::Collision(_)) | Some(Termination::RoadEnd)
        );
        let truncated = matches!(outcome.termination, Some(Termination::TimeLimit));
        EnvStep {
            obs: self.extractor.observe(&self.world),
            reward,
            done,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_rl::env::rollout;

    fn env() -> DrivingEnv {
        DrivingEnv::new(Scenario::default(), FeatureConfig::default())
    }

    #[test]
    fn dims_and_reset() {
        let mut e = env();
        assert_eq!(e.obs_dim(), FeatureConfig::default().observation_dim());
        assert_eq!(e.action_dim(), 2);
        let obs = e.reset(0);
        assert_eq!(obs.len(), e.obs_dim());
    }

    #[test]
    fn coasting_episode_truncates_at_limit() {
        let mut e = env();
        // Steering 0 / thrust 0 coasts in the middle lane and rear-ends the
        // first NPC eventually; with thrust -1 it brakes and survives.
        let (ret, len) = rollout(&mut e, |_| vec![0.0, -1.0], 7);
        assert_eq!(len, Scenario::default().max_steps);
        assert!(ret.is_finite());
        // Survived: the last step is a time-limit truncation, not a
        // collision (which would end the episode as `done`).
        let _ = e.reset(7);
        let last = (0..len).map(|_| e.step(&[0.0, -1.0])).last().unwrap();
        assert!(last.truncated && !last.done);
    }

    #[test]
    fn attack_closure_shifts_the_steering_command() {
        // An attacked step is the unattacked step with the perturbation
        // added to the steering command.
        let mut attacked = env();
        attacked.set_attack(Some(Box::new(|_| 0.5)));
        let (mut shifted, mut plain) = (env(), env());
        for e in [&mut attacked, &mut shifted, &mut plain] {
            let _ = e.reset(3);
        }
        for _ in 0..5 {
            let a = attacked.step(&[0.0, 0.0]);
            let s = shifted.step(&[0.5, 0.0]);
            let p = plain.step(&[0.0, 0.0]);
            assert_eq!((&a.obs, a.reward), (&s.obs, s.reward));
            assert_ne!(a.obs, p.obs, "the attack moves the ego");
        }
    }

    #[test]
    fn seeds_change_spawns() {
        let mut e = env();
        let o1 = e.reset(1);
        let o2 = e.reset(2);
        assert_ne!(o1, o2, "different jitter should alter observations");
        let o1b = e.reset(1);
        assert_eq!(o1, o1b, "same seed reproduces the episode");
    }

    #[test]
    #[should_panic(expected = "reset first")]
    fn stepping_after_done_panics() {
        let mut e = env();
        let _ = e.reset(0);
        for _ in 0..Scenario::default().max_steps + 1 {
            let _ = e.step(&[0.0, -1.0]);
        }
    }
}
