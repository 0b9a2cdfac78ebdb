//! The end-to-end driving agent: a learned policy mapping semantic
//! observations directly to actuation variations (Section III-C).

use crate::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::scratch::ActScratch;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Anything that maps an observation vector to a bounded action vector.
///
/// Implemented for [`GaussianPolicy`] (live weights, e.g. during
/// training) and [`BatchPolicy`] (frozen, pre-packed weights — the
/// evaluation path); the PNN defense switcher in `attack-core` adds its
/// own implementation.
pub trait Policy {
    /// Observation dimensionality this policy expects.
    fn obs_dim(&self) -> usize;
    /// Action dimensionality this policy produces.
    fn action_dim(&self) -> usize;

    /// Computes an action in `[-1, 1]^action_dim` into a caller-provided
    /// buffer, using the reusable [`ActScratch`] so steady-state calls
    /// allocate nothing.
    fn action_into(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &mut ActScratch,
        out: &mut Vec<f32>,
    );

    /// Allocating convenience over [`Policy::action_into`]: identical
    /// actions and RNG consumption.
    fn action(&self, obs: &[f32], rng: &mut StdRng, deterministic: bool) -> Vec<f32> {
        let mut out = Vec::new();
        self.action_into(
            obs,
            rng,
            deterministic,
            &mut ActScratch::default(),
            &mut out,
        );
        out
    }
}

impl Policy for GaussianPolicy {
    fn obs_dim(&self) -> usize {
        GaussianPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        GaussianPolicy::action_dim(self)
    }
    fn action_into(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &mut ActScratch,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend_from_slice(self.act_with(obs, rng, deterministic, scratch));
    }
}

impl Policy for BatchPolicy {
    fn obs_dim(&self) -> usize {
        BatchPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        BatchPolicy::action_dim(self)
    }
    fn action_into(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &mut ActScratch,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend_from_slice(self.act_with(obs, rng, deterministic, scratch));
    }
}

/// An end-to-end agent: semantic feature extractor + learned policy.
#[derive(Debug, Clone)]
pub struct E2eAgent<P: Policy> {
    policy: P,
    extractor: FeatureExtractor,
    rng: StdRng,
    deterministic: bool,
    scratch: ActScratch,
    obs_buf: Vec<f32>,
    action_buf: Vec<f32>,
}

impl<P: Policy> E2eAgent<P> {
    /// Wraps a policy for driving. `deterministic` selects `tanh(mean)`
    /// actions (evaluation) versus sampled actions.
    ///
    /// # Panics
    ///
    /// Panics if the policy's dims do not match the feature configuration
    /// (observation) and the 2-D actuation.
    pub fn new(policy: P, features: FeatureConfig, seed: u64, deterministic: bool) -> Self {
        assert_eq!(
            policy.obs_dim(),
            features.observation_dim(),
            "policy obs dim must match feature extractor"
        );
        assert_eq!(
            policy.action_dim(),
            2,
            "driving actions are (steer, thrust)"
        );
        E2eAgent {
            policy,
            extractor: FeatureExtractor::new(features),
            rng: StdRng::seed_from_u64(seed),
            deterministic,
            scratch: ActScratch::default(),
            obs_buf: Vec::new(),
            action_buf: Vec::new(),
        }
    }
}

impl<P: Policy> Agent for E2eAgent<P> {
    fn reset(&mut self, _world: &World) {
        self.extractor.reset();
    }

    fn act(&mut self, world: &World) -> Actuation {
        self.extractor.observe_into(world, &mut self.obs_buf);
        self.policy.action_into(
            &self.obs_buf,
            &mut self.rng,
            self.deterministic,
            &mut self.scratch,
            &mut self.action_buf,
        );
        Actuation::new(self.action_buf[0] as f64, self.action_buf[1] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::Scenario;

    fn policy() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(0);
        let dim = FeatureConfig::default().observation_dim();
        GaussianPolicy::new(dim, &[16], 2, &mut rng)
    }

    #[test]
    fn produces_bounded_actuation() {
        let mut agent = E2eAgent::new(policy(), FeatureConfig::default(), 1, false);
        let mut world = World::new(Scenario::default());
        agent.reset(&world);
        for _ in 0..5 {
            let a = agent.act(&world);
            assert!(a.steer.abs() <= 1.0 && a.thrust.abs() <= 1.0);
            world.step(a);
        }
    }

    #[test]
    fn deterministic_agent_is_reproducible() {
        let run = || {
            let mut agent = E2eAgent::new(policy(), FeatureConfig::default(), 1, true);
            let mut world = World::new(Scenario::default());
            agent.reset(&world);
            let mut actions = Vec::new();
            for _ in 0..10 {
                let a = agent.act(&world);
                actions.push(a);
                world.step(a);
            }
            actions
        };
        assert_eq!(run(), run());
    }

    /// An agent on the packed frozen policy drives exactly the episode
    /// the live-weight agent drives: every record field, in both the
    /// deterministic and the sampled mode.
    #[test]
    fn packed_policy_episode_matches_live_policy_record_for_record() {
        use crate::runner::run_episode;
        let mut rng = StdRng::seed_from_u64(4);
        let dim = FeatureConfig::default().observation_dim();
        let live = GaussianPolicy::new(dim, &[128, 128], 2, &mut rng);
        for deterministic in [true, false] {
            let mut a = E2eAgent::new(live.clone(), FeatureConfig::default(), 7, deterministic);
            let mut b = E2eAgent::new(
                BatchPolicy::from(live.clone()),
                FeatureConfig::default(),
                7,
                deterministic,
            );
            for seed in [3u64, 4] {
                let want = run_episode(&mut a, &Scenario::default(), seed, None, |_, _, _| {});
                let got = run_episode(&mut b, &Scenario::default(), seed, None, |_, _, _| {});
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed} det={deterministic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "obs dim")]
    fn dim_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let bad = GaussianPolicy::new(7, &[8], 2, &mut rng);
        let _ = E2eAgent::new(bad, FeatureConfig::default(), 0, true);
    }
}
