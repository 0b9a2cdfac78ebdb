//! Training of the end-to-end victim policy.
//!
//! Mirrors Section III-C: the policy is trained "with the knowledge of a
//! privileged agent" — here, behaviour cloning of the modular pipeline's
//! demonstrations — and then refined with SAC on the shaped nominal reward.
//! The SAC stage keeps the best-evaluating checkpoint, so refinement can
//! only improve on the clone.

use crate::driving_env::DrivingEnv;
use crate::e2e::E2eAgent;
use crate::modular::{ModularAgent, ModularConfig};
use crate::runner::run_episodes;
use crate::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_rl::bc::{clone_policy, BcConfig, Demonstrations};
use drive_rl::env::Env;
use drive_rl::sac::{Sac, SacConfig};
use drive_rl::train::{refine, Schedule, Snapshots};
use drive_seed::SeedTree;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Configuration of the victim training pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VictimTrainConfig {
    /// Demonstration episodes collected from the modular teacher.
    pub demo_episodes: usize,
    /// Uniform steering noise injected while collecting demonstrations
    /// (teacher labels stay clean), covering recovery states.
    pub demo_noise: f64,
    /// Behaviour-cloning gradient steps.
    pub bc_steps: usize,
    /// SAC environment steps after cloning (0 skips refinement).
    pub sac_steps: usize,
    /// Gradient updates happen every this many environment steps.
    pub update_every: usize,
    /// Hidden sizes of actor and critics.
    pub hidden: Vec<usize>,
    /// Evaluation episodes per checkpoint during refinement.
    pub eval_episodes: usize,
    /// Checkpoint / evaluation period in environment steps.
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
    /// Crash-recovery snapshot file for the SAC refinement stage. `None`
    /// disables snapshotting (the BC stage is cheap and always recomputes
    /// deterministically; only the long SAC loop is worth journaling).
    pub snapshot_path: Option<PathBuf>,
    /// Minimum environment steps between refinement snapshots.
    pub snapshot_every: usize,
}

impl Default for VictimTrainConfig {
    fn default() -> Self {
        VictimTrainConfig {
            demo_episodes: 80,
            demo_noise: 0.2,
            bc_steps: 10_000,
            sac_steps: 20_000,
            update_every: 2,
            hidden: vec![128, 128],
            eval_episodes: 5,
            eval_every: 4_000,
            seed: 0,
            snapshot_path: None,
            snapshot_every: 4_000,
        }
    }
}

/// Collects `(stacked features, (nu, gamma))` demonstration pairs from the
/// modular pipeline over jittered episodes.
///
/// `exec_noise` adds uniform noise to the *executed* steering while the
/// stored label stays the teacher's clean command (DART-style noise
/// injection), so the clone sees recovery states instead of only the
/// teacher's narrow on-path distribution. Odd episodes run noise-free.
pub fn collect_demonstrations(
    scenario: &Scenario,
    features: &FeatureConfig,
    episodes: usize,
    base_seed: u64,
    exec_noise: f64,
) -> Demonstrations {
    use drive_sim::vehicle::Actuation;
    let mut demos = Demonstrations::new();
    for e in 0..episodes {
        let mut rng = StdRng::seed_from_u64(base_seed + e as u64);
        let episode = scenario.jittered(&mut rng);
        let mut world = World::new(episode);
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let mut extractor = FeatureExtractor::new(features.clone());
        agent.reset(&world);
        extractor.reset();
        let noisy = e % 2 == 0 && exec_noise > 0.0;
        while !world.is_done() {
            let obs = extractor.observe(&world);
            let a = agent.act(&world);
            demos.push(obs, vec![a.steer as f32, a.thrust as f32]);
            let executed = if noisy {
                Actuation::new(a.steer + rng.gen_range(-exec_noise..=exec_noise), a.thrust)
            } else {
                a
            };
            world.step(executed);
        }
    }
    demos
}

/// Mean nominal return and mean passed-count of a policy over deterministic
/// evaluation episodes.
pub fn evaluate_policy(
    policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    episodes: usize,
    base_seed: u64,
) -> (f64, f64) {
    let frozen = BatchPolicy::from(policy.clone());
    let mut agent = E2eAgent::new(frozen, features.clone(), base_seed, true);
    let records = run_episodes(&mut agent, scenario, episodes, base_seed);
    let n = episodes.max(1) as f64;
    let mean_return = records.iter().map(|r| r.nominal_return).sum::<f64>() / n;
    let mean_passed = records.iter().map(|r| r.passed as f64).sum::<f64>() / n;
    (mean_return, mean_passed)
}

/// Trains the end-to-end victim policy: behaviour cloning of the modular
/// teacher followed by best-checkpoint SAC refinement on the shaped reward.
pub fn train_victim(
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &VictimTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("victim-bc").seed());
    let demos = collect_demonstrations(
        scenario,
        features,
        config.demo_episodes,
        config.seed,
        config.demo_noise,
    );
    let mut policy = GaussianPolicy::new(features.observation_dim(), &config.hidden, 2, &mut rng);
    clone_policy(
        &mut policy,
        &demos,
        BcConfig {
            steps: config.bc_steps,
            batch_size: 128,
            lr: 1e-3,
        },
        &mut rng,
    );
    if config.sac_steps == 0 {
        return policy;
    }
    refine_with_sac(policy, scenario, features, config)
}

/// Best-checkpoint SAC refinement through [`refine`], with crash-recovery
/// snapshots at [`VictimTrainConfig::snapshot_path`] (when set) at least
/// [`VictimTrainConfig::snapshot_every`] env steps apart.
fn refine_with_sac(
    policy: GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &VictimTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("victim-sac").seed());
    let sac_config = SacConfig {
        init_alpha: 0.02,
        actor_delay: 1000,
        batch_size: 128,
        ..SacConfig::default()
    };
    let sac = Sac::with_actor(policy, &config.hidden, sac_config, &mut rng);
    let mut env = DrivingEnv::new(scenario.clone(), features.clone());
    // The snapshot path itself is not part of the setup, so relocating
    // the run directory does not invalidate an otherwise-identical
    // snapshot.
    let hashed_config = VictimTrainConfig {
        snapshot_path: None,
        ..config.clone()
    };
    let schedule = Schedule {
        stage: "victim",
        steps: config.sac_steps,
        update_every: config.update_every,
        eval_every: config.eval_every,
        first_episode: config.seed.wrapping_mul(1000) + 1,
        snapshots: config.snapshot_path.as_deref().map(|path| Snapshots {
            path,
            every: config.snapshot_every,
            setup: format!("{hashed_config:?}|{scenario:?}|{features:?}"),
        }),
    };
    let eval_seed = 90_000 + config.seed;
    let eval = |p: &GaussianPolicy| {
        evaluate_policy(p, scenario, features, config.eval_episodes, eval_seed).0
    };
    refine(sac, &mut env, rng, &schedule, Env::reset, eval).actor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_features() -> FeatureConfig {
        FeatureConfig::default()
    }

    #[test]
    fn demonstrations_have_consistent_shapes() {
        let scenario = Scenario::default();
        let features = quick_features();
        let demos = collect_demonstrations(&scenario, &features, 2, 0, 0.0);
        // Two full episodes of 180 steps each.
        assert_eq!(demos.len(), 2 * scenario.max_steps);
        let mut rng = StdRng::seed_from_u64(0);
        let (o, a) = demos.sample_batch(4, &mut rng);
        assert_eq!(o.cols(), features.observation_dim());
        assert_eq!(a.cols(), 2);
    }

    #[test]
    fn bc_clone_drives_respectably() {
        // Cloning alone should reproduce most of the teacher's behaviour:
        // positive return and several NPCs passed, no barrier crash.
        let scenario = Scenario::default();
        let features = quick_features();
        let config = VictimTrainConfig {
            demo_episodes: 40,
            bc_steps: 6000,
            sac_steps: 0,
            ..VictimTrainConfig::default()
        };
        let policy = train_victim(&scenario, &features, &config);
        let (ret, passed) = evaluate_policy(&policy, &scenario, &features, 5, 777);
        assert!(ret > 100.0, "mean return {ret}");
        assert!(passed >= 4.0, "mean passed {passed}");
    }

    #[test]
    fn refinement_snapshots_do_not_change_results_and_clean_up() {
        // The same training run with and without snapshotting must produce
        // the identical policy (snapshot writes draw no randomness), and a
        // completed run must remove its snapshot file and the directory
        // that file's write created.
        let scenario = Scenario::default();
        let features = quick_features();
        let dir = std::env::temp_dir().join("drive-agents-victim-snap-test");
        let _ = std::fs::remove_dir_all(&dir);
        let base = VictimTrainConfig {
            demo_episodes: 4,
            bc_steps: 200,
            sac_steps: 1400,
            update_every: 8,
            hidden: vec![16],
            eval_episodes: 2,
            eval_every: 700,
            seed: 3,
            ..VictimTrainConfig::default()
        };
        let plain = train_victim(&scenario, &features, &base);
        let snap_path = dir.join("victim.snap");
        let snapped_cfg = VictimTrainConfig {
            snapshot_path: Some(snap_path.clone()),
            snapshot_every: 400,
            ..base.clone()
        };
        let snapped = train_victim(&scenario, &features, &snapped_cfg);
        assert!(
            !snap_path.exists(),
            "completed refinement must remove its snapshot"
        );
        assert!(
            !dir.exists(),
            "completed refinement must remove the snapshot directory it left empty"
        );
        let obs = drive_nn::mat::Mat::from_row(&vec![0.1; features.observation_dim()]);
        assert_eq!(plain.mean_action(&obs), snapped.mean_action(&obs));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_policy_is_deterministic() {
        let scenario = Scenario::default();
        let features = quick_features();
        let mut rng = StdRng::seed_from_u64(5);
        let policy = GaussianPolicy::new(features.observation_dim(), &[16], 2, &mut rng);
        let a = evaluate_policy(&policy, &scenario, &features, 3, 11);
        let b = evaluate_policy(&policy, &scenario, &features, 3, 11);
        assert_eq!(a, b);
    }
}
