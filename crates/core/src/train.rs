//! Training of the attack policies (Sections IV-D and IV-E).
//!
//! The camera attacker is behaviour-cloned from the geometric oracle and
//! then refined with SAC on the adversarial reward; the IMU attacker is
//! behaviour-cloned from the *camera teacher* and refined with the
//! teacher-augmented reward `R_adv + p_se` — the paper's
//! learning-from-teacher structure. Both refinements keep the
//! best-evaluating checkpoint (mean cumulative adversarial reward).

use crate::adv_reward::AdvReward;
use crate::attack_env::{AttackEnv, Teacher};
use crate::budget::AttackBudget;
use crate::eval::run_attacked_episodes;
use crate::learned::LearnedAttacker;
use crate::oracle::OracleAttacker;
use crate::sensor::{AttackerSensor, SensorKind};
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_rl::bc::{clone_policy, BcConfig, Demonstrations};
use drive_rl::env::Env;
use drive_rl::sac::{Sac, SacConfig};
use drive_rl::train::{refine, Schedule};
use drive_seed::SeedTree;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, ImuConfig};
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A source of fresh victim agents (one per training/eval context).
pub type VictimBuilder<'a> = &'a dyn Fn() -> Box<dyn Agent>;

/// Configuration of attacker training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackTrainConfig {
    /// Demonstration episodes (oracle for camera, camera for IMU).
    pub bc_episodes: usize,
    /// Behaviour-cloning gradient steps.
    pub bc_steps: usize,
    /// SAC environment steps after cloning (0 skips refinement).
    pub sac_steps: usize,
    /// Gradient updates happen every this many environment steps.
    pub update_every: usize,
    /// Hidden sizes of actor and critics.
    pub hidden: Vec<usize>,
    /// Evaluation episodes per refinement checkpoint.
    pub eval_episodes: usize,
    /// Checkpoint / evaluation period in environment steps.
    pub eval_every: usize,
    /// Training budget (the paper trains at the mechanical limit, 1.0).
    pub budget: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for AttackTrainConfig {
    fn default() -> Self {
        AttackTrainConfig {
            bc_episodes: 40,
            bc_steps: 6000,
            sac_steps: 15_000,
            update_every: 2,
            hidden: vec![128, 128],
            eval_episodes: 8,
            eval_every: 3_000,
            budget: 1.0,
            seed: 0,
        }
    }
}

/// Collects `(camera obs, oracle raw action)` pairs while the oracle
/// attacks the victim.
pub fn collect_oracle_demos(
    victim: VictimBuilder<'_>,
    scenario: &Scenario,
    features: &FeatureConfig,
    episodes: usize,
    base_seed: u64,
    budget: AttackBudget,
) -> Demonstrations {
    let mut demos = Demonstrations::new();
    let oracle = OracleAttacker::new(budget);
    for e in 0..episodes {
        let mut rng = StdRng::seed_from_u64(base_seed + e as u64);
        let episode = scenario.jittered(&mut rng);
        let mut world = World::new(episode);
        let mut agent = victim();
        let mut sensor = AttackerSensor::camera(features.clone());
        agent.reset(&world);
        sensor.reset();
        while !world.is_done() {
            let obs = sensor.observe(&world);
            let raw = oracle.raw_action(&world);
            demos.push(obs, vec![raw as f32]);
            let delta = budget.scale(raw);
            let a = agent.act(&world);
            world.step(Actuation::new(a.steer + delta, a.thrust));
        }
    }
    demos
}

/// Collects `(IMU obs, camera-teacher raw action)` pairs while the teacher
/// attacks the victim — the supervised half of learning-from-teacher.
#[allow(clippy::too_many_arguments)]
pub fn collect_teacher_demos(
    victim: VictimBuilder<'_>,
    teacher: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    imu: &ImuConfig,
    episodes: usize,
    base_seed: u64,
    budget: AttackBudget,
) -> Demonstrations {
    let mut demos = Demonstrations::new();
    for e in 0..episodes {
        let mut rng = StdRng::seed_from_u64(base_seed + e as u64);
        let episode = scenario.jittered(&mut rng);
        let mut world = World::new(episode);
        let mut agent = victim();
        let mut cam = AttackerSensor::camera(features.clone());
        let mut imu_sensor = AttackerSensor::imu(
            imu.clone(),
            SeedTree::root(base_seed)
                .child("imu-sensor")
                .child(e)
                .seed(),
        );
        let mut trng = StdRng::seed_from_u64(0);
        agent.reset(&world);
        cam.reset();
        imu_sensor.reset();
        while !world.is_done() {
            let cam_obs = cam.observe(&world);
            let imu_obs = imu_sensor.observe(&world);
            let raw = teacher.act(&cam_obs, &mut trng, true)[0];
            demos.push(imu_obs, vec![raw]);
            let delta = budget.scale(raw as f64);
            let a = agent.act(&world);
            world.step(Actuation::new(a.steer + delta, a.thrust));
        }
    }
    demos
}

/// Mean cumulative adversarial reward and side-collision success rate of an
/// attack policy over deterministic evaluation episodes.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_attack_policy(
    policy: &GaussianPolicy,
    victim: VictimBuilder<'_>,
    scenario: &Scenario,
    sensor: SensorKind,
    features: &FeatureConfig,
    imu: &ImuConfig,
    budget: AttackBudget,
    episodes: usize,
    base_seed: u64,
) -> (f64, f64) {
    let adv = AdvReward::default();
    let mut agent = victim();
    let policy = BatchPolicy::from(policy.clone());
    let records = run_attacked_episodes(
        agent.as_mut(),
        |seed| {
            let s = AttackerSensor::new(sensor, features, imu, seed);
            Some(LearnedAttacker::new(policy.clone(), s, budget, seed, true))
        },
        &adv,
        scenario,
        episodes,
        base_seed,
    );
    let n = episodes.max(1) as f64;
    let mean_adv = records.iter().map(|r| r.adv_return).sum::<f64>() / n;
    let success = records.iter().filter(|r| r.side_collision()).count() as f64 / n;
    (mean_adv, success)
}

/// Trains the camera-based attack policy against a victim.
pub fn train_camera_attacker(
    victim: VictimBuilder<'_>,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &AttackTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("camera-bc").seed());
    let budget = AttackBudget::new(config.budget);
    let demos = collect_oracle_demos(
        victim,
        scenario,
        features,
        config.bc_episodes,
        config.seed,
        budget,
    );
    let mut policy = GaussianPolicy::new(features.observation_dim(), &config.hidden, 1, &mut rng);
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
    let sensor = AttackerSensor::camera(features.clone());
    refine_attacker(
        policy,
        None,
        sensor,
        victim,
        scenario,
        features,
        &ImuConfig::default(),
        config,
    )
}

/// Trains the IMU-based attack policy with learning-from-teacher.
pub fn train_imu_attacker(
    victim: VictimBuilder<'_>,
    teacher: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    imu: &ImuConfig,
    config: &AttackTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("imu-bc").seed());
    let budget = AttackBudget::new(config.budget);
    let demos = collect_teacher_demos(
        victim,
        teacher,
        scenario,
        features,
        imu,
        config.bc_episodes,
        config.seed,
        budget,
    );
    let mut policy = GaussianPolicy::new(imu.observation_dim(), &config.hidden, 1, &mut rng);
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
    let sensor = AttackerSensor::imu(
        imu.clone(),
        SeedTree::root(config.seed)
            .child("imu-teacher-sensor")
            .seed(),
    );
    let teacher = Teacher::new(teacher.clone(), features.clone());
    refine_attacker(
        policy,
        Some(teacher),
        sensor,
        victim,
        scenario,
        features,
        imu,
        config,
    )
}

/// SAC refinement on the attack environment with best-checkpoint selection.
#[allow(clippy::too_many_arguments)]
fn refine_attacker(
    policy: GaussianPolicy,
    teacher: Option<Teacher>,
    sensor: AttackerSensor,
    victim: VictimBuilder<'_>,
    scenario: &Scenario,
    features: &FeatureConfig,
    imu: &ImuConfig,
    config: &AttackTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("attack-sac").seed());
    let budget = AttackBudget::new(config.budget);
    let kind = sensor.kind();
    let eval_seed = 70_000 + config.seed;
    let eval = |p: &GaussianPolicy| {
        evaluate_attack_policy(
            p,
            victim,
            scenario,
            kind,
            features,
            imu,
            budget,
            config.eval_episodes,
            eval_seed,
        )
        .0
    };
    let sac_config = SacConfig {
        init_alpha: 0.05,
        batch_size: 128,
        ..SacConfig::default()
    };
    let sac = Sac::with_actor(policy, &config.hidden, sac_config, &mut rng);
    let mut env = AttackEnv::new(
        scenario.clone(),
        victim(),
        sensor,
        budget,
        AdvReward::default(),
    );
    env.set_teacher(teacher);
    let stage = format!("attacker_{kind}");
    let schedule = Schedule {
        stage: &stage,
        steps: config.sac_steps,
        update_every: config.update_every,
        eval_every: config.eval_every,
        first_episode: config.seed.wrapping_mul(7777) + 1,
        snapshots: None,
    };
    refine(sac, &mut env, rng, &schedule, Env::reset, eval).actor
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_agents::modular::{ModularAgent, ModularConfig};

    fn modular_victim() -> Box<dyn Agent> {
        Box::new(ModularAgent::new(ModularConfig::default(), 1))
    }

    #[test]
    fn oracle_demos_have_nonzero_labels() {
        let scenario = Scenario::default();
        let features = FeatureConfig::default();
        let demos = collect_oracle_demos(
            &modular_victim,
            &scenario,
            &features,
            2,
            0,
            AttackBudget::new(1.0),
        );
        assert!(demos.len() > 50, "episodes should produce many steps");
        // Sample labels: at least some steps are attack-active (non-zero).
        let mut rng = StdRng::seed_from_u64(0);
        let (_, a) = demos.sample_batch(256, &mut rng);
        let active = a.data().iter().filter(|v| v.abs() > 0.5).count();
        assert!(active > 0, "oracle must be active in some sampled steps");
    }

    #[test]
    fn camera_bc_attacker_learns_to_collide() {
        // BC from the oracle alone (no SAC) should already produce side
        // collisions against the modular victim.
        let scenario = Scenario::default();
        let features = FeatureConfig::default();
        let config = AttackTrainConfig {
            bc_episodes: 10,
            bc_steps: 2500,
            sac_steps: 0,
            ..AttackTrainConfig::default()
        };
        let policy = train_camera_attacker(&modular_victim, &scenario, &features, &config);
        let (mean_adv, success) = evaluate_attack_policy(
            &policy,
            &modular_victim,
            &scenario,
            SensorKind::Camera,
            &features,
            &ImuConfig::default(),
            AttackBudget::new(1.0),
            10,
            500,
        );
        assert!(success >= 0.3, "success rate {success}");
        assert!(mean_adv > 0.0, "mean adversarial return {mean_adv}");
    }

    #[test]
    fn teacher_demos_align_with_imu_obs_dim() {
        let scenario = Scenario::default();
        let features = FeatureConfig::default();
        let imu = ImuConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = GaussianPolicy::new(features.observation_dim(), &[8], 1, &mut rng);
        let demos = collect_teacher_demos(
            &modular_victim,
            &teacher,
            &scenario,
            &features,
            &imu,
            1,
            0,
            AttackBudget::new(1.0),
        );
        assert!(!demos.is_empty());
        let (o, a) = demos.sample_batch(4, &mut rng);
        assert_eq!(o.cols(), imu.observation_dim());
        assert_eq!(a.cols(), 1);
    }
}
