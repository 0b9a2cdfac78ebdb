//! Driving-agent enhancement (Section VI): adversarial training via
//! fine-tuning and Progressive Neural Networks behind a Simplex switcher.
//!
//! Both defenses continue SAC training of the end-to-end victim while a
//! (frozen) camera attacker perturbs its steering. Episodes sample an
//! attack budget from the Section VI-A grid; `rho` controls the share of
//! nominal (zero-budget) episodes:
//!
//! * fine-tuning (`pi_adv_rho`): updates the policy weights in place —
//!   effective under attack but subject to catastrophic forgetting;
//! * PNN (`pi_pnn_sigma`): trains a fresh lateral-connected column while
//!   the original weights stay frozen; at deployment a Simplex-style
//!   switcher picks the original policy for `epsilon <= sigma` and the
//!   hardened column otherwise (idealized budget-aware switcher, as in the
//!   paper).

use crate::budget::AttackBudget;
use crate::fleet::FleetVictim;
use crate::learned::LearnedAttacker;
use crate::sensor::AttackerSensor;
use drive_agents::driving_env::DrivingEnv;
use drive_agents::e2e::Policy;
use drive_agents::runner::SteerAttacker;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::PnnPolicy;
use drive_nn::scratch::ActScratch;
use drive_rl::actor::Actor;
use drive_rl::env::Env;
use drive_rl::sac::{Sac, SacConfig};
use drive_rl::train::{refine, Schedule};
use drive_seed::SeedTree;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::FeatureConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of adversarial training (both defenses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseTrainConfig {
    /// Share of nominal (zero-budget) episodes, `rho` (e.g. `1/11`, `1/2`).
    pub rho: f64,
    /// SAC environment steps.
    pub sac_steps: usize,
    /// Gradient updates happen every this many environment steps.
    pub update_every: usize,
    /// Hidden sizes for the fresh critics.
    pub hidden: Vec<usize>,
    /// Updates during which only the critics train (protects the
    /// pre-trained policy from fresh-critic gradients).
    pub actor_delay: usize,
    /// Evaluation episodes per checkpoint.
    pub eval_episodes: usize,
    /// Checkpoint / evaluation period in environment steps (0 disables
    /// selection and returns the final weights).
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for DefenseTrainConfig {
    fn default() -> Self {
        DefenseTrainConfig {
            rho: 1.0 / 11.0,
            sac_steps: 25_000,
            update_every: 2,
            hidden: vec![128, 128],
            actor_delay: 1500,
            eval_episodes: 3,
            eval_every: 5_000,
            seed: 0,
        }
    }
}

/// Samples a per-episode training budget: zero with probability `rho`,
/// otherwise uniform over `{0.1, ..., 1.0}` (Section VI-A).
pub fn sample_training_budget<R: Rng>(rho: f64, rng: &mut R) -> AttackBudget {
    if rng.gen::<f64>() < rho {
        AttackBudget::ZERO
    } else {
        let grid = AttackBudget::training_grid();
        // Skip the zero entry.
        grid[rng.gen_range(1..grid.len())]
    }
}

/// Runs adversarial SAC training of `actor` (any [`Actor`]) against the
/// given camera attack policy, returning the trained actor.
fn adversarial_train<A: Actor + Clone + Sync>(
    stage: &str,
    actor: A,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> A {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("finetune").seed());
    let sac_config = SacConfig {
        init_alpha: 0.01,
        actor_lr: 1e-4,
        actor_delay: config.actor_delay,
        batch_size: 128,
        ..SacConfig::default()
    };
    let sac = Sac::with_actor(actor, &config.hidden, sac_config, &mut rng);
    let mut env = DrivingEnv::new(scenario.clone(), features.clone());
    let mut budget_rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("budget").seed());
    // The attacker is frozen for the whole run: pack it once, clone per
    // episode.
    let attacker = BatchPolicy::from(attacker_policy.clone());
    let arm_episode = |env: &mut DrivingEnv, seed: u64| {
        let budget = sample_training_budget(config.rho, &mut budget_rng);
        arm_and_reset(env, &attacker, scenario, features, budget, seed)
    };
    let schedule = Schedule {
        stage,
        steps: config.sac_steps,
        update_every: config.update_every,
        eval_every: config.eval_every,
        first_episode: config.seed.wrapping_mul(31337) + 1,
        snapshots: None,
    };
    let eval = |a: &A| eval_actor(a, &attacker, scenario, features, config);
    refine(sac, &mut env, rng, &schedule, arm_episode, eval).actor
}

/// Arms `env` with the frozen camera attacker at `budget` (disarms it at
/// zero budget) and resets it into episode `seed`.
fn arm_and_reset(
    env: &mut DrivingEnv,
    attacker: &BatchPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    budget: AttackBudget,
    seed: u64,
) -> Vec<f32> {
    if budget.is_zero() {
        env.set_attack(None);
    } else {
        let sensor = AttackerSensor::camera(features.clone());
        let mut attacker = LearnedAttacker::new(attacker.clone(), sensor, budget, seed, true);
        attacker.reset(&drive_sim::world::World::new(scenario.clone()));
        env.set_attack(Some(Box::new(move |w| attacker.delta(w))));
    }
    env.reset(seed)
}

/// Checkpoint-selection metric: mean nominal driving return across the
/// evaluation budgets, weighted by the training mixture (the zero-budget
/// cell carries weight `rho`, the attacked cells share `1 - rho`).
fn eval_actor<A: Actor + Clone + Sync>(
    actor: &A,
    attacker: &BatchPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> f64 {
    let eval_budgets = [0.0, 0.25, 0.5, 0.75, 1.0];
    // The budget cells are independent: each gets a fresh environment and
    // attacker, and the actor acts deterministically (its per-cell RNG is
    // never drawn), so evaluating them in parallel is output-identical to
    // the serial loop. `par_map` keeps the means budget-ordered.
    let means = drive_par::par_map(&eval_budgets, |_, &eps| {
        let mut rng =
            StdRng::seed_from_u64(SeedTree::root(config.seed).child("pnn-dataset").seed());
        let budget = AttackBudget::new(eps);
        let mut env = DrivingEnv::new(scenario.clone(), features.clone());
        let mut scratch = ActScratch::default();
        let mut total = 0.0;
        for e in 0..config.eval_episodes {
            let seed = 40_000 + config.seed + e as u64;
            let mut obs = arm_and_reset(&mut env, attacker, scenario, features, budget, seed);
            loop {
                let a = actor.act_with(&obs, &mut rng, true, &mut scratch);
                let s = env.step(a);
                total += s.reward as f64;
                let finished = s.finished();
                obs = s.obs;
                if finished {
                    break;
                }
            }
        }
        total / config.eval_episodes.max(1) as f64
    });
    let mut score = 0.0;
    for (&eps, mean) in eval_budgets.iter().zip(means) {
        let weight = if eps == 0.0 {
            config.rho
        } else {
            (1.0 - config.rho) / (eval_budgets.len() - 1) as f64
        };
        score += weight * mean;
    }
    score
}

/// Adversarial training via fine-tuning: returns `pi_adv_rho`, a copy of
/// the original policy whose weights were updated under attack.
pub fn adversarial_finetune(
    original: &GaussianPolicy,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> GaussianPolicy {
    adversarial_train(
        &format!("adv_finetune(rho={:.3})", config.rho),
        original.clone(),
        attacker_policy,
        scenario,
        features,
        config,
    )
}

/// PNN enhancement: freezes the original policy as column 1 and trains a
/// lateral-connected column 2 under attack. Returns the two-column policy;
/// pair it with a [`SimplexSwitcher`] for deployment.
pub fn train_pnn_defense(
    original: &GaussianPolicy,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> PnnPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("pnn-sac").seed());
    let pnn = PnnPolicy::new(original.clone(), &mut rng);
    adversarial_train("pnn", pnn, attacker_policy, scenario, features, config)
}

/// The Simplex-style switcher of Section VI-B: an idealized budget-aware
/// selector between the original column (small/no attack) and the hardened
/// column (large attack). Both columns run through pre-packed weights.
#[derive(Debug, Clone)]
pub struct SimplexSwitcher {
    pnn: Arc<PnnPolicy>,
    /// Switching threshold `sigma`.
    pub sigma: f64,
    /// The attack budget the switcher believes is active (idealized
    /// knowledge, as the paper assumes; practical proxies are discussed in
    /// Section VI-B).
    pub epsilon: f64,
}

impl SimplexSwitcher {
    /// Wraps a trained PNN with threshold `sigma`, believing budget
    /// `epsilon` is active. Wrap the PNN in one `Arc` and hand each
    /// switcher a clone; clones share the packed weights.
    pub fn new(pnn: Arc<PnnPolicy>, sigma: f64, epsilon: f64) -> Self {
        SimplexSwitcher {
            pnn,
            sigma,
            epsilon,
        }
    }

    /// The column a switcher with threshold `sigma` acts through while
    /// it believes budget `epsilon` is active: the hardened column when
    /// `epsilon > sigma`, the frozen base column otherwise. The choice is
    /// fixed for a whole evaluation cell, so the fleet steps it too.
    pub fn column(pnn: &PnnPolicy, sigma: f64, epsilon: f64) -> FleetVictim<'_> {
        if epsilon > sigma {
            FleetVictim::Pnn(pnn)
        } else {
            FleetVictim::Gaussian(pnn.base())
        }
    }
}

impl Policy for SimplexSwitcher {
    fn obs_dim(&self) -> usize {
        self.pnn.obs_dim()
    }
    fn action_dim(&self) -> usize {
        self.pnn.action_dim()
    }
    fn action_into(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &mut ActScratch,
        out: &mut Vec<f32>,
    ) {
        let action = match Self::column(&self.pnn, self.sigma, self.epsilon) {
            FleetVictim::Pnn(pnn) => pnn.act_with(obs, rng, deterministic, scratch),
            FleetVictim::Gaussian(base) => base.act_with(obs, rng, deterministic, scratch),
        };
        out.clear();
        out.extend_from_slice(action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PNN whose column and laterals are all fresh random draws from
    /// `rng`, column first: unlike `PnnPolicy::new`'s, its laterals are
    /// non-zero.
    fn random_pnn<R: rand::Rng>(base: GaussianPolicy, rng: &mut R) -> PnnPolicy {
        let layers = base.trunk().layers();
        let column = layers
            .iter()
            .map(|l| drive_nn::linear::Linear::new(l.in_dim(), l.out_dim(), rng))
            .collect();
        let laterals = layers
            .windows(2)
            .map(|w| drive_nn::linear::Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
    }

    #[test]
    fn budget_sampler_respects_rho() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 4000;
        let zeros = (0..n)
            .filter(|_| sample_training_budget(0.5, &mut rng).is_zero())
            .count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
        // rho = 0 never yields zero budgets; all within (0, 1].
        for _ in 0..100 {
            let b = sample_training_budget(0.0, &mut rng);
            assert!(b.epsilon() > 0.05 && b.epsilon() <= 1.0);
        }
    }

    #[test]
    fn switcher_picks_columns_by_threshold() {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = FeatureConfig::default().observation_dim();
        let base = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let pnn = Arc::new(random_pnn(base.clone(), &mut rng));
        let obs = vec![0.1f32; dim];

        let low = SimplexSwitcher::new(pnn.clone(), 0.4, 0.2);
        assert!(matches!(
            SimplexSwitcher::column(&pnn, 0.4, 0.2),
            FleetVictim::Gaussian(p) if std::ptr::eq(p, pnn.base())
        ));
        assert!(matches!(
            SimplexSwitcher::column(&pnn, 0.4, 0.4),
            FleetVictim::Gaussian(_)
        ));
        let a_low = low.action(&obs, &mut StdRng::seed_from_u64(0), true);
        let a_base = base.act(&obs, &mut StdRng::seed_from_u64(0), true);
        assert_eq!(a_low, a_base, "below threshold the base column acts");

        assert!(matches!(
            SimplexSwitcher::column(&pnn, 0.4, 0.8),
            FleetVictim::Pnn(p) if std::ptr::eq(p, &*pnn)
        ));
        let high = SimplexSwitcher::new(pnn, 0.4, 0.8);
        let a_high = high.action(&obs, &mut StdRng::seed_from_u64(0), true);
        assert_ne!(a_high, a_base, "above threshold the hardened column acts");
    }

    #[test]
    fn short_finetune_runs_end_to_end() {
        // Smoke test with tiny budgets: exercises the attacked-episode
        // arming, the SAC loop, and returns a same-shaped policy.
        let mut rng = StdRng::seed_from_u64(2);
        let features = FeatureConfig::default();
        let dim = features.observation_dim();
        let original = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let attacker = GaussianPolicy::new(dim, &[16], 1, &mut rng);
        let config = DefenseTrainConfig {
            sac_steps: 1200,
            hidden: vec![16],
            ..DefenseTrainConfig::default()
        };
        let tuned = adversarial_finetune(
            &original,
            &attacker,
            &Scenario::default(),
            &features,
            &config,
        );
        assert_eq!(tuned.obs_dim(), dim);
        assert_eq!(tuned.action_dim(), 2);
    }

    #[test]
    fn short_pnn_training_keeps_base_frozen() {
        let mut rng = StdRng::seed_from_u64(3);
        let features = FeatureConfig::default();
        let dim = features.observation_dim();
        let original = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let attacker = GaussianPolicy::new(dim, &[16], 1, &mut rng);
        let config = DefenseTrainConfig {
            rho: 0.0,
            sac_steps: 1200,
            hidden: vec![16],
            ..DefenseTrainConfig::default()
        };
        let pnn = train_pnn_defense(
            &original,
            &attacker,
            &Scenario::default(),
            &features,
            &config,
        );
        // Column 1 must still be the original policy, bit for bit.
        let obs = drive_nn::mat::Mat::from_row(&vec![0.2f32; dim]);
        assert_eq!(pnn.base().mean_action(&obs), original.mean_action(&obs));
    }
}
