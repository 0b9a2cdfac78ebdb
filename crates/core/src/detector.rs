//! Perturbation detection — the practical switcher the paper sketches.
//!
//! Section VI-B's PNN switcher makes "an idealized assumption that the
//! switcher is aware of the attack budget"; the paper suggests that "in
//! practice, the switcher can use ... the magnitude of a detected
//! perturbation" as a proxy, and the conclusion calls a detection-capable
//! simplex agent "desirable". This module implements that future-work item.
//!
//! The detector exploits the actuator model the vehicle already knows: the
//! realized steering follows Eq. (1),
//! `a_t = (1 - alpha) * (nu_t + delta_t) + alpha * a_{t-1}`, and a steering
//! angle sensor reads back `a_t`. Inverting,
//!
//! ```text
//! delta_hat_t = (a_t - alpha * a_{t-1}) / (1 - alpha) - nu_t
//! ```
//!
//! A rolling upper quantile of `|delta_hat|` then estimates the active
//! attack budget, which drives a [`DetectorSimplexAgent`] — the same PNN
//! switcher, but fed by detection instead of ground truth.

use crate::budget::AttackBudget;
use drive_agents::Agent;
use drive_nn::pnn::PackedPnn;
use drive_nn::scratch::ActScratch;
use drive_sim::faults::FaultInjector;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the residual-based perturbation detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The Eq. (1) steering retain rate `alpha` (must match the plant).
    pub alpha: f64,
    /// Rolling window length, steps.
    pub window: usize,
    /// Quantile of `|delta_hat|` reported as the budget estimate.
    pub quantile: f64,
    /// Residuals below this are treated as sensor noise.
    pub noise_floor: f64,
    /// Once the hardened column engages, keep it engaged for the rest of
    /// the episode. Without latching, a burst attacker can wait out the
    /// rolling window and strike the fragile base policy again.
    pub latching: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            alpha: drive_sim::vehicle::VehicleParams::default().alpha,
            window: 30,
            quantile: 0.9,
            noise_floor: 0.02,
            latching: true,
        }
    }
}

/// Residual-based estimator of the injected steering perturbation.
#[derive(Debug, Clone)]
pub struct PerturbationDetector {
    config: DetectorConfig,
    residuals: VecDeque<f64>,
}

impl PerturbationDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        PerturbationDetector {
            residuals: VecDeque::with_capacity(config.window),
            config,
        }
    }

    /// Clears the rolling window (call at episode start).
    pub fn reset(&mut self) {
        self.residuals.clear();
    }

    /// Feeds one step: the command `nu` the agent issued, the realized
    /// steering before (`a_prev`) and after (`a_now`) that step. Returns
    /// the residual estimate `delta_hat` for the step.
    pub fn observe(&mut self, nu: f64, a_prev: f64, a_now: f64) -> f64 {
        let alpha = self.config.alpha;
        let mut delta_hat = (a_now - alpha * a_prev) / (1.0 - alpha) - nu;
        if delta_hat.abs() < self.config.noise_floor {
            delta_hat = 0.0;
        }
        if self.residuals.len() == self.config.window {
            self.residuals.pop_front();
        }
        self.residuals.push_back(delta_hat.abs());
        delta_hat
    }

    /// The estimated active attack budget: the configured quantile of
    /// recent `|delta_hat|` values (0 before any observation).
    pub fn estimated_budget(&self) -> f64 {
        if self.residuals.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self.residuals.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let pos = (self.config.quantile * (sorted.len() - 1) as f64).round() as usize;
        sorted[pos.min(sorted.len() - 1)]
    }
}

/// The practical PNN simplex agent: switches to the hardened column when
/// the *detected* perturbation exceeds `sigma`. Both columns run through
/// pre-packed weights.
#[derive(Debug, Clone)]
pub struct DetectorSimplexAgent {
    pnn: PackedPnn,
    scratch: ActScratch,
    /// Switching threshold on the detected budget.
    pub sigma: f64,
    detector: PerturbationDetector,
    extractor: FeatureExtractor,
    rng: StdRng,
    last_command: Option<f64>,
    last_realized: f64,
    hardened_steps: usize,
    total_steps: usize,
    latched: bool,
    config: DetectorConfig,
    obs_faults: Option<FaultInjector>,
}

impl DetectorSimplexAgent {
    /// Wraps a trained PNN with threshold `sigma` and a fresh detector.
    /// Pack the PNN once (`PackedPnn::from`) and hand each agent a clone;
    /// clones share the pack.
    pub fn new(
        pnn: PackedPnn,
        sigma: f64,
        features: FeatureConfig,
        detector: DetectorConfig,
        seed: u64,
    ) -> Self {
        DetectorSimplexAgent {
            pnn,
            scratch: ActScratch::default(),
            sigma,
            detector: PerturbationDetector::new(detector),
            extractor: FeatureExtractor::new(features),
            rng: StdRng::seed_from_u64(seed),
            last_command: None,
            last_realized: 0.0,
            hardened_steps: 0,
            total_steps: 0,
            latched: false,
            config: detector,
            obs_faults: None,
        }
    }

    /// Routes every observation through a sensor-side fault injector
    /// (camera freeze / dropout / NaN poisoning). The injector's step
    /// clock is advanced by this agent — do not share the instance with
    /// the actuation-side runner injector.
    pub fn with_observation_faults(mut self, injector: FaultInjector) -> Self {
        self.obs_faults = Some(injector);
        self
    }

    /// Fraction of steps driven by the hardened column so far.
    pub fn hardened_fraction(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.hardened_steps as f64 / self.total_steps as f64
        }
    }

    /// Current budget estimate.
    pub fn estimated_budget(&self) -> f64 {
        self.detector.estimated_budget()
    }
}

impl Agent for DetectorSimplexAgent {
    fn reset(&mut self, _world: &World) {
        self.detector.reset();
        self.extractor.reset();
        self.last_command = None;
        self.last_realized = 0.0;
        self.hardened_steps = 0;
        self.total_steps = 0;
        self.latched = false;
        if let Some(inj) = self.obs_faults.as_mut() {
            inj.reset();
        }
    }

    fn act(&mut self, world: &World) -> Actuation {
        // Close the loop on the previous step: what did our command turn
        // into after the (possibly attacked) actuator smoothing?
        let realized = world.ego().actuation.steer;
        if let Some(nu) = self.last_command.take() {
            self.detector.observe(nu, self.last_realized, realized);
        }
        self.last_realized = realized;

        let mut obs = self.extractor.observe(world);
        if let Some(inj) = self.obs_faults.as_mut() {
            inj.begin_step();
            inj.corrupt_observation(&mut obs);
        }
        let detected = self.detector.estimated_budget() > self.sigma;
        let hardened = detected || self.latched;
        if detected && self.config.latching {
            self.latched = true;
        }
        self.total_steps += 1;
        if hardened {
            self.hardened_steps += 1;
        }
        let a = if hardened {
            self.pnn
                .act_with(&obs, &mut self.rng, true, &mut self.scratch)
        } else {
            self.pnn
                .act_base_with(&obs, &mut self.rng, true, &mut self.scratch)
        };
        let actuation = Actuation::new(a[0] as f64, a[1] as f64);
        self.last_command = Some(actuation.steer);
        actuation
    }
}

/// Ground-truth-budget switching as a policy is provided by
/// [`crate::defense::SimplexSwitcher`]; this free function estimates how
/// often a detector-driven switcher would agree with it over one attacked
/// episode, for diagnostics.
pub fn detection_agreement(
    detected: &DetectorSimplexAgent,
    true_budget: AttackBudget,
    sigma: f64,
) -> bool {
    (detected.estimated_budget() > sigma) == (true_budget.epsilon() > sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv_reward::AdvReward;
    use crate::budget::AttackBudget;
    use crate::eval::run_attacked_episode;
    use drive_nn::gaussian::GaussianPolicy;
    use drive_nn::pnn::PnnPolicy;
    use drive_sim::scenario::Scenario;

    #[test]
    fn residual_recovers_injected_delta_exactly() {
        // Simulate Eq. (1) by hand with a known delta and check recovery.
        let config = DetectorConfig {
            noise_floor: 0.0,
            ..DetectorConfig::default()
        };
        let mut det = PerturbationDetector::new(config);
        let alpha = config.alpha;
        let mut a = 0.0;
        for step in 0..20 {
            let nu = 0.3;
            let delta = if step >= 10 { 0.5 } else { 0.0 };
            let a_next = (1.0 - alpha) * (nu + delta) + alpha * a;
            let est = det.observe(nu, a, a_next);
            assert!((est - delta).abs() < 1e-9, "step {step}: {est} vs {delta}");
            a = a_next;
        }
        assert!((det.estimated_budget() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_suppresses_small_residuals() {
        let mut det = PerturbationDetector::new(DetectorConfig::default());
        let alpha = DetectorConfig::default().alpha;
        let a_next = (1.0 - alpha) * (0.3 + 0.005) + alpha * 0.0;
        let est = det.observe(0.3, 0.0, a_next);
        assert_eq!(est, 0.0);
        assert_eq!(det.estimated_budget(), 0.0);
    }

    struct ConstantPush(f64);

    impl drive_agents::runner::SteerAttacker for ConstantPush {
        fn reset(&mut self, _world: &drive_sim::world::World) {}
        fn delta(&mut self, _world: &drive_sim::world::World) -> f64 {
            self.0
        }
    }

    #[test]
    fn detector_agent_detects_steering_injection() {
        let mut rng = StdRng::seed_from_u64(0);
        let features = FeatureConfig::default();
        let base = GaussianPolicy::new(features.observation_dim(), &[16], 2, &mut rng);
        let pnn = PackedPnn::from(PnnPolicy::new(base, &mut rng));
        let scenario = Scenario::default();
        let adv = AdvReward::default();

        // Attacked episode: the detector must see a substantial budget.
        let mut agent = DetectorSimplexAgent::new(
            pnn.clone(),
            0.2,
            features.clone(),
            DetectorConfig::default(),
            1,
        );
        let mut push = ConstantPush(0.8);
        let _ = run_attacked_episode(&mut agent, Some(&mut push), &adv, &scenario, 3);
        assert!(
            agent.estimated_budget() > 0.3,
            "estimated {}",
            agent.estimated_budget()
        );
        assert!(agent.hardened_fraction() > 0.0);

        // Nominal episode: (almost) no detection.
        let mut clean = DetectorSimplexAgent::new(pnn, 0.2, features, DetectorConfig::default(), 1);
        let _ = run_attacked_episode(&mut clean, None, &adv, &scenario, 3);
        assert!(
            clean.estimated_budget() < 0.1,
            "estimated {} on clean episode",
            clean.estimated_budget()
        );
    }

    #[test]
    fn observation_faults_do_not_break_the_agent() {
        use drive_sim::faults::{FaultInjector, FaultSchedule};
        let mut rng = StdRng::seed_from_u64(0);
        let features = FeatureConfig::default();
        let base = GaussianPolicy::new(features.observation_dim(), &[8], 2, &mut rng);
        let pnn = PackedPnn::from(PnnPolicy::new(base, &mut rng));
        // NaN-poisoned observations: the drive-nn input guard must keep
        // the policy output finite and the episode must complete.
        let mut agent = DetectorSimplexAgent::new(pnn, 0.2, features, DetectorConfig::default(), 2)
            .with_observation_faults(FaultInjector::new(&FaultSchedule::poisoned(0.5, 31)));
        let adv = AdvReward::default();
        let rec = run_attacked_episode(&mut agent, None, &adv, &Scenario::default(), 5);
        assert!(rec.steps > 0);
        assert!(rec.nominal_return.is_finite());
        assert_eq!(rec.nonfinite_actions, 0, "policy output stayed finite");
    }

    #[test]
    fn agreement_helper() {
        let mut rng = StdRng::seed_from_u64(0);
        let features = FeatureConfig::default();
        let base = GaussianPolicy::new(features.observation_dim(), &[8], 2, &mut rng);
        let pnn = PackedPnn::from(PnnPolicy::new(base, &mut rng));
        let agent = DetectorSimplexAgent::new(pnn, 0.2, features, DetectorConfig::default(), 0);
        // Fresh agent estimates 0: agrees with a zero-budget truth.
        assert!(detection_agreement(&agent, AttackBudget::ZERO, 0.2));
        assert!(!detection_agreement(&agent, AttackBudget::new(1.0), 0.2));
    }
}
