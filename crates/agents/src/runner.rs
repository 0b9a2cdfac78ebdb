//! Episode runner: drives any [`Agent`] through a scenario, optionally with
//! a steering attacker in the loop, and records everything the metrics need.

use crate::reward::{RewardConfig, RewardShaper};
use crate::Agent;
use drive_sim::faults::FaultInjector;
use drive_sim::record::{EpisodeRecord, ATTACK_START_THRESHOLD};
use drive_sim::scenario::Scenario;
use drive_sim::vehicle::Actuation;
use drive_sim::world::{StepOutcome, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An attacker that perturbs the victim's steering variation each step.
///
/// Implementations live in `attack-core` (learned camera/IMU attackers,
/// the geometric oracle). The returned `delta` is *already scaled by the
/// attack budget*; the runner adds it to the victim's command and re-clamps
/// to the mechanical limit, exactly as Section IV-C specifies.
pub trait SteerAttacker {
    /// Called at episode start.
    fn reset(&mut self, world: &World);
    /// Returns the perturbation `delta_t` for the current state.
    fn delta(&mut self, world: &World) -> f64;
}

/// Per-episode bookkeeping: everything an [`EpisodeRecord`] holds,
/// filled one world step at a time. The serial runner and the lockstep
/// fleet (`attack_core::fleet`) both tally through it, so their records
/// agree by construction.
#[derive(Debug, Clone)]
pub struct EpisodeTally {
    shaper: RewardShaper,
    record: EpisodeRecord,
}

impl EpisodeTally {
    /// Starts the tally of the episode `world` is about to run: the
    /// reward shaper tracks the ego's starting lane.
    pub fn new(world: &World) -> Self {
        let mut shaper = RewardShaper::new(
            RewardConfig::default(),
            crate::behavior::BehaviorConfig::default(),
            world.scenario().road.lane_of(world.ego().pose.position.y),
        );
        shaper.reset(world);
        EpisodeTally {
            shaper,
            record: EpisodeRecord {
                dt: world.scenario().dt,
                ..EpisodeRecord::default()
            },
        }
    }

    /// Records one step: the post-step world, its outcome and the
    /// injected steering perturbation `delta`.
    pub fn step(&mut self, world: &World, outcome: &StepOutcome, delta: f64) {
        let reward = self.shaper.step(world, outcome);
        let record = &mut self.record;
        record.steps += 1;
        record.nominal_return += reward;
        record.deviation.push(self.shaper.last_deviation());
        record.perturbation.push(delta.abs());
        if delta.abs() > ATTACK_START_THRESHOLD && record.attack_start.is_none() {
            record.attack_start = Some(outcome.step);
        }
        record.passed = outcome.passed;
        record.collision = outcome.collision;
        record.termination = outcome.termination;
    }

    /// The finished record, with the world's non-finite command count and
    /// the episode's cumulative adversarial reward. Its per-step vectors
    /// are copied into allocations of exactly their length: a finished
    /// record is kept for the rest of its cell, and the growth slack of a
    /// short episode (175 steps in a 256-slot vector) would stay with it.
    /// `shrink_to_fit` in place leaves the freed tails scattered through
    /// the heap instead.
    pub fn finish(mut self, world: &World, adv_return: f64) -> EpisodeRecord {
        self.record.nonfinite_actions = world.nonfinite_action_count();
        self.record.adv_return = adv_return;
        self.record.deviation = self.record.deviation.as_slice().to_vec();
        self.record.perturbation = self.record.perturbation.as_slice().to_vec();
        self.record
    }
}

/// Runs one episode and returns its record.
///
/// `on_step` is invoked after every world step with the post-step world,
/// the outcome, and the injected perturbation.
pub fn run_episode(
    agent: &mut dyn Agent,
    scenario: &Scenario,
    seed: u64,
    attacker: Option<&mut dyn SteerAttacker>,
    mut on_step: impl FnMut(&World, &StepOutcome, f64),
) -> EpisodeRecord {
    run_episode_with_faults(
        agent,
        scenario,
        seed,
        attacker,
        None,
        |world, outcome, delta| {
            on_step(world, outcome, delta);
            0.0
        },
    )
}

/// Runs one episode with an optional actuation-side fault injector in the
/// loop: the perturbed command passes through
/// [`FaultInjector::corrupt_actuation`] before the simulator steps, so
/// stuck / dead-zone / delayed actuators act on exactly what the plant
/// would have received. The injector's step clock is advanced here — do
/// not share one injector instance between the runner and a sensor
/// wrapper.
///
/// `adv_reward` is invoked after every world step with the post-step
/// world, the outcome, and the injected perturbation; what it returns
/// sums into the record's `adv_return` (attack harnesses score the
/// adversarial reward there; observers return 0).
///
/// With `faults: None` (or a no-op schedule) this is bit-identical to
/// [`run_episode`].
pub fn run_episode_with_faults(
    agent: &mut dyn Agent,
    scenario: &Scenario,
    seed: u64,
    mut attacker: Option<&mut dyn SteerAttacker>,
    mut faults: Option<&mut FaultInjector>,
    mut adv_reward: impl FnMut(&World, &StepOutcome, f64) -> f64,
) -> EpisodeRecord {
    let episode_scenario = {
        let mut rng = StdRng::seed_from_u64(seed);
        scenario.jittered(&mut rng)
    };
    let mut world = World::new(episode_scenario);
    agent.reset(&world);
    if let Some(atk) = attacker.as_deref_mut() {
        atk.reset(&world);
    }
    let mut tally = EpisodeTally::new(&world);
    let mut adv_return = 0.0;

    while !world.is_done() {
        let nominal = agent.act(&world);
        let delta = match attacker.as_deref_mut() {
            Some(atk) => atk.delta(&world),
            None => 0.0,
        };
        let perturbed = Actuation::new(nominal.steer + delta, nominal.thrust);
        let realized = match faults.as_deref_mut() {
            Some(inj) => {
                inj.begin_step();
                inj.corrupt_actuation(perturbed)
            }
            None => perturbed,
        };
        let outcome = world.step(realized);
        tally.step(&world, &outcome, delta);
        adv_return += adv_reward(&world, &outcome, delta);
    }
    tally.finish(&world, adv_return)
}

/// Runs `episodes` episodes with seeds `base_seed..`, returning all records.
pub fn run_episodes(
    agent: &mut dyn Agent,
    scenario: &Scenario,
    episodes: usize,
    base_seed: u64,
) -> Vec<EpisodeRecord> {
    (0..episodes)
        .map(|e| run_episode(agent, scenario, base_seed + e as u64, None, |_, _, _| {}))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{ModularAgent, ModularConfig};
    use drive_sim::world::Termination;

    #[test]
    fn modular_agent_full_episode_record() {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let scenario = Scenario::default();
        let rec = run_episode(&mut agent, &scenario, 42, None, |_, _, _| {});
        assert_eq!(rec.steps, scenario.max_steps);
        assert_eq!(rec.termination, Some(Termination::TimeLimit));
        assert!(rec.collision.is_none());
        assert!(rec.nominal_return > 100.0, "return {}", rec.nominal_return);
        assert_eq!(rec.attack_start, None);
        assert_eq!(rec.attack_effort(), 0.0);
    }

    /// A finished record's per-step vectors hold no growth slack: a
    /// default-scenario episode is not a power-of-two number of steps.
    #[test]
    fn finished_record_vectors_are_exactly_sized() {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let rec = run_episode(&mut agent, &Scenario::default(), 42, None, |_, _, _| {});
        assert!(!rec.steps.is_power_of_two(), "{} steps", rec.steps);
        assert_eq!(rec.deviation.len(), rec.steps);
        assert_eq!(rec.deviation.capacity(), rec.deviation.len());
        assert_eq!(rec.perturbation.capacity(), rec.perturbation.len());
    }

    #[test]
    fn runner_is_deterministic_per_seed() {
        let scenario = Scenario::default();
        let mut a1 = ModularAgent::new(ModularConfig::default(), 1);
        let mut a2 = ModularAgent::new(ModularConfig::default(), 1);
        let r1 = run_episode(&mut a1, &scenario, 9, None, |_, _, _| {});
        let r2 = run_episode(&mut a2, &scenario, 9, None, |_, _, _| {});
        assert_eq!(r1, r2);
    }

    #[test]
    fn constant_attacker_is_recorded() {
        struct Push(f64);
        impl SteerAttacker for Push {
            fn reset(&mut self, _world: &World) {}
            fn delta(&mut self, _world: &World) -> f64 {
                self.0
            }
        }
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let scenario = Scenario::default();
        let mut atk = Push(0.3);
        let mut steps_seen = 0;
        let rec = run_episode(&mut agent, &scenario, 1, Some(&mut atk), |_, _, d| {
            assert_eq!(d, 0.3);
            steps_seen += 1;
        });
        assert_eq!(rec.attack_start, Some(0));
        assert!((rec.attack_effort() - 0.3).abs() < 1e-12);
        assert_eq!(steps_seen, rec.steps);
    }

    #[test]
    fn noop_faults_leave_episode_bit_identical() {
        use drive_sim::faults::{FaultInjector, FaultSchedule};
        let scenario = Scenario::default();
        let mut a1 = ModularAgent::new(ModularConfig::default(), 1);
        let mut a2 = ModularAgent::new(ModularConfig::default(), 1);
        let clean = run_episode(&mut a1, &scenario, 5, None, |_, _, _| {});
        let mut inj = FaultInjector::new(&FaultSchedule::benign(0.0, 123));
        let faulted =
            run_episode_with_faults(&mut a2, &scenario, 5, None, Some(&mut inj), |_, _, _| 0.0);
        assert_eq!(clean, faulted);
    }

    #[test]
    fn faulted_episodes_are_deterministic_per_seed() {
        use drive_sim::faults::{FaultInjector, FaultSchedule};
        let scenario = Scenario::default();
        let schedule = FaultSchedule::benign(1.0, 77);
        let mut a1 = ModularAgent::new(ModularConfig::default(), 1);
        let mut a2 = ModularAgent::new(ModularConfig::default(), 1);
        let mut i1 = FaultInjector::for_episode(&schedule, 9);
        let mut i2 = FaultInjector::for_episode(&schedule, 9);
        let r1 = run_episode_with_faults(&mut a1, &scenario, 9, None, Some(&mut i1), |_, _, _| 0.0);
        let r2 = run_episode_with_faults(&mut a2, &scenario, 9, None, Some(&mut i2), |_, _, _| 0.0);
        assert_eq!(r1, r2);
    }

    #[test]
    fn run_episodes_returns_one_record_each() {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let recs = run_episodes(&mut agent, &Scenario::default(), 3, 100);
        assert_eq!(recs.len(), 3);
        // Different seeds → different jitter → (almost surely) different returns.
        assert!(recs[0] != recs[1] || recs[1] != recs[2]);
    }
}
