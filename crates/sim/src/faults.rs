//! Seeded, deterministic fault injection for sensors and actuation.
//!
//! Real deployments of the paper's victim agents see hardware faults that
//! are *not* adversarial: camera frames freeze or drop, IMUs glitch with
//! noise bursts and bias steps, actuators stick, develop dead-zones, or
//! lag. A robustness evaluation of the §VII perturbation detector has to
//! distinguish those benign faults (which should **not** trip the
//! detector) from learned action-space attacks (which should). This module
//! provides that benign-fault layer.
//!
//! Everything is driven by an explicit [`FaultSchedule`] plus a seed: the
//! same `(schedule, seed)` pair produces bit-identical fault activations
//! and corruptions, so faulted episodes are as reproducible as clean ones.
//! A schedule with all rates at zero is a byte-identical no-op — the
//! injector draws from its *own* RNG stream, never from the episode's.
//!
//! Layering:
//!
//! * [`FaultInjector`] is the stateful core: per-step activation rolls,
//!   duration counters, a frozen-frame cache, an actuation delay queue.
//! * Actuation faults are applied by the episode runner (see
//!   `drive-agents::runner::run_episode_with_faults`), which calls
//!   [`FaultInjector::begin_step`] once per control step and routes the
//!   perturbed command through [`FaultInjector::corrupt_actuation`]
//!   before `World::step`.

use crate::vehicle::Actuation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The kinds of benign fault the layer can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Camera frame freeze: observations repeat the last pre-fault frame.
    CameraFreeze,
    /// Camera dropout: observations read all-zero (no signal).
    CameraDropout,
    /// Poisoned observation: a random subset of entries become NaN.
    ObsNan,
    /// IMU noise burst. No IMU read passes through the injector, so it
    /// only activates and counts; benign schedules keep it so that their
    /// activation rolls, and hence the RNG stream, stay as they are.
    ImuNoiseBurst,
    /// IMU bias step; activates and counts only, like
    /// [`FaultKind::ImuNoiseBurst`].
    ImuBiasStep,
    /// Actuator stuck-at: the command latched at activation is replayed.
    ActuatorStuck,
    /// Actuator dead-zone: channels with magnitude below `magnitude`
    /// snap to zero.
    ActuatorDeadZone,
    /// Actuator delay: commands are served `magnitude` steps late
    /// (zero-hold until the queue fills).
    ActuatorDelay,
}

/// One injectable fault: what, how often, how long, how strong.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Which fault.
    pub kind: FaultKind,
    /// Per-step activation probability while inactive (0 disables).
    pub rate: f64,
    /// Steps a single activation lasts (min 1).
    pub duration: usize,
    /// Kind-specific strength (noise std, bias, dead-zone width, delay
    /// steps, NaN fraction). Unused by freeze / dropout / stuck.
    pub magnitude: f64,
}

impl FaultSpec {
    /// Creates a spec.
    pub fn new(kind: FaultKind, rate: f64, duration: usize, magnitude: f64) -> Self {
        Self {
            kind,
            rate,
            duration: duration.max(1),
            magnitude,
        }
    }
}

/// A seeded set of fault specs — the full description of what can go
/// wrong in an episode. Identical schedules (same seed, same specs)
/// reproduce identical fault traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Base seed for the injector's private RNG stream.
    pub seed: u64,
    /// The faults that may activate.
    pub specs: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// A schedule that never injects anything.
    pub fn none() -> Self {
        Self {
            seed: 0,
            specs: Vec::new(),
        }
    }

    /// The canonical benign-fault mix used by the robustness ablation,
    /// with all activation rates scaled by `intensity` (0 ⇒ no-op,
    /// 1 ⇒ a visibly degraded but usually drivable episode).
    pub fn benign(intensity: f64, seed: u64) -> Self {
        let i = intensity.max(0.0);
        Self {
            seed,
            specs: vec![
                FaultSpec::new(FaultKind::CameraFreeze, 0.010 * i, 5, 0.0),
                FaultSpec::new(FaultKind::CameraDropout, 0.010 * i, 2, 0.0),
                FaultSpec::new(FaultKind::ImuNoiseBurst, 0.020 * i, 10, 0.5),
                FaultSpec::new(FaultKind::ImuBiasStep, 0.005 * i, 40, 0.3),
                FaultSpec::new(FaultKind::ActuatorStuck, 0.005 * i, 3, 0.0),
                FaultSpec::new(FaultKind::ActuatorDeadZone, 0.010 * i, 10, 0.05),
                FaultSpec::new(FaultKind::ActuatorDelay, 0.005 * i, 8, 1.0),
            ],
        }
    }

    /// A schedule that poisons observations with NaN — used to exercise
    /// the numeric guards downstream, not part of the benign mix.
    pub fn poisoned(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            specs: vec![FaultSpec::new(FaultKind::ObsNan, rate, 2, 0.25)],
        }
    }

    /// True when no spec can ever activate.
    pub fn is_noop(&self) -> bool {
        self.specs.iter().all(|s| s.rate <= 0.0)
    }
}

/// Counters describing what an injector actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Fault activations (a fault turning on counts once, however long
    /// it stays active).
    pub activations: usize,
    /// Steps on which at least one fault was active.
    pub faulted_steps: usize,
    /// Individual observation / IMU / actuation values altered.
    pub corrupted_values: usize,
}

/// Stateful fault injector for one episode.
///
/// Call [`FaultInjector::begin_step`] exactly once per control step, then
/// any of the `corrupt_*` methods for the data flowing through that step.
/// The injector owns a private RNG, so a schedule with zero rates leaves
/// every byte of episode data untouched.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    seed: u64,
    rng: StdRng,
    /// Steps each spec remains active (0 = inactive).
    remaining: Vec<usize>,
    frozen_frame: Option<Vec<f32>>,
    stuck_at: Option<Actuation>,
    delay_queue: VecDeque<Actuation>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector from a schedule.
    pub fn new(schedule: &FaultSchedule) -> Self {
        Self::with_seed(schedule, schedule.seed)
    }

    /// Builds an injector whose stream also depends on an episode seed,
    /// so batches of episodes see independent (but reproducible) fault
    /// timings.
    pub fn for_episode(schedule: &FaultSchedule, episode_seed: u64) -> Self {
        // Full SplitMix64 finalizer (shared via drive-seed) keeps nearby
        // episode seeds decorrelated from each other and from the
        // schedule's own stream.
        let mixed = drive_seed::splitmix64(schedule.seed ^ drive_seed::splitmix64(episode_seed));
        Self::with_seed(schedule, mixed)
    }

    fn with_seed(schedule: &FaultSchedule, seed: u64) -> Self {
        Self {
            specs: schedule.specs.clone(),
            seed,
            rng: StdRng::seed_from_u64(seed),
            remaining: vec![0; schedule.specs.len()],
            frozen_frame: None,
            stuck_at: None,
            delay_queue: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// Restores the injector to its start-of-episode state (same stream).
    pub fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.remaining.iter_mut().for_each(|r| *r = 0);
        self.frozen_frame = None;
        self.stuck_at = None;
        self.delay_queue.clear();
        self.stats = FaultStats::default();
    }

    /// Advances fault timers and rolls new activations. Call once per
    /// control step, before any `corrupt_*` call for that step.
    pub fn begin_step(&mut self) {
        for (i, spec) in self.specs.iter().enumerate() {
            if self.remaining[i] > 0 {
                self.remaining[i] -= 1;
            }
            if self.remaining[i] == 0 && spec.rate > 0.0 && self.rng.gen_bool(spec.rate.min(1.0)) {
                self.remaining[i] = spec.duration.max(1);
                self.stats.activations += 1;
            }
        }
        if self.remaining.iter().any(|&r| r > 0) {
            self.stats.faulted_steps += 1;
        }
    }

    fn active(&self, kind: FaultKind) -> Option<FaultSpec> {
        self.specs
            .iter()
            .zip(&self.remaining)
            .find(|(s, &r)| s.kind == kind && r > 0)
            .map(|(s, _)| *s)
    }

    /// What the injector has done so far this episode.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Applies camera-class faults (freeze, dropout, NaN poisoning) to a
    /// rendered frame or stacked observation, in place.
    pub fn corrupt_observation(&mut self, obs: &mut [f32]) {
        if self.active(FaultKind::CameraFreeze).is_some() {
            match &self.frozen_frame {
                Some(f) if f.len() == obs.len() => {
                    let changed = obs.iter().zip(f).filter(|(a, b)| a != b).count();
                    obs.copy_from_slice(f);
                    self.stats.corrupted_values += changed;
                }
                // Freeze activated before any frame was cached: latch the
                // current frame so the rest of the burst repeats it.
                _ => self.frozen_frame = Some(obs.to_vec()),
            }
        } else {
            self.frozen_frame = Some(obs.to_vec());
        }
        if self.active(FaultKind::CameraDropout).is_some() {
            self.stats.corrupted_values += obs.iter().filter(|v| **v != 0.0).count();
            obs.iter_mut().for_each(|v| *v = 0.0);
        }
        if let Some(spec) = self.active(FaultKind::ObsNan) {
            let p = spec.magnitude.clamp(0.0, 1.0);
            for v in obs.iter_mut() {
                if self.rng.gen_bool(p) {
                    *v = f32::NAN;
                    self.stats.corrupted_values += 1;
                }
            }
        }
    }

    /// Applies actuation-class faults (delay, dead-zone, stuck-at) to a
    /// command, returning what the plant actually receives.
    pub fn corrupt_actuation(&mut self, command: Actuation) -> Actuation {
        let mut out = command;

        if let Some(spec) = self.active(FaultKind::ActuatorDelay) {
            let lag = (spec.magnitude.max(0.0) as usize).max(1);
            self.delay_queue.push_back(out);
            out = if self.delay_queue.len() > lag {
                // The queue only grows while the fault is active, so
                // front() is present whenever len > lag.
                self.delay_queue.pop_front().unwrap_or(out)
            } else {
                // Zero-order hold at neutral until the line fills.
                Actuation::new(0.0, 0.0)
            };
        } else {
            self.delay_queue.clear();
        }

        if let Some(spec) = self.active(FaultKind::ActuatorDeadZone) {
            let w = spec.magnitude.abs();
            if out.steer.abs() < w {
                out.steer = 0.0;
            }
            if out.thrust.abs() < w {
                out.thrust = 0.0;
            }
        }

        if self.active(FaultKind::ActuatorStuck).is_some() {
            let held = *self.stuck_at.get_or_insert(out);
            out = held;
        } else {
            self.stuck_at = None;
        }

        if out != command {
            self.stats.corrupted_values += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::sensors::{FeatureConfig, FeatureExtractor};
    use crate::world::World;

    fn drive(injector: &mut FaultInjector, steps: usize) -> (Vec<Vec<f32>>, Vec<Actuation>) {
        let mut world = World::new(Scenario::default());
        let mut extractor = FeatureExtractor::new(FeatureConfig::default());
        let mut obs_log = Vec::new();
        let mut act_log = Vec::new();
        for t in 0..steps {
            injector.begin_step();
            let mut obs = extractor.observe(&world);
            injector.corrupt_observation(&mut obs);
            let cmd = Actuation::new(0.3 * ((t % 7) as f64 / 7.0 - 0.5), 0.4);
            let realized = injector.corrupt_actuation(cmd);
            world.step(realized);
            obs_log.push(obs);
            act_log.push(realized);
        }
        (obs_log, act_log)
    }

    #[test]
    fn zero_rate_schedule_is_noop() {
        let schedule = FaultSchedule::benign(0.0, 42);
        assert!(schedule.is_noop());
        let mut faulted = FaultInjector::new(&schedule);
        let mut none = FaultInjector::new(&FaultSchedule::none());
        let (obs_a, act_a) = drive(&mut faulted, 40);
        let (obs_b, act_b) = drive(&mut none, 40);
        assert_eq!(obs_a, obs_b);
        assert_eq!(act_a, act_b);
        assert_eq!(faulted.stats().activations, 0);
        assert_eq!(faulted.stats().corrupted_values, 0);
    }

    #[test]
    fn same_seed_and_schedule_reproduce_identical_faults() {
        let schedule = FaultSchedule::benign(1.0, 7);
        let mut a = FaultInjector::for_episode(&schedule, 3);
        let mut b = FaultInjector::for_episode(&schedule, 3);
        let ra = drive(&mut a, 80);
        let rb = drive(&mut b, 80);
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_episode_seeds_decorrelate() {
        let schedule = FaultSchedule::benign(1.0, 7);
        let mut a = FaultInjector::for_episode(&schedule, 3);
        let mut b = FaultInjector::for_episode(&schedule, 4);
        let ra = drive(&mut a, 120);
        let rb = drive(&mut b, 120);
        assert_ne!(ra, rb, "distinct episode seeds should differ");
    }

    #[test]
    fn reset_rewinds_the_stream() {
        let schedule = FaultSchedule::benign(1.0, 11);
        let mut inj = FaultInjector::new(&schedule);
        let first = drive(&mut inj, 60);
        inj.reset();
        let second = drive(&mut inj, 60);
        assert_eq!(first, second);
    }

    #[test]
    fn camera_freeze_repeats_previous_frame() {
        let spec = FaultSpec::new(FaultKind::CameraFreeze, 0.0, 4, 0.0);
        let mut inj = FaultInjector::new(&FaultSchedule {
            seed: 0,
            specs: vec![spec],
        });
        // Cache a frame, then force the fault active.
        inj.begin_step();
        let mut f0 = vec![1.0f32, 2.0, 3.0];
        inj.corrupt_observation(&mut f0);
        inj.remaining[0] = 3;
        let mut f1 = vec![9.0f32, 9.0, 9.0];
        inj.corrupt_observation(&mut f1);
        assert_eq!(f1, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_zeroes_and_nan_poisons() {
        let mut inj = FaultInjector::new(&FaultSchedule {
            seed: 5,
            specs: vec![
                FaultSpec::new(FaultKind::CameraDropout, 0.0, 1, 0.0),
                FaultSpec::new(FaultKind::ObsNan, 0.0, 1, 1.0),
            ],
        });
        inj.remaining[0] = 1;
        let mut obs = vec![0.5f32; 8];
        inj.corrupt_observation(&mut obs);
        assert!(obs.iter().all(|v| *v == 0.0));

        inj.remaining = vec![0, 1];
        let mut obs = vec![0.5f32; 8];
        inj.corrupt_observation(&mut obs);
        assert!(obs.iter().all(|v| v.is_nan()), "magnitude 1.0 poisons all");
    }

    #[test]
    fn actuator_stuck_holds_first_command() {
        let mut inj = FaultInjector::new(&FaultSchedule {
            seed: 0,
            specs: vec![FaultSpec::new(FaultKind::ActuatorStuck, 0.0, 3, 0.0)],
        });
        inj.remaining[0] = 3;
        let a = inj.corrupt_actuation(Actuation::new(0.4, 0.2));
        let b = inj.corrupt_actuation(Actuation::new(-0.9, 1.0));
        assert_eq!(a, Actuation::new(0.4, 0.2));
        assert_eq!(b, a, "stuck actuator ignores new commands");
        inj.remaining[0] = 0;
        let c = inj.corrupt_actuation(Actuation::new(-0.9, 1.0));
        assert_eq!(c, Actuation::new(-0.9, 1.0), "releases when inactive");
    }

    #[test]
    fn actuator_dead_zone_snaps_small_commands() {
        let mut inj = FaultInjector::new(&FaultSchedule {
            seed: 0,
            specs: vec![FaultSpec::new(FaultKind::ActuatorDeadZone, 0.0, 1, 0.1)],
        });
        inj.remaining[0] = 1;
        let out = inj.corrupt_actuation(Actuation::new(0.05, -0.5));
        assert_eq!(out.steer, 0.0);
        assert_eq!(out.thrust, -0.5);
    }

    #[test]
    fn actuator_delay_serves_commands_late() {
        let mut inj = FaultInjector::new(&FaultSchedule {
            seed: 0,
            specs: vec![FaultSpec::new(FaultKind::ActuatorDelay, 0.0, 5, 2.0)],
        });
        inj.remaining[0] = 5;
        let c = |s: f64| Actuation::new(s, 0.0);
        assert_eq!(inj.corrupt_actuation(c(0.1)), c(0.0), "line filling");
        assert_eq!(inj.corrupt_actuation(c(0.2)), c(0.0), "line filling");
        assert_eq!(inj.corrupt_actuation(c(0.3)), c(0.1), "2 steps late");
        assert_eq!(inj.corrupt_actuation(c(0.4)), c(0.2));
    }

    #[test]
    fn benign_schedule_activates_at_full_intensity() {
        let schedule = FaultSchedule::benign(1.0, 99);
        assert!(!schedule.is_noop());
        let mut inj = FaultInjector::new(&schedule);
        let _ = drive(&mut inj, 200);
        assert!(
            inj.stats().activations > 0,
            "200 steps at full intensity should fault"
        );
        assert!(inj.stats().faulted_steps > 0);
    }
}
