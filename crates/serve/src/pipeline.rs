//! The per-worker processing core shared by the threaded server and the
//! deterministic simulator.
//!
//! One [`Pipeline`] owns the worker-local pieces needed to turn a batch
//! of observations into actions at any ladder rung: the micro-batched
//! policy entry ([`BatchPolicy::act_batch`], the same weight-prepacked
//! batched head the fleet evaluation engine uses), the PID fallback, and
//! an optional mid-flight observation corruptor. The perturbation
//! detector is deliberately *not* worker-local: it watches the vehicle's
//! single realized-action stream, so the engine owns one
//! [`DetectorStream`] (behind a lock in the threaded server, plain in the
//! simulator) and lends it to whichever worker is serving the
//! [`Rung::Full`] rung.
//!
//! Which rung a batch runs at, and when the PID is reset, is decided by
//! [`crate::scheduler::Scheduler`]; both engines build their pipelines
//! through it and call exactly this code to run a batch.

use crate::config::ServeConfig;
use crate::ladder::Rung;
use attack_core::detector::PerturbationDetector;
use drive_agents::fallback::SafetyController;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::scratch::BatchActScratch;
use drive_sim::faults::FaultInjector;
use drive_sim::vehicle::Actuation;
use std::sync::Arc;

/// Feature-frame index of the realized steering readback (see
/// `drive_sim::sensors`): the detector inverts Eq. (1) around it.
pub const STEER_FEATURE: usize = 3;

/// What one batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One action per request, in batch order.
    pub actions: Vec<Actuation>,
    /// Whether this batch should alarm the ladder (detector residual over
    /// budget, or non-finite observations at the [`Rung::Full`] rung).
    pub alarm: bool,
}

/// Running totals a pipeline accumulates across batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Batches processed.
    pub batches: u64,
    /// Observation frames containing at least one non-finite value when
    /// they reached inference.
    pub nonfinite_frames: u64,
    /// Largest batch seen.
    pub max_batch: usize,
}

impl PipelineStats {
    /// Folds another worker's totals into this one (retiring a pipeline).
    pub fn absorb(&mut self, other: &PipelineStats) {
        self.batches += other.batches;
        self.nonfinite_frames += other.nonfinite_frames;
        self.max_batch = self.max_batch.max(other.max_batch);
    }
}

/// The serving-side view of the paper's perturbation detector: one per
/// *vehicle stream*, fed the realized steering readback (`obs[3]`) of
/// every frame served at the full rung and the steering command of every
/// action returned. Alarms when the estimated attack budget crosses the
/// ladder's threshold or when frames arrive non-finite.
#[derive(Debug, Clone)]
pub struct DetectorStream {
    detector: PerturbationDetector,
    alarm_budget: f64,
    last_cmd_steer: Option<f64>,
    last_obs_steer: f64,
}

impl DetectorStream {
    /// Builds the stream detector from the serve config.
    pub fn new(config: &ServeConfig) -> Self {
        DetectorStream {
            detector: PerturbationDetector::new(config.detector),
            alarm_budget: config.ladder.alarm_budget,
            last_cmd_steer: None,
            last_obs_steer: 0.0,
        }
    }

    /// Feeds the frames of one batch (before inference), returning
    /// whether the residual history now alarms. Non-finite readbacks
    /// alarm immediately.
    pub fn observe_frames(&mut self, obs: &[Vec<f32>]) -> bool {
        let mut nonfinite = false;
        for frame in obs {
            match frame.get(STEER_FEATURE).copied() {
                Some(v) if v.is_finite() => {
                    let a_now = f64::from(v);
                    if let Some(nu) = self.last_cmd_steer {
                        self.detector.observe(nu, self.last_obs_steer, a_now);
                    }
                    self.last_obs_steer = a_now;
                }
                _ => nonfinite = true,
            }
        }
        nonfinite || self.detector.estimated_budget() > self.alarm_budget
    }

    /// Records the last steering command served (the detector's `nu` for
    /// the next frame).
    pub fn note_served(&mut self, actions: &[Actuation]) {
        if let Some(last) = actions.last() {
            self.last_cmd_steer = Some(last.steer);
        }
    }
}

/// Worker-local inference state. Not `Sync` — each worker owns one.
#[derive(Debug)]
pub struct Pipeline {
    head: BatchPolicy,
    scratch: BatchActScratch,
    fallback: SafetyController,
    injector: Option<FaultInjector>,
    stats: PipelineStats,
}

impl Pipeline {
    /// Builds a pipeline for one worker.
    ///
    /// # Panics
    ///
    /// Panics if the policy's observation dimension is below 3 — the
    /// fallback rung needs lane offset, heading, and speed.
    pub fn new(
        policy: Arc<GaussianPolicy>,
        config: &ServeConfig,
        injector: Option<FaultInjector>,
    ) -> Self {
        assert!(
            policy.obs_dim() >= 3,
            "serving needs >= 3 observation features for the fallback rung"
        );
        Pipeline {
            fallback: SafetyController::new(config.safety),
            scratch: BatchActScratch::default(),
            injector,
            head: BatchPolicy::new(policy),
            stats: PipelineStats::default(),
        }
    }

    /// Totals so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// What the injector has corrupted so far (0 without an injector).
    pub fn corrupted_values(&self) -> u64 {
        self.injector
            .as_ref()
            .map_or(0, |i| i.stats().corrupted_values as u64)
    }

    /// Tells the pipeline the ladder moved. Entering the fallback rung
    /// clears PID memory so a stale integral cannot jerk the wheel.
    pub fn on_rung_change(&mut self, to: Rung) {
        if to == Rung::Fallback {
            self.fallback.reset();
        }
    }

    /// Processes one batch at the given rung, corrupting observations
    /// first when an injector is installed (that is where a mid-flight
    /// fault strikes a real service: after admission, before inference).
    /// The engine lends its [`DetectorStream`] when serving
    /// [`Rung::Full`]; at lower rungs the detector cost is shed and
    /// `detector` is ignored.
    pub fn process(
        &mut self,
        rung: Rung,
        obs: &mut [Vec<f32>],
        detector: Option<&mut DetectorStream>,
    ) -> BatchResult {
        if let Some(inj) = self.injector.as_mut() {
            inj.begin_step();
            for frame in obs.iter_mut() {
                inj.corrupt_observation(frame);
            }
        }
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(obs.len());
        self.stats.nonfinite_frames += obs
            .iter()
            .filter(|frame| frame.iter().any(|v| !v.is_finite()))
            .count() as u64;

        match rung {
            Rung::Fallback => {
                let actions = obs.iter().map(|frame| self.fallback.act(frame)).collect();
                BatchResult {
                    actions,
                    alarm: false,
                }
            }
            Rung::NoDetector => BatchResult {
                actions: self.infer(obs),
                alarm: false,
            },
            Rung::Full => {
                let alarm = match detector {
                    Some(stream) => {
                        let alarm = stream.observe_frames(obs);
                        let actions = self.infer(obs);
                        stream.note_served(&actions);
                        return BatchResult { actions, alarm };
                    }
                    None => false,
                };
                BatchResult {
                    actions: self.infer(obs),
                    alarm,
                }
            }
        }
    }

    /// Micro-batched deterministic policy inference; one GEMM pass for
    /// the whole batch through the shared [`BatchPolicy`] head,
    /// bit-identical to serial single-request calls.
    fn infer(&mut self, obs: &[Vec<f32>]) -> Vec<Actuation> {
        let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
        let acted = self.head.act_batch(&refs, &mut self.scratch);
        (0..acted.rows())
            .map(|b| {
                let row = acted.row(b);
                Actuation::new(f64::from(row[0]), f64::from(row[1]))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_nn::scratch::ActScratch;
    use drive_sim::faults::{FaultInjector, FaultSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy() -> Arc<GaussianPolicy> {
        let mut rng = StdRng::seed_from_u64(17);
        Arc::new(GaussianPolicy::new(6, &[16], 2, &mut rng))
    }

    fn frames(n: usize, tag: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..6)
                    .map(|j| {
                        let x = drive_seed::splitmix64(tag.wrapping_add((i * 7 + j) as u64));
                        ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
                    })
                    .collect()
            })
            .collect()
    }

    /// The f64 actuation path of micro-batched serving must be bit-exact
    /// with N serial single-observation inferences.
    #[test]
    fn batched_serving_matches_serial_inference_bit_exactly_f64() {
        let p = policy();
        let config = ServeConfig::default();
        let mut pipe = Pipeline::new(p.clone(), &config, None);
        let mut stream = DetectorStream::new(&config);
        let mut serial_scratch = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(0);
        for (round, &n) in [1usize, 4, 7, 3].iter().enumerate() {
            let mut obs = frames(n, round as u64 * 1000);
            let got = pipe.process(Rung::Full, &mut obs, Some(&mut stream));
            assert_eq!(got.actions.len(), n);
            for (i, frame) in obs.iter().enumerate() {
                let a = p.act_with(frame, &mut rng, true, &mut serial_scratch);
                let want = Actuation::new(f64::from(a[0]), f64::from(a[1]));
                assert_eq!(
                    got.actions[i].steer.to_bits(),
                    want.steer.to_bits(),
                    "round {round} request {i} steer"
                );
                assert_eq!(
                    got.actions[i].thrust.to_bits(),
                    want.thrust.to_bits(),
                    "round {round} request {i} thrust"
                );
            }
        }
    }

    #[test]
    fn rungs_produce_different_paths() {
        let config = ServeConfig::default();
        let mut pipe = Pipeline::new(policy(), &config, None);
        let mut stream = DetectorStream::new(&config);
        let obs = frames(3, 9);
        let full = pipe.process(Rung::Full, &mut obs.clone(), Some(&mut stream));
        let nodet = pipe.process(Rung::NoDetector, &mut obs.clone(), None);
        // Policy output is rung-independent (the detector only watches).
        assert_eq!(full.actions, nodet.actions);
        let fb = pipe.process(Rung::Fallback, &mut obs.clone(), None);
        assert_ne!(
            fb.actions, full.actions,
            "fallback is a different controller"
        );
        for a in &fb.actions {
            assert!(a.thrust <= 0.0, "fallback never accelerates");
        }
    }

    #[test]
    fn nonfinite_observations_alarm_only_the_full_rung() {
        let config = ServeConfig::default();
        let mut pipe = Pipeline::new(policy(), &config, None);
        let mut stream = DetectorStream::new(&config);
        let mut obs = frames(2, 3);
        obs[1][STEER_FEATURE] = f32::NAN;
        assert!(
            pipe.process(Rung::Full, &mut obs.clone(), Some(&mut stream))
                .alarm
        );
        assert!(!pipe.process(Rung::NoDetector, &mut obs.clone(), None).alarm);
        assert!(!pipe.process(Rung::Fallback, &mut obs.clone(), None).alarm);
        assert_eq!(pipe.stats().nonfinite_frames, 3);
        // Actions stay finite even on poisoned frames (both the NN's
        // input guard and the fallback's sanitization).
        for rung in [Rung::Full, Rung::NoDetector, Rung::Fallback] {
            let mut poisoned = frames(2, 4);
            poisoned[0][2] = f32::INFINITY;
            for a in pipe.process(rung, &mut poisoned, Some(&mut stream)).actions {
                assert!(a.steer.is_finite() && a.thrust.is_finite(), "{rung}");
            }
        }
    }

    /// A consistent Eq. (1) stream keeps the detector quiet; an injected
    /// action-space delta on the readback trips it.
    #[test]
    fn detector_stream_alarms_on_attacked_readback_only() {
        let config = ServeConfig::default();
        let alpha = config.detector.alpha;
        let mut pipe = Pipeline::new(policy(), &config, None);
        let mut stream = DetectorStream::new(&config);
        let mut realized = 0.0f64;
        let mut alarmed_clean = false;
        let run = |stream: &mut DetectorStream,
                   pipe: &mut Pipeline,
                   realized: &mut f64,
                   delta: f64,
                   rounds: u64|
         -> bool {
            let mut alarmed = false;
            for round in 0..rounds {
                let mut obs = frames(1, round * 31);
                obs[0][STEER_FEATURE] = *realized as f32;
                let r = pipe.process(Rung::Full, &mut obs, Some(&mut *stream));
                alarmed |= r.alarm;
                let nu = r.actions[0].steer;
                *realized = (1.0 - alpha) * (nu + delta) + alpha * *realized;
            }
            alarmed
        };
        alarmed_clean |= run(&mut stream, &mut pipe, &mut realized, 0.0, 60);
        assert!(!alarmed_clean, "clean Eq.(1) stream must not alarm");
        let attacked = run(&mut stream, &mut pipe, &mut realized, 0.6, 60);
        assert!(attacked, "0.6 steering delta must trip the detector");
    }

    #[test]
    fn injector_corrupts_and_detector_path_alarms_eventually() {
        let config = ServeConfig::default();
        let inj = FaultInjector::for_episode(&FaultSchedule::poisoned(0.9, 5), 1);
        let mut pipe = Pipeline::new(policy(), &config, Some(inj));
        let mut stream = DetectorStream::new(&config);
        let mut alarmed = false;
        for round in 0..50 {
            let mut obs = frames(4, round);
            alarmed |= pipe.process(Rung::Full, &mut obs, Some(&mut stream)).alarm;
        }
        assert!(alarmed, "heavy NaN poisoning must alarm within 50 batches");
        assert!(pipe.corrupted_values() > 0);
        assert!(pipe.stats().nonfinite_frames > 0);
    }

    #[test]
    fn process_is_deterministic() {
        let config = ServeConfig::default();
        let run = || {
            let inj = FaultInjector::for_episode(&FaultSchedule::poisoned(0.4, 9), 2);
            let mut pipe = Pipeline::new(policy(), &config, Some(inj));
            let mut stream = DetectorStream::new(&config);
            let mut out = Vec::new();
            for round in 0..20 {
                let rung = match round % 3 {
                    0 => Rung::Full,
                    1 => Rung::NoDetector,
                    _ => Rung::Fallback,
                };
                let mut obs = frames(3, round);
                out.push(pipe.process(rung, &mut obs, Some(&mut stream)));
            }
            (out, *pipe.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_absorb_folds_totals() {
        let mut a = PipelineStats {
            batches: 2,
            nonfinite_frames: 1,
            max_batch: 3,
        };
        let b = PipelineStats {
            batches: 1,
            nonfinite_frames: 0,
            max_batch: 7,
        };
        a.absorb(&b);
        assert_eq!(a.batches, 3);
        assert_eq!(a.max_batch, 7);
    }
}
