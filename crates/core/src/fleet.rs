//! Fleet evaluation: many attacked episodes stepped in lockstep with
//! batched policy inference.
//!
//! The serial harness runs two policy forward passes (victim + attacker)
//! per evaluated step, one row each through pre-packed weights.
//! [`FleetEval`] runs up to `batch` episodes through one [`WorldBatch`],
//! gathering every live observation into a staging matrix so each policy
//! runs one GEMM per layer per control step (`stage` and `infer_staged`
//! on the borrowed artifact policies, whose layers pack once and serve
//! every cell). Slots that finish are retired immediately and the batch
//! is refilled from the remaining seed grid, so occupancy stays high even
//! though episodes end at different steps.
//!
//! The victim is any frozen policy whose per-step decision is fixed for
//! the cell ([`FleetVictim`]): the end-to-end agent and its fine-tuned
//! variants, and the PNN behind its idealized Simplex switcher, whose
//! column is a function of the cell's `(sigma, epsilon)` alone
//! ([`crate::defense::SimplexSwitcher::column`]). Agents that branch per
//! step (the modular planner, the detector-driven switcher, the
//! state-space attacker) stay on the serial path.
//!
//! Equivalence to the serial path is structural, not approximate:
//!
//! * the per-episode setup (scenario jitter, fresh feature extractor,
//!   fresh IMU attacker sensor) mirrors
//!   `drive_agents::runner::run_episode_with_faults`, and both fill their
//!   records through the one [`EpisodeTally`];
//! * a camera attacker's extractor would share the victim's
//!   [`FeatureConfig`] and per-episode history, so its observation rows
//!   are the victim's, staged once for both policies;
//! * deterministic batched inference is bit-identical to serial
//!   `act_with`, for both PNN columns too (tested in `drive-nn` and
//!   `drive-serve`), and evaluation agents act deterministically, so the
//!   serial agent's exploration seed draws nothing;
//! * the batch steps each world through the serial engine verbatim.
//!
//! So a fleet cell produces byte-identical [`EpisodeRecord`]s to the
//! serial loop (tested below).

use crate::adv_reward::AdvReward;
use crate::budget::AttackBudget;
use crate::sensor::{AttackerSensor, SensorKind};
use drive_agents::runner::EpisodeTally;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::mat::Mat;
use drive_nn::pnn::PnnPolicy;
use drive_nn::scratch::BatchActScratch;
use drive_sim::batch::WorldBatch;
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor, ImuConfig};
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A frozen victim policy the fleet steps, acting `tanh(mean)`.
#[derive(Debug, Clone, Copy)]
pub enum FleetVictim<'a> {
    /// A plain policy: the end-to-end agent, a fine-tuned variant, or the
    /// PNN's frozen base column.
    Gaussian(&'a GaussianPolicy),
    /// The PNN's hardened column (column 2, reading column 1 through the
    /// laterals).
    Pnn(&'a PnnPolicy),
}

impl FleetVictim<'_> {
    fn obs_dim(&self) -> usize {
        match self {
            FleetVictim::Gaussian(p) => p.obs_dim(),
            FleetVictim::Pnn(p) => p.obs_dim(),
        }
    }

    fn action_dim(&self) -> usize {
        match self {
            FleetVictim::Gaussian(p) => p.action_dim(),
            FleetVictim::Pnn(p) => p.action_dim(),
        }
    }

    fn stage<'s>(&self, batch: usize, s: &'s mut BatchActScratch) -> &'s mut Mat {
        match self {
            FleetVictim::Gaussian(p) => p.stage(batch, s),
            FleetVictim::Pnn(p) => p.stage(batch, s),
        }
    }

    fn infer_staged<'s>(&self, s: &'s mut BatchActScratch) -> &'s Mat {
        match self {
            FleetVictim::Gaussian(p) => p.infer_staged(s),
            FleetVictim::Pnn(p) => p.infer_staged(s),
        }
    }
}

/// One victim/attacker evaluation cell, fleet-steppable: a frozen
/// [`FleetVictim`] with an optional learned camera/IMU attacker.
#[derive(Debug, Clone)]
pub struct FleetEval<'a> {
    /// Frozen victim policy (60-d observation, 2-d actuation).
    pub victim: FleetVictim<'a>,
    /// Victim feature-extractor configuration.
    pub features: FeatureConfig,
    /// Learned attacker policy and its sensor kind, if attacking.
    pub attack: Option<(&'a GaussianPolicy, SensorKind)>,
    /// IMU configuration (used when the attack sensor is [`SensorKind::Imu`]).
    pub imu: ImuConfig,
    /// Attack budget `epsilon` (zero disables the attacker, like the
    /// serial harness).
    pub budget: AttackBudget,
    /// Adversarial reward accumulated into each record.
    pub adv: AdvReward,
    /// Scenario template, jittered per episode seed.
    pub scenario: Scenario,
}

/// Per-slot episode state riding alongside the [`WorldBatch`], mirrored
/// through `compact` swap-removes.
struct Slot {
    episode: usize,
    extractor: FeatureExtractor,
    /// The IMU attacker's sensor; a camera attacker reads `extractor`'s rows.
    imu: Option<AttackerSensor>,
    tally: EpisodeTally,
    adv_return: f64,
    delta: f64,
}

impl<'a> FleetEval<'a> {
    fn spawn(&self, episode: usize, seed: u64) -> (World, Slot) {
        let scenario = {
            let mut rng = StdRng::seed_from_u64(seed);
            self.scenario.jittered(&mut rng)
        };
        let world = World::new(scenario);
        // Fresh extractor == `E2eAgent::reset`; building the IMU sensor
        // anew and resetting it == `LearnedAttacker::{new, reset}` (the
        // reset advances its noise stream — the serial runner resets once
        // at episode start, so the fleet must too).
        let extractor = FeatureExtractor::new(self.features.clone());
        let imu = match self.attack {
            Some((_, SensorKind::Imu)) if !self.budget.is_zero() => {
                let mut s = AttackerSensor::imu(self.imu.clone(), seed);
                s.reset();
                Some(s)
            }
            _ => None,
        };
        let tally = EpisodeTally::new(&world);
        (
            world,
            Slot {
                episode,
                extractor,
                imu,
                tally,
                adv_return: 0.0,
                delta: 0.0,
            },
        )
    }

    /// Runs `episodes` attacked episodes with seeds `base_seed..`,
    /// at most `batch` in flight (observation matrix rows), returning
    /// records in episode order — the same seed grid and record contents
    /// as the serial `attack_core::eval::run_attacked_episodes` loop.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches (same contracts as `E2eAgent::new`
    /// and `LearnedAttacker::new`) or a zero `batch`.
    pub fn run(&self, episodes: usize, base_seed: u64, batch: usize) -> Vec<EpisodeRecord> {
        assert!(batch > 0, "fleet needs at least one slot");
        assert_eq!(
            self.victim.obs_dim(),
            self.features.observation_dim(),
            "victim obs dim must match feature extractor"
        );
        assert_eq!(self.victim.action_dim(), 2, "driving actions are 2-D");
        let attacker = self.attack.and_then(|(policy, kind)| {
            if self.budget.is_zero() {
                return None;
            }
            let sensor_dim = match kind {
                SensorKind::Camera => self.features.observation_dim(),
                SensorKind::Imu => self.imu.observation_dim(),
            };
            assert_eq!(
                policy.obs_dim(),
                sensor_dim,
                "attack policy obs dim must match its sensor"
            );
            assert_eq!(policy.action_dim(), 1, "attack action is 1-D");
            Some((policy, kind))
        });

        let mut results: Vec<Option<EpisodeRecord>> = (0..episodes).map(|_| None).collect();
        let capacity = batch;
        let mut batch = WorldBatch::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut next = 0usize;
        let refill = |batch: &mut WorldBatch, slots: &mut Vec<Slot>, next: &mut usize| {
            while batch.len() < capacity && *next < episodes {
                let (world, slot) = self.spawn(*next, base_seed + *next as u64);
                batch.push(world);
                slots.push(slot);
                *next += 1;
            }
        };
        refill(&mut batch, &mut slots, &mut next);

        let mut victim_scratch = BatchActScratch::default();
        let mut attacker_scratch = BatchActScratch::default();
        let mut actions: Vec<Actuation> = Vec::new();
        let mut nominals: Vec<Actuation> = Vec::new();
        let mut outcomes = Vec::new();
        let mut obs_buf: Vec<f32> = Vec::new();
        while !batch.is_empty() {
            // Occupancy denominator: configured capacity per lockstep
            // iteration. The numerator (slots actually advanced) is
            // recorded by `WorldBatch::step` from its post-compaction
            // in-flight count, so a slot that retires and is refilled in
            // the same `compact` pass is counted exactly once.
            drive_sim::perf::record_fleet_capacity(capacity as u64);
            let n = batch.len();

            // Victim head: one staged forward pass over every live slot.
            // A camera attacker stages the same rows.
            let stage = self.victim.stage(n, &mut victim_scratch);
            let mut camera_stage = match &attacker {
                Some((abp, SensorKind::Camera)) => Some(abp.stage(n, &mut attacker_scratch)),
                _ => None,
            };
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.extractor
                    .observe_into(&batch.worlds()[i], &mut obs_buf);
                stage.row_mut(i).copy_from_slice(&obs_buf);
                if let Some(camera) = camera_stage.as_mut() {
                    camera.row_mut(i).copy_from_slice(&obs_buf);
                }
            }
            let t0 = Instant::now();
            let acts = self.victim.infer_staged(&mut victim_scratch);
            drive_sim::perf::record_fleet_infer(t0.elapsed().as_nanos() as u64, n as u64);
            nominals.clear();
            for i in 0..n {
                let row = acts.row(i);
                nominals.push(Actuation::new(row[0] as f64, row[1] as f64));
            }

            // Attacker head, when attacking: same shape, 1-D output
            // scaled by the budget (`LearnedAttacker::delta`).
            if let Some((abp, kind)) = &attacker {
                if *kind == SensorKind::Imu {
                    let stage = abp.stage(n, &mut attacker_scratch);
                    for (i, slot) in slots.iter_mut().enumerate() {
                        let imu = slot.imu.as_mut().expect("IMU attack has sensors");
                        imu.observe_into(&batch.worlds()[i], &mut obs_buf);
                        stage.row_mut(i).copy_from_slice(&obs_buf);
                    }
                }
                let t0 = Instant::now();
                let raw = abp.infer_staged(&mut attacker_scratch);
                drive_sim::perf::record_fleet_infer(t0.elapsed().as_nanos() as u64, n as u64);
                for (i, slot) in slots.iter_mut().enumerate() {
                    slot.delta = self.budget.scale(raw.get(i, 0) as f64);
                }
            } else {
                for slot in slots.iter_mut() {
                    slot.delta = 0.0;
                }
            }

            actions.clear();
            for (slot, nominal) in slots.iter().zip(&nominals) {
                actions.push(Actuation::new(nominal.steer + slot.delta, nominal.thrust));
            }
            batch.step(&actions, &mut outcomes);

            // Per-slot bookkeeping, in the serial runner's order.
            for (i, slot) in slots.iter_mut().enumerate() {
                let world = &batch.worlds()[i];
                let outcome = &outcomes[i];
                slot.tally.step(world, outcome, slot.delta);
                slot.adv_return += self.adv.step(world, outcome, slot.delta);
            }

            batch.compact(|dense, world| {
                let slot = slots.swap_remove(dense);
                results[slot.episode] = Some(slot.tally.finish(&world, slot.adv_return));
            });
            refill(&mut batch, &mut slots, &mut next);
        }
        results
            .into_iter()
            .map(|r| r.expect("every episode terminates within max_steps"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_attacked_episodes;
    use crate::learned::LearnedAttacker;
    use drive_agents::e2e::E2eAgent;

    fn victim() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(41);
        GaussianPolicy::new(
            FeatureConfig::default().observation_dim(),
            &[32, 32],
            2,
            &mut rng,
        )
    }

    fn camera_attacker() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(43);
        GaussianPolicy::new(
            FeatureConfig::default().observation_dim(),
            &[32],
            1,
            &mut rng,
        )
    }

    fn imu_attacker() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(47);
        GaussianPolicy::new(ImuConfig::default().observation_dim(), &[32], 1, &mut rng)
    }

    fn serial_records(
        victim: &GaussianPolicy,
        attack: Option<(&GaussianPolicy, SensorKind)>,
        budget: AttackBudget,
        episodes: usize,
        base_seed: u64,
    ) -> Vec<EpisodeRecord> {
        let mut agent = E2eAgent::new(victim.clone(), FeatureConfig::default(), 0, true);
        serial_records_of(&mut agent, attack, budget, episodes, base_seed)
    }

    fn serial_records_of(
        agent: &mut dyn drive_agents::Agent,
        attack: Option<(&GaussianPolicy, SensorKind)>,
        budget: AttackBudget,
        episodes: usize,
        base_seed: u64,
    ) -> Vec<EpisodeRecord> {
        run_attacked_episodes(
            agent,
            |seed| {
                attack.and_then(|(policy, kind)| {
                    if budget.is_zero() {
                        return None;
                    }
                    let sensor = AttackerSensor::new(
                        kind,
                        &FeatureConfig::default(),
                        &ImuConfig::default(),
                        seed,
                    );
                    Some(LearnedAttacker::new(
                        policy.clone(),
                        sensor,
                        budget,
                        seed,
                        true,
                    ))
                })
            },
            &AdvReward::default(),
            &Scenario::default(),
            episodes,
            base_seed,
        )
    }

    fn fleet_eval<'a>(
        victim: &'a GaussianPolicy,
        attack: Option<(&'a GaussianPolicy, SensorKind)>,
        budget: AttackBudget,
    ) -> FleetEval<'a> {
        FleetEval {
            victim: FleetVictim::Gaussian(victim),
            features: FeatureConfig::default(),
            attack,
            imu: ImuConfig::default(),
            budget,
            adv: AdvReward::default(),
            scenario: Scenario::default(),
        }
    }

    /// The Golden fleet must reproduce the serial episode loop
    /// BYTE-FOR-BYTE: full `EpisodeRecord` equality across batch sizes,
    /// nominal and attacked, camera and IMU, including batch sizes that
    /// force slot refill mid-run.
    #[test]
    fn golden_fleet_matches_serial_records_exactly() {
        let v = victim();
        let cam = camera_attacker();
        let imu = imu_attacker();
        let cases: Vec<(Option<(&GaussianPolicy, SensorKind)>, AttackBudget)> = vec![
            (None, AttackBudget::ZERO),
            (Some((&cam, SensorKind::Camera)), AttackBudget::new(1.0)),
            (Some((&cam, SensorKind::Camera)), AttackBudget::ZERO),
            (Some((&imu, SensorKind::Imu)), AttackBudget::new(0.5)),
        ];
        for (attack, budget) in cases {
            let serial = serial_records(&v, attack, budget, 5, 9_000);
            for batch in [1usize, 2, 8] {
                let fleet = fleet_eval(&v, attack, budget).run(5, 9_000, batch);
                assert_eq!(
                    fleet, serial,
                    "fleet(batch={batch}) diverged from serial (budget {budget})"
                );
            }
        }
    }

    /// A trained-looking PNN over [`victim`]: random column and laterals,
    /// so the hardened column differs from the base.
    fn pnn() -> PnnPolicy {
        let base = victim();
        let mut rng = StdRng::seed_from_u64(53);
        let layers = base.trunk().layers();
        let column = layers
            .iter()
            .map(|l| drive_nn::linear::Linear::new(l.in_dim(), l.out_dim(), &mut rng))
            .collect();
        let laterals = layers
            .windows(2)
            .map(|w| drive_nn::linear::Linear::new(w[0].out_dim(), w[1].out_dim(), &mut rng))
            .collect();
        PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
    }

    /// The switcher's column, stepped by the fleet, reproduces the serial
    /// Simplex agent byte for byte on both columns, attacked and not.
    #[test]
    fn fleet_pnn_columns_match_serial_switcher() {
        let pnn = std::sync::Arc::new(pnn());
        let cam = camera_attacker();
        for (sigma, eps) in [(0.2, 0.0), (0.4, 0.4), (0.2, 0.5), (0.0, 1.0)] {
            let budget = AttackBudget::new(eps);
            let column = crate::defense::SimplexSwitcher::column(&pnn, sigma, eps);
            assert_eq!(matches!(column, FleetVictim::Pnn(_)), eps > sigma);
            let attack = Some((&cam, SensorKind::Camera));
            let switcher = crate::defense::SimplexSwitcher::new(pnn.clone(), sigma, eps);
            let mut agent = E2eAgent::new(switcher, FeatureConfig::default(), 0, true);
            let serial = serial_records_of(&mut agent, attack, budget, 4, 7_000);
            for batch in [1usize, 3, 4] {
                let fleet = FleetEval {
                    victim: column,
                    ..fleet_eval(pnn.base(), attack, budget)
                }
                .run(4, 7_000, batch);
                assert_eq!(fleet, serial, "sigma {sigma} eps {eps} batch {batch}");
            }
        }
    }

    /// The fleet feeds the process-wide perf counters.
    #[test]
    fn fleet_run_records_perf_counters() {
        let t0 = drive_sim::perf::fleet();
        let v = victim();
        let _ = fleet_eval(&v, None, AttackBudget::ZERO).run(2, 50, 2);
        let d = drive_sim::perf::fleet().since(&t0);
        assert!(d.batches > 0, "WorldBatch::step must record batches");
        assert!(d.capacity >= d.batches, "capacity recorded per iteration");
        assert!(d.infer_rows > 0 && d.infer_ns > 0, "inference timed");
    }
}
