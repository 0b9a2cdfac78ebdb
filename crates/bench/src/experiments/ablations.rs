//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! 1. **Oracle vs learned attacker** — how much does the DRL policy add
//!    over the geometric heuristic it was warm-started from?
//! 2. **Switcher threshold sweep** — sensitivity of the PNN defense to the
//!    Simplex threshold `sigma`.
//! 3. **IMU noise sensitivity** — how quickly the IMU attack degrades as
//!    sensor noise grows (the covertness/effectiveness trade-off).
//! 4. **Idealized vs detector-driven switcher** — the paper's idealized
//!    budget-aware Simplex switcher against the practical residual-based
//!    perturbation detector of `attack_core::detector` (the paper's §VII
//!    future-work item).
//! 5. **Scenario transfer** — victim and attacker were both trained on the
//!    default traffic pattern; how do attack success and driving quality
//!    generalize to denser, sparser, and two-lane traffic? (Section II
//!    flags generalizability as an open DRL problem.)
//! 6. **Action-space vs state-space attacks** — the related-work contrast
//!    of Section II: what does the state-space attacker's much stronger
//!    threat model (white-box policy + sensor write access) buy over the
//!    black-box action-space attack?
//! 7. **Detector robustness to benign faults** — the §VII residual
//!    detector under seeded hardware faults (`drive-sim::faults`): its
//!    false-positive rate on fault-injected but *unattacked* episodes
//!    versus its true-positive rate against the learned camera and IMU
//!    attackers, across the context's fault intensities.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records, run_fleet, AgentKind};
use attack_core::adv_reward::AdvReward;
use attack_core::budget::AttackBudget;
use attack_core::defense::SimplexSwitcher;
use attack_core::detector::{DetectorConfig, DetectorSimplexAgent};
use attack_core::eval::{run_attacked_episode_with_faults, run_attacked_episodes};
use attack_core::fleet::{FleetEval, FleetVictim};
use attack_core::learned::LearnedAttacker;
use attack_core::oracle::OracleAttacker;
use attack_core::sensor::{AttackerSensor, SensorKind};
use attack_core::state_attack::{StateAttackConfig, StateAttackedAgent};
use drive_agents::e2e::E2eAgent;
use drive_agents::Agent;
use drive_metrics::episode::CellSummary;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, fmt_pct, Table};
use drive_nn::batch::BatchPolicy;
use drive_sim::faults::{FaultInjector, FaultSchedule};
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::ImuConfig;
use std::sync::Arc;

/// Result of one ablation arm.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// Arm label.
    pub label: String,
    /// Aggregated statistics.
    pub summary: CellSummary,
}

/// All ablation results.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Oracle vs learned camera attacker (vs the e2e victim, eps = 1).
    pub attacker_arms: Vec<AblationCell>,
    /// PNN switcher threshold sweep at eps = 0.5.
    pub switcher_arms: Vec<AblationCell>,
    /// IMU attack success under noise multipliers.
    pub imu_noise_arms: Vec<AblationCell>,
    /// Idealized (budget-aware) vs detector-driven PNN switcher.
    pub detector_arms: Vec<AblationCell>,
    /// Attack success and driving quality on unseen traffic patterns.
    pub transfer_arms: Vec<AblationCell>,
    /// Black-box action-space vs white-box state-space attacks.
    pub paradigm_arms: Vec<AblationCell>,
    /// Detector FPR under benign faults vs TPR under learned attacks,
    /// per fault intensity.
    pub fault_detector_arms: Vec<FaultDetectorCell>,
}

/// Benign fault-schedule intensities swept by ablation 7.
const FAULT_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// One fault-intensity row of ablation 7: how often the residual detector
/// fires (hardened column engages at least once) with and without a real
/// attack in the loop.
#[derive(Debug, Clone)]
pub struct FaultDetectorCell {
    /// Benign-fault schedule intensity (0 = clean).
    pub intensity: f64,
    /// Detector fired on a fault-injected but unattacked episode.
    pub benign_fpr: f64,
    /// Detector fired under the learned camera attack (eps = 1.0).
    pub camera_tpr: f64,
    /// Detector fired under the learned IMU attack (eps = 1.0).
    pub imu_tpr: f64,
    /// Mean fraction of benign-episode steps driven hardened.
    pub mean_hardened_benign: f64,
}

/// Runs (or reuses) all ablations via the context memo. Each arm derives
/// its episode seeds from its own subtree of `root/ablations`; arms that
/// compare configurations (2–6) share one base seed per section so the
/// sweep variable is the only difference between their cells.
pub fn run(ctx: &RunContext) -> Arc<AblationResult> {
    ctx.memo("ablations", || compute(ctx))
}

/// One attacked arm whose victim is a frozen policy with a per-cell
/// decision: `victim` against the learned attacker on `sensor` at
/// `budget`, in `scenario`, with `imu` as the IMU attacker's sensor.
struct FrozenArm<'a> {
    victim: FleetVictim<'a>,
    sensor: SensorKind,
    imu: ImuConfig,
    budget: AttackBudget,
    scenario: &'a Scenario,
}

impl FrozenArm<'_> {
    /// Runs the arm's episodes on the seed grid `base_seed + e`: through
    /// the lockstep fleet when the context has one, else (or when the
    /// fleet cell panicked) serially, with `agent` as the victim and a
    /// fresh learned attacker per episode. Both give byte-identical
    /// records.
    fn records(
        &self,
        ctx: &RunContext,
        base_seed: u64,
        label: &str,
        agent: impl FnOnce() -> Box<dyn Agent>,
    ) -> Vec<EpisodeRecord> {
        let (artifacts, features) = (ctx.artifacts, &ctx.config.features);
        let attacker = match self.sensor {
            SensorKind::Camera => &artifacts.camera_attacker,
            SensorKind::Imu => &artifacts.imu_attacker,
        };
        let eval = FleetEval {
            victim: self.victim,
            features: features.clone(),
            attack: Some((attacker, self.sensor)),
            imu: self.imu.clone(),
            budget: self.budget,
            adv: AdvReward::default(),
            scenario: self.scenario.clone(),
        };
        let episodes = ctx.scale.box_episodes;
        ctx.fleet
            .and_then(|batch| run_fleet(&eval, episodes, base_seed, batch, label))
            .unwrap_or_else(|| {
                // One frozen copy per cell, sharing the artifact's packs;
                // each episode's attacker gets an O(1) clone.
                let policy = BatchPolicy::from(attacker);
                run_attacked_episodes(
                    agent().as_mut(),
                    |seed| {
                        (!self.budget.is_zero()).then(|| {
                            let sensor =
                                AttackerSensor::new(self.sensor, features, &self.imu, seed);
                            LearnedAttacker::new(policy.clone(), sensor, self.budget, seed, true)
                        })
                    },
                    &eval.adv,
                    self.scenario,
                    episodes,
                    base_seed,
                )
            })
    }
}

fn compute(ctx: &RunContext) -> AblationResult {
    let artifacts = ctx.artifacts;
    let config = ctx.config;
    let ns = ctx.seeds_for("ablations");
    let adv = AdvReward::default();
    let budget = AttackBudget::new(1.0);
    let episodes = ctx.scale.box_episodes;
    let pnn = Arc::clone(&artifacts.pnn);
    // The victim of a serial cell: a frozen copy sharing the artifact's
    // packs.
    let victim_policy = || BatchPolicy::from(&artifacts.victim);

    // --- 1. Oracle vs learned camera attacker ---
    let mut attacker_arms = Vec::new();
    {
        let mut agent = E2eAgent::new(victim_policy(), config.features.clone(), 1, true);
        let records = run_attacked_episodes(
            &mut agent,
            |_| Some(OracleAttacker::new(budget)),
            &adv,
            &config.scenario,
            episodes,
            ns.child("oracle").seed(),
        );
        attacker_arms.push(AblationCell {
            label: "oracle".into(),
            summary: CellSummary::from_records(&records),
        });
    }
    let learned = attacked_records(
        AgentKind::E2e,
        Some((&artifacts.camera_attacker, SensorKind::Camera)),
        budget,
        ctx,
        episodes,
        &ns.child("learned-camera"),
    );
    attacker_arms.push(AblationCell {
        label: "learned camera".into(),
        summary: CellSummary::from_records(&learned),
    });

    // --- 2. Switcher threshold sweep (attacked at eps = 0.5) ---
    // Arms 2-7 parallelize over their sweep items: every item builds its
    // own agent and per-episode attackers, so the cells are independent
    // and `par_map` keeps them in sweep order for any worker count. The
    // sweep items share one base seed so the swept knob is the only
    // difference between cells.
    let sweep_budget = AttackBudget::new(0.5);
    let switcher_seed = ns.child("switcher").seed();
    let sigmas = [0.0, 0.2, 0.4, 0.6];
    let switcher_arms = drive_par::par_map(&sigmas, |_, &sigma| {
        let eps = sweep_budget.epsilon();
        let arm = FrozenArm {
            victim: SimplexSwitcher::column(&pnn, sigma, eps),
            sensor: SensorKind::Camera,
            imu: config.imu.clone(),
            budget: sweep_budget,
            scenario: &config.scenario,
        };
        let label = format!("sigma={sigma:.1}");
        let records = arm.records(ctx, switcher_seed, &label, || {
            let switcher = SimplexSwitcher::new(pnn.clone(), sigma, eps);
            Box::new(E2eAgent::new(switcher, config.features.clone(), 2, true))
        });
        AblationCell {
            label,
            summary: CellSummary::from_records(&records),
        }
    });

    // --- 3. IMU noise sensitivity ---
    let imu_noise_seed = ns.child("imu-noise").seed();
    let noise_mults = [0.0, 1.0, 4.0, 10.0];
    let imu_noise_arms = drive_par::par_map(&noise_mults, |_, &mult| {
        let mut imu = config.imu.clone();
        imu.accel_noise_std *= mult;
        imu.gyro_noise_std *= mult;
        let arm = FrozenArm {
            victim: FleetVictim::Gaussian(&artifacts.victim),
            sensor: SensorKind::Imu,
            imu,
            budget,
            scenario: &config.scenario,
        };
        let label = format!("noise x{mult:.0}");
        let records = arm.records(ctx, imu_noise_seed, &label, || {
            Box::new(E2eAgent::new(
                victim_policy(),
                config.features.clone(),
                3,
                true,
            ))
        });
        AblationCell {
            label,
            summary: CellSummary::from_records(&records),
        }
    });

    // --- 4. Idealized vs detector-driven switcher ---
    // Both switchers of a pair share the same episode seeds, so the
    // switching policy is the only difference between them.
    let detector_seed = ns.child("detector").seed();
    let detector_eps = [0.0, 0.5, 1.0];
    let detector_pairs = drive_par::par_map(&detector_eps, |_, &eps| {
        let b = AttackBudget::new(eps);
        let camera_attacker = BatchPolicy::from(&artifacts.camera_attacker);
        let attack = |seed: u64| {
            (!b.is_zero()).then(|| {
                LearnedAttacker::new(
                    camera_attacker.clone(),
                    AttackerSensor::camera(config.features.clone()),
                    b,
                    seed,
                    true,
                )
            })
        };
        let arm = FrozenArm {
            victim: SimplexSwitcher::column(&pnn, 0.2, eps),
            sensor: SensorKind::Camera,
            imu: config.imu.clone(),
            budget: b,
            scenario: &config.scenario,
        };
        let label = format!("ideal switcher eps={eps:.1}");
        let records = arm.records(ctx, detector_seed, &label, || {
            let switcher = SimplexSwitcher::new(pnn.clone(), 0.2, eps);
            Box::new(E2eAgent::new(switcher, config.features.clone(), 4, true))
        });
        let ideal_cell = AblationCell {
            label,
            summary: CellSummary::from_records(&records),
        };

        let mut detected = DetectorSimplexAgent::new(
            pnn.clone(),
            0.2,
            config.features.clone(),
            DetectorConfig::default(),
            4,
        );
        let records = run_attacked_episodes(
            &mut detected,
            attack,
            &adv,
            &config.scenario,
            episodes,
            detector_seed,
        );
        let detector_cell = AblationCell {
            label: format!("detector switcher eps={eps:.1}"),
            summary: CellSummary::from_records(&records),
        };
        (ideal_cell, detector_cell)
    });
    let detector_arms: Vec<AblationCell> = detector_pairs
        .into_iter()
        .flat_map(|(ideal, detected)| [ideal, detected])
        .collect();

    // --- 5. Scenario transfer ---
    let transfer_seed = ns.child("transfer").seed();
    let scenarios = [
        ("default", config.scenario.clone()),
        ("dense", drive_sim::scenario::Scenario::dense_traffic()),
        ("sparse", drive_sim::scenario::Scenario::sparse_traffic()),
        ("two-lane", drive_sim::scenario::Scenario::two_lane()),
    ];
    let transfer_arms = drive_par::par_map(&scenarios, |_, (label, scenario)| {
        let arm = FrozenArm {
            victim: FleetVictim::Gaussian(&artifacts.victim),
            sensor: SensorKind::Camera,
            imu: config.imu.clone(),
            budget,
            scenario,
        };
        let records = arm.records(ctx, transfer_seed, label, || {
            Box::new(E2eAgent::new(
                victim_policy(),
                config.features.clone(),
                5,
                true,
            ))
        });
        AblationCell {
            label: label.to_string(),
            summary: CellSummary::from_records(&records),
        }
    });

    // --- 6. Action-space vs state-space attack paradigms ---
    let mut paradigm_arms = Vec::new();
    {
        let records = attacked_records(
            AgentKind::E2e,
            Some((&artifacts.camera_attacker, SensorKind::Camera)),
            budget,
            ctx,
            episodes,
            &ns.child("paradigm").child("action-space"),
        );
        paradigm_arms.push(AblationCell {
            label: "action-space eps=1.0 (black-box)".into(),
            summary: CellSummary::from_records(&records),
        });
    }
    let state_seed = ns.child("paradigm").child("state-space").seed();
    let state_eps = [0.05f32, 0.1, 0.2];
    paradigm_arms.extend(drive_par::par_map(&state_eps, |_, &eps| {
        let mut agent = StateAttackedAgent::new(
            artifacts.victim.clone(),
            config.features.clone(),
            StateAttackConfig {
                epsilon: eps,
                ..StateAttackConfig::default()
            },
            6,
        );
        let records = run_attacked_episodes(
            &mut agent,
            |_| None::<attack_core::oracle::OracleAttacker>,
            &adv,
            &config.scenario,
            episodes,
            state_seed,
        );
        // The state attack perturbs observations, not steering, so the
        // steering-based attribution of `attack_success` never fires;
        // credit it with the raw side-collision rate instead.
        let mut summary = CellSummary::from_records(&records);
        summary.success_rate =
            records.iter().filter(|r| r.side_collision()).count() as f64 / records.len() as f64;
        AblationCell {
            label: format!("state-space eps={eps} (white-box)"),
            summary,
        }
    }));

    // --- 7. Detector FPR under benign faults vs TPR under attack ---
    // Episodes run one at a time (not through `run_attacked_episodes`)
    // because the detection verdict is read off the agent after each
    // episode: the switch latches, so `hardened_fraction() > 0` means the
    // detector fired at least once.
    let fault_ns = ns.child("fault-detector");
    let camera_attacker = BatchPolicy::from(&artifacts.camera_attacker);
    let imu_attacker = BatchPolicy::from(&artifacts.imu_attacker);
    let fault_detector_arms = drive_par::par_map(&FAULT_INTENSITIES, |_, &intensity| {
        let arm = fault_ns.child(format!("{intensity:.1}"));
        let schedule = FaultSchedule::benign(intensity, arm.child("schedule").seed());
        let mut fired = [0usize; 3]; // benign, camera, imu
        let mut hardened_sum = 0.0;
        for e in 0..episodes {
            let ep = arm.child(e);
            let seed = ep.seed();
            let act_fault_seed = ep.child("act-faults").seed();
            let mut run_one = |attack_sensor: Option<SensorKind>| -> bool {
                let mut agent = DetectorSimplexAgent::new(
                    pnn.clone(),
                    0.2,
                    config.features.clone(),
                    DetectorConfig::default(),
                    7,
                )
                .with_observation_faults(FaultInjector::for_episode(&schedule, seed));
                let mut attacker = attack_sensor.map(|sk| {
                    let sensor = AttackerSensor::new(sk, &config.features, &config.imu, seed);
                    let policy = match sk {
                        SensorKind::Camera => camera_attacker.clone(),
                        SensorKind::Imu => imu_attacker.clone(),
                    };
                    LearnedAttacker::new(policy, sensor, budget, seed, true)
                });
                let mut act_faults = FaultInjector::for_episode(&schedule, act_fault_seed);
                let _ = run_attacked_episode_with_faults(
                    &mut agent,
                    attacker
                        .as_mut()
                        .map(|a| a as &mut dyn drive_agents::runner::SteerAttacker),
                    &adv,
                    &config.scenario,
                    seed,
                    Some(&mut act_faults),
                );
                hardened_sum += if attack_sensor.is_none() {
                    agent.hardened_fraction()
                } else {
                    0.0
                };
                agent.hardened_fraction() > 0.0
            };
            fired[0] += usize::from(run_one(None));
            fired[1] += usize::from(run_one(Some(SensorKind::Camera)));
            fired[2] += usize::from(run_one(Some(SensorKind::Imu)));
        }
        let n = episodes.max(1) as f64;
        FaultDetectorCell {
            intensity,
            benign_fpr: fired[0] as f64 / n,
            camera_tpr: fired[1] as f64 / n,
            imu_tpr: fired[2] as f64 / n,
            mean_hardened_benign: hardened_sum / n,
        }
    });

    AblationResult {
        attacker_arms,
        switcher_arms,
        imu_noise_arms,
        detector_arms,
        transfer_arms,
        paradigm_arms,
        fault_detector_arms,
    }
}

impl AblationResult {
    /// Sections 1–6 as `(section, arms)` pairs, in report order.
    fn sections(&self) -> [(&'static str, &[AblationCell]); 6] {
        [
            ("attacker", &self.attacker_arms),
            ("switcher", &self.switcher_arms),
            ("imu-noise", &self.imu_noise_arms),
            ("detector", &self.detector_arms),
            ("transfer", &self.transfer_arms),
            ("paradigm", &self.paradigm_arms),
        ]
    }

    /// Exports ablations 1–6 as CSV (one row per arm).
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "section",
            "arm",
            "success_rate",
            "adv_mean",
            "nominal_mean",
            "mean_effort",
            "episodes",
        ]);
        for (section, arms) in self.sections() {
            for a in arms {
                csv.row([
                    section.to_string(),
                    a.label.clone(),
                    format!("{:.3}", a.summary.success_rate),
                    format!("{:.3}", a.summary.adversarial.mean),
                    format!("{:.3}", a.summary.nominal.mean),
                    format!("{:.4}", a.summary.mean_effort),
                    a.summary.episodes.to_string(),
                ]);
            }
        }
        csv
    }

    /// Exports ablation 7 (detector vs benign faults) as CSV.
    pub fn fault_detector_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "intensity",
            "benign_fpr",
            "camera_tpr",
            "imu_tpr",
            "mean_hardened_benign",
        ]);
        for c in &self.fault_detector_arms {
            csv.row([
                format!("{:.1}", c.intensity),
                format!("{:.3}", c.benign_fpr),
                format!("{:.3}", c.camera_tpr),
                format!("{:.3}", c.imu_tpr),
                format!("{:.4}", c.mean_hardened_benign),
            ]);
        }
        csv
    }
}

/// Registry entry for the ablation studies.
pub struct AblationsExperiment;

impl Experiment for AblationsExperiment {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn description(&self) -> &'static str {
        "Seven ablation arms: attacker, switcher, noise, detector, transfer, paradigm, faults"
    }

    fn cells(&self) -> usize {
        // 1: oracle + learned; 2: four sigmas; 3: four noise levels;
        // 4: three eps pairs; 5: four scenarios; 6: action + three state;
        // 7: default three fault intensities.
        2 + 4 + 4 + 6 + 4 + 4 + 3
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![
                ("ablations".to_string(), r.to_csv()),
                (
                    "ablations_fault_detector".to_string(),
                    r.fault_detector_csv(),
                ),
            ],
            svgs: Vec::new(),
        }
    }
}

fn arm_table(title: &str, arms: &[AblationCell]) -> String {
    let mut t = Table::new(["arm", "success", "adv mean", "nominal mean", "mean effort"]);
    for a in arms {
        t.row([
            a.label.clone(),
            fmt_pct(a.summary.success_rate),
            fmt_f(a.summary.adversarial.mean, 1),
            fmt_f(a.summary.nominal.mean, 1),
            fmt_f(a.summary.mean_effort, 2),
        ]);
    }
    format!("{title}\n{t}")
}

impl std::fmt::Display for AblationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 1 — oracle vs learned camera attacker (eps=1.0)",
                &self.attacker_arms
            )
        )?;
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 2 — PNN switcher threshold sweep (eps=0.5)",
                &self.switcher_arms
            )
        )?;
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 3 — IMU attack vs sensor noise (eps=1.0)",
                &self.imu_noise_arms
            )
        )?;
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 4 — idealized vs detector-driven PNN switcher (sigma=0.2)",
                &self.detector_arms
            )
        )?;
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 5 — attack/victim transfer to unseen traffic (eps=1.0)",
                &self.transfer_arms
            )
        )?;
        writeln!(
            f,
            "{}",
            arm_table(
                "Ablation 6 — action-space (black-box) vs state-space (white-box) attacks",
                &self.paradigm_arms
            )
        )?;
        writeln!(
            f,
            "Ablation 7 — detector FPR under benign faults vs TPR under attack (eps=1.0)"
        )?;
        let mut t = Table::new([
            "fault intensity",
            "benign FPR",
            "TPR (camera)",
            "TPR (imu)",
            "hardened frac (benign)",
        ]);
        for c in &self.fault_detector_arms {
            t.row([
                fmt_f(c.intensity, 1),
                fmt_pct(c.benign_fpr),
                fmt_pct(c.camera_tpr),
                fmt_pct(c.imu_tpr),
                fmt_f(c.mean_hardened_benign, 3),
            ]);
        }
        writeln!(f, "{t}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_ablations_run() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-ablations-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.attacker_arms.len(), 2);
        assert_eq!(result.switcher_arms.len(), 4);
        assert_eq!(result.imu_noise_arms.len(), 4);
        assert_eq!(result.detector_arms.len(), 6);
        assert_eq!(result.transfer_arms.len(), 4);
        assert_eq!(result.paradigm_arms.len(), 4);
        assert_eq!(result.fault_detector_arms.len(), 3);
        // Clean episodes must not trip the detector; a full-budget camera
        // attack must (regardless of fault intensity).
        let clean = &result.fault_detector_arms[0];
        assert_eq!(clean.intensity, 0.0);
        assert_eq!(clean.benign_fpr, 0.0, "no faults, no attack, no alarm");
        // The quick-pipeline attacker is barely trained, so absolute TPR
        // is scale-dependent; the ordering TPR >= FPR must still hold on
        // clean episodes.
        assert!(
            clean.camera_tpr >= clean.benign_fpr,
            "camera TPR {} vs FPR {}",
            clean.camera_tpr,
            clean.benign_fpr
        );
        let text = format!("{result}");
        assert!(text.contains("oracle"));
        assert!(text.contains("sigma=0.4"));
        assert!(text.contains("noise x10"));
        assert!(text.contains("detector switcher"));
        assert!(text.contains("two-lane"));
        assert!(text.contains("state-space"));
        assert!(text.contains("benign FPR"));
        // CSV exports cover every arm.
        assert_eq!(result.to_csv().len(), 2 + 4 + 4 + 6 + 4 + 4);
        assert_eq!(result.fault_detector_csv().len(), 3);
    }

    /// Arms 2, 3, 4's idealized switcher and 5 step through the fleet
    /// when the context has one, on the serial loops' seed grids: at batch
    /// 1, at batch 3 (slots refill mid-cell) and at the default batch,
    /// every arm of every section equals the serial run's to the last bit
    /// of its summary.
    #[test]
    fn fleet_arms_match_serial() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = crate::harness::parity_artifacts("ablation-arms");
        let mut serial = RunContext::new(&artifacts, &config, Scale::smoke());
        serial.fleet = None;
        let want = format!("{:?}", compute(&serial));
        for batch in [1, 3, crate::engine::FLEET_BATCH] {
            let mut ctx = RunContext::new(&artifacts, &config, Scale::smoke());
            ctx.fleet = Some(batch);
            assert_eq!(format!("{:?}", compute(&ctx)), want, "batch {batch}");
        }
    }
}
