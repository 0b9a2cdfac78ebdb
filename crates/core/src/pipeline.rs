//! End-to-end artifact preparation for the experiment harnesses.
//!
//! Training every model of the paper (victim, camera attacker, IMU
//! attacker, two fine-tuned agents, the PNN) at the default budgets takes
//! about 150 s on a 2-vCPU x86-64 host (a full `prepare`); this module
//! trains each stage once and caches it as a plain-text
//! checkpoint under an artifacts directory, so every figure harness can
//! `prepare()` and get the full cast instantly on re-runs.

use crate::defense::{adversarial_finetune, train_pnn_defense, DefenseTrainConfig};
use crate::train::{train_camera_attacker, train_imu_attacker, AttackTrainConfig};
use drive_agents::e2e::E2eAgent;
use drive_agents::training::{train_victim, VictimTrainConfig};
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::checkpoint::{
    decode_pnn, decode_policy, encode_pnn_into, encode_policy_into, load_from_file, save_with,
    CheckpointError,
};
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::PnnPolicy;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, ImuConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every trainable of the paper, ready for evaluation.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The original end-to-end victim `pi_ori`.
    pub victim: GaussianPolicy,
    /// The camera-based attack policy.
    pub camera_attacker: GaussianPolicy,
    /// The IMU-based attack policy (learning-from-teacher).
    pub imu_attacker: GaussianPolicy,
    /// Fine-tuned agent with `rho = 1/11`.
    pub adv_rho_small: GaussianPolicy,
    /// Fine-tuned agent with `rho = 1/2`.
    pub adv_rho_half: GaussianPolicy,
    /// The PNN (one set of weights serves both switcher thresholds),
    /// frozen and shared: every switcher holds this one copy, packs
    /// included.
    pub pnn: Arc<PnnPolicy>,
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Directory for cached checkpoints.
    pub dir: PathBuf,
    /// Scenario every stage trains and evaluates on.
    pub scenario: Scenario,
    /// Victim / camera feature configuration.
    pub features: FeatureConfig,
    /// IMU configuration.
    pub imu: ImuConfig,
    /// Victim training budgets.
    pub victim: VictimTrainConfig,
    /// Attacker training budgets (camera and IMU).
    pub attack: AttackTrainConfig,
    /// Fine-tuning with `rho = 1/11`.
    pub defense_rho_small: DefenseTrainConfig,
    /// Fine-tuning with `rho = 1/2`.
    pub defense_rho_half: DefenseTrainConfig,
    /// PNN column training (all-adversarial episodes).
    pub defense_pnn: DefenseTrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dir: PathBuf::from("artifacts"),
            scenario: Scenario::default(),
            features: FeatureConfig::default(),
            imu: ImuConfig::default(),
            victim: VictimTrainConfig::default(),
            attack: AttackTrainConfig::default(),
            defense_rho_small: DefenseTrainConfig {
                rho: 1.0 / 11.0,
                ..DefenseTrainConfig::default()
            },
            defense_rho_half: DefenseTrainConfig {
                rho: 0.5,
                ..DefenseTrainConfig::default()
            },
            defense_pnn: DefenseTrainConfig {
                rho: 0.0,
                ..DefenseTrainConfig::default()
            },
        }
    }
}

impl PipelineConfig {
    /// A heavily reduced preset for tests and smoke runs: every stage
    /// trains for a token number of steps. The resulting models are *not*
    /// expected to reproduce the paper's numbers — use the default preset
    /// for that.
    pub fn quick(dir: impl Into<PathBuf>) -> Self {
        let mut c = PipelineConfig {
            dir: dir.into(),
            ..PipelineConfig::default()
        };
        c.victim = VictimTrainConfig {
            demo_episodes: 8,
            bc_steps: 400,
            sac_steps: 0,
            ..c.victim
        };
        c.attack = AttackTrainConfig {
            bc_episodes: 4,
            bc_steps: 300,
            sac_steps: 0,
            ..c.attack
        };
        for d in [
            &mut c.defense_rho_small,
            &mut c.defense_rho_half,
            &mut c.defense_pnn,
        ] {
            d.sac_steps = 600;
            d.hidden = vec![32];
        }
        c
    }

    /// Builds a fresh deterministic victim agent around a policy, frozen
    /// and pre-packed for evaluation.
    pub fn victim_agent(&self, policy: &GaussianPolicy, seed: u64) -> Box<dyn Agent> {
        Box::new(E2eAgent::new(
            BatchPolicy::from(policy.clone()),
            self.features.clone(),
            seed,
            true,
        ))
    }
}

/// Loads and decodes a cached artifact: `Ok(None)` when no file exists
/// yet, the typed error when one exists but does not load (a checksum
/// mismatch, a parse failure, an unreadable file).
fn load_cached<T>(
    path: &Path,
    decode: impl Fn(&str) -> Result<T, CheckpointError>,
) -> Result<Option<T>, CheckpointError> {
    match load_from_file(path) {
        Ok(text) => decode(&text).map(Some),
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The artifact at `path`, trained (and saved) when it does not load. A
/// missing file trains quietly; any other load failure is reported with
/// its path and error first, since retraining overwrites the file. The
/// save streams `encode`'s text to disk.
fn cached<T>(
    path: &Path,
    decode: impl Fn(&str) -> Result<T, CheckpointError>,
    encode: impl Fn(&mut dyn fmt::Write, &T) -> fmt::Result,
    train: impl FnOnce() -> T,
) -> T {
    match load_cached(path, decode) {
        Ok(Some(v)) => {
            eprintln!("[pipeline] loaded {}", path.display());
            return v;
        }
        Ok(None) => {}
        Err(e) => eprintln!("[pipeline] cannot load {}: {e}; retraining", path.display()),
    }
    let t0 = std::time::Instant::now();
    let v = train();
    eprintln!(
        "[pipeline] trained {} in {:.1}s",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    if let Err(e) = save_with(path, |out| encode(out, &v)) {
        eprintln!("[pipeline] warning: could not save {}: {e}", path.display());
    }
    v
}

/// Prepares (trains or loads) every artifact.
pub fn prepare(config: &PipelineConfig) -> Artifacts {
    let dir = &config.dir;
    let policy_cache = |name: &str, train: &mut dyn FnMut() -> GaussianPolicy| {
        let mut train = Some(train);
        cached(&dir.join(name), decode_policy, encode_policy_into, || {
            (train.take().expect("train called once"))()
        })
    };

    let victim = policy_cache("victim_e2e.ckpt", &mut || {
        // Give the long SAC refinement a crash-recovery snapshot next to
        // the artifact cache (unless the caller pinned one): a killed run
        // resumes mid-training instead of restarting the whole stage.
        let mut victim_config = config.victim.clone();
        if victim_config.snapshot_path.is_none() {
            victim_config.snapshot_path = Some(dir.join("snapshots").join("victim_sac.snap"));
        }
        train_victim(&config.scenario, &config.features, &victim_config)
    });

    let camera_attacker = policy_cache("attacker_camera.ckpt", &mut || {
        let builder = || config.victim_agent(&victim, 0xe2e);
        train_camera_attacker(&builder, &config.scenario, &config.features, &config.attack)
    });

    let imu_attacker = policy_cache("attacker_imu.ckpt", &mut || {
        let builder = || config.victim_agent(&victim, 0xe2e);
        train_imu_attacker(
            &builder,
            &camera_attacker,
            &config.scenario,
            &config.features,
            &config.imu,
            &config.attack,
        )
    });

    let adv_rho_small = policy_cache("adv_rho_1_11.ckpt", &mut || {
        adversarial_finetune(
            &victim,
            &camera_attacker,
            &config.scenario,
            &config.features,
            &config.defense_rho_small,
        )
    });

    let adv_rho_half = policy_cache("adv_rho_1_2.ckpt", &mut || {
        adversarial_finetune(
            &victim,
            &camera_attacker,
            &config.scenario,
            &config.features,
            &config.defense_rho_half,
        )
    });

    let pnn = cached(
        &dir.join("pnn_defense.ckpt"),
        decode_pnn,
        encode_pnn_into,
        || {
            train_pnn_defense(
                &victim,
                &camera_attacker,
                &config.scenario,
                &config.features,
                &config.defense_pnn,
            )
        },
    );

    Artifacts {
        victim,
        camera_attacker,
        imu_attacker,
        adv_rho_small,
        adv_rho_half,
        pnn: Arc::new(pnn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of this test process alone: concurrent runs of the
    /// suite do not share it.
    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn quick_pipeline_round_trips_through_cache() {
        let dir = temp("attack-core-pipeline-test");
        let config = PipelineConfig::quick(&dir);
        let a1 = prepare(&config);
        // Second call loads from cache: identical weights.
        let a2 = prepare(&config);
        let obs = drive_nn::mat::Mat::from_row(&vec![0.1f32; config.features.observation_dim()]);
        assert_eq!(a1.victim.mean_action(&obs), a2.victim.mean_action(&obs));
        let staged = |p: &drive_nn::pnn::PnnPolicy| {
            let mut s = drive_nn::scratch::BatchActScratch::default();
            p.stage(obs.rows(), &mut s).copy_from(&obs);
            p.infer_staged(&mut s).clone()
        };
        assert_eq!(
            staged(&a1.pnn),
            staged(&a2.pnn),
            "pnn must round trip through its checkpoint"
        );
        assert_eq!(a1.imu_attacker.obs_dim(), config.imu.observation_dim());
        assert_eq!(
            a1.camera_attacker.obs_dim(),
            config.features.observation_dim()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cached checkpoint with one flipped byte is reported as corrupt
    /// (and so retrained), never loaded; a missing one is just absent.
    #[test]
    fn flipped_byte_in_a_cached_checkpoint_reports_corrupt() {
        let dir = temp("attack-core-pipeline-corrupt-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let path = dir.join("victim_e2e.ckpt");
        assert!(matches!(load_cached(&path, decode_policy), Ok(Some(_))));

        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.iter().position(|&b| b == b'.').expect("a float");
        bytes[at] = b'5';
        std::fs::write(&path, &bytes).unwrap();
        match load_cached(&path, decode_policy) {
            Err(CheckpointError::Corrupt { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected Corrupt, got {:?}", other.map(|o| o.is_some())),
        }
        // Retraining rewrites the file with the same deterministic weights.
        let again = prepare(&config);
        assert_eq!(again.victim, artifacts.victim);
        assert!(matches!(load_cached(&path, decode_policy), Ok(Some(_))));

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load_cached(&path, decode_policy), Ok(None)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
