#![warn(missing_docs)]

//! # attack-core — learning-based action-space attacks and defenses
//!
//! The paper's primary contribution: black-box DRL attack policies that
//! perturb the victim's steering-variation channel (camera-based and
//! IMU-based with learning-from-teacher), the adversarial reward that
//! shapes them, and the two defense mechanisms studied in Section VI —
//! adversarial training via fine-tuning and progressive neural networks
//! behind a Simplex-style switcher.

pub mod adv_reward;
pub mod attack_env;
pub mod budget;
pub mod defense;
pub mod detector;
pub mod eval;
pub mod fleet;
pub mod learned;
pub mod oracle;
pub mod pipeline;
pub mod sensor;
pub mod state_attack;
pub mod train;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::adv_reward::{AdvReward, AdvRewardConfig};
    pub use crate::attack_env::{AttackEnv, Teacher};
    pub use crate::budget::AttackBudget;
    pub use crate::defense::{
        adversarial_finetune, sample_training_budget, train_pnn_defense, DefenseTrainConfig,
        SimplexSwitcher,
    };
    pub use crate::detector::{DetectorConfig, DetectorSimplexAgent, PerturbationDetector};
    pub use crate::eval::{run_attacked_episode, run_attacked_episodes};
    pub use crate::fleet::FleetEval;
    pub use crate::learned::LearnedAttacker;
    pub use crate::oracle::OracleAttacker;
    pub use crate::pipeline::{prepare, Artifacts, PipelineConfig};
    pub use crate::sensor::{AttackerSensor, SensorKind};
    pub use crate::state_attack::{perturb_observation, StateAttackConfig, StateAttackedAgent};
    pub use crate::train::{
        collect_oracle_demos, collect_teacher_demos, evaluate_attack_policy, train_camera_attacker,
        train_imu_attacker, AttackTrainConfig, VictimBuilder,
    };
}
