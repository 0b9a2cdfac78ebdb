//! Golden digests of all five SAC-refined training stages.
//!
//! Each stage trains at a token budget that still runs SAC updates: every
//! `sac_steps` is past the 1 000-transition warm-up, and the victim's run
//! is long enough to get past its 1 000-update critic warm-up, so the actor
//! itself moves. The budgets are chosen so that every stage returns
//! SAC-updated weights, not its warm start (checked when the digests were
//! recorded). The test asserts FNV-1a digests of the encoded checkpoints. Any change to the order of training-RNG draws or simulated
//! steps, the update schedule, best-actor selection or the defenses'
//! per-episode budget draws changes a digest. The digests are re-validated,
//! never re-blessed: a refactor of the training loop must leave them as
//! they are.

use attack_core::defense::{adversarial_finetune, train_pnn_defense, DefenseTrainConfig};
use attack_core::pipeline::PipelineConfig;
use attack_core::train::{train_camera_attacker, train_imu_attacker, AttackTrainConfig};
use drive_agents::training::{train_victim, VictimTrainConfig};
use drive_nn::checkpoint::{encode_pnn, encode_policy};
use drive_seed::fnv1a_64;

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a_64(text.as_bytes()))
}

#[test]
fn every_training_stage_matches_its_golden_digest() {
    let config = PipelineConfig {
        victim: VictimTrainConfig {
            demo_episodes: 2,
            bc_steps: 400,
            sac_steps: 3_000,
            update_every: 1,
            hidden: vec![16],
            eval_episodes: 1,
            eval_every: 1_000,
            ..VictimTrainConfig::default()
        },
        attack: AttackTrainConfig {
            bc_episodes: 2,
            bc_steps: 100,
            sac_steps: 2_000,
            update_every: 1,
            hidden: vec![16],
            eval_episodes: 2,
            eval_every: 250,
            ..AttackTrainConfig::default()
        },
        ..PipelineConfig::default()
    };
    let defense = |rho: f64, eval_every: usize| DefenseTrainConfig {
        rho,
        sac_steps: 1_300,
        update_every: 2,
        hidden: vec![16],
        actor_delay: 20,
        eval_episodes: 1,
        eval_every,
        ..DefenseTrainConfig::default()
    };
    // `eval_every: 0` returns the final weights, so one defense pins the
    // learner's state after its last update rather than a selected copy.
    let rho_small = defense(1.0 / 11.0, 100);
    let rho_half = defense(0.5, 0);
    let pnn_config = defense(0.0, 50);

    let victim = train_victim(&config.scenario, &config.features, &config.victim);
    let builder = || config.victim_agent(&victim, 0xe2e);
    let camera =
        train_camera_attacker(&builder, &config.scenario, &config.features, &config.attack);
    let imu = train_imu_attacker(
        &builder,
        &camera,
        &config.scenario,
        &config.features,
        &config.imu,
        &config.attack,
    );
    let train_defense = |c: &DefenseTrainConfig| {
        adversarial_finetune(&victim, &camera, &config.scenario, &config.features, c)
    };
    let adv_small = train_defense(&rho_small);
    let adv_half = train_defense(&rho_half);
    let pnn = train_pnn_defense(
        &victim,
        &camera,
        &config.scenario,
        &config.features,
        &pnn_config,
    );

    let got = [
        ("victim", digest(&encode_policy(&victim))),
        ("attacker_camera", digest(&encode_policy(&camera))),
        ("attacker_imu", digest(&encode_policy(&imu))),
        ("adv_rho_1_11", digest(&encode_policy(&adv_small))),
        ("adv_rho_1_2", digest(&encode_policy(&adv_half))),
        ("pnn", digest(&encode_pnn(&pnn))),
    ];
    let expected = [
        ("victim", "8a5cbd63eb5d2748"),
        ("attacker_camera", "177c30dfab73fff6"),
        ("attacker_imu", "53df66be02a5561e"),
        ("adv_rho_1_11", "0c6968f901b601c6"),
        ("adv_rho_1_2", "4933840c096c5518"),
        ("pnn", "1a32873e9cab7809"),
    ];
    let got: Vec<(&str, &str)> = got.iter().map(|(s, d)| (*s, d.as_str())).collect();
    assert_eq!(got, expected, "a stage's checkpoint digest changed");
}
