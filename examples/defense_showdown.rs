//! Compare the original end-to-end agent against the PNN-defended agent
//! under a full-budget camera attack, using the trained checkpoints under
//! `artifacts/` (run `cargo run --release -p repro-bench --bin prepare`
//! first; this example falls back to the oracle attacker against the
//! modular agent when no artifacts exist).
//!
//! ```sh
//! cargo run --release --example defense_showdown
//! ```

use ad_action_attacks::attacks::defense::SimplexSwitcher;
use ad_action_attacks::attacks::learned::LearnedAttacker;
use ad_action_attacks::attacks::sensor::AttackerSensor;
use ad_action_attacks::nn::batch::BatchPolicy;
use ad_action_attacks::nn::checkpoint;
use ad_action_attacks::nn::pnn::PackedPnn;
use ad_action_attacks::prelude::*;

fn summarize(label: &str, records: &[EpisodeRecord]) {
    let s = CellSummary::from_records(records);
    println!(
        "{label:<24} success {:>4.0}%  nominal {:>7.1}  passed {:.2}",
        s.success_rate * 100.0,
        s.nominal.mean,
        s.mean_passed
    );
}

fn main() {
    let scenario = Scenario::default();
    let adv = AdvReward::default();
    let budget = AttackBudget::new(1.0);
    let episodes = 15;

    let victim = checkpoint::load_from_file("artifacts/victim_e2e.ckpt")
        .ok()
        .and_then(|t| checkpoint::decode_policy(&t).ok())
        .map(BatchPolicy::from);
    let attacker = checkpoint::load_from_file("artifacts/attacker_camera.ckpt")
        .ok()
        .and_then(|t| checkpoint::decode_policy(&t).ok())
        .map(BatchPolicy::from);
    let pnn = checkpoint::load_from_file("artifacts/pnn_defense.ckpt")
        .ok()
        .and_then(|t| checkpoint::decode_pnn(&t).ok());

    match (victim, attacker, pnn) {
        (Some(victim), Some(attacker), Some(pnn)) => {
            let features = FeatureConfig::default();
            println!("full-budget camera attack, {episodes} episodes each:\n");

            let mut ori = E2eAgent::new(victim, features.clone(), 0, true);
            let records = run_attacked_episodes(
                &mut ori,
                |seed| {
                    Some(LearnedAttacker::new(
                        attacker.clone(),
                        AttackerSensor::camera(features.clone()),
                        budget,
                        seed,
                        true,
                    ))
                },
                &adv,
                &scenario,
                episodes,
                31_000,
            );
            summarize("pi_ori (undefended)", &records);

            let switcher = SimplexSwitcher::new(PackedPnn::from(pnn), 0.2, budget.epsilon());
            let mut defended = E2eAgent::new(switcher, features.clone(), 0, true);
            let records = run_attacked_episodes(
                &mut defended,
                |seed| {
                    Some(LearnedAttacker::new(
                        attacker.clone(),
                        AttackerSensor::camera(features.clone()),
                        budget,
                        seed,
                        true,
                    ))
                },
                &adv,
                &scenario,
                episodes,
                31_000,
            );
            summarize("pi_pnn (sigma=0.2)", &records);
        }
        _ => {
            println!("no trained artifacts found under artifacts/ — falling back to");
            println!("the oracle attacker against the modular pipeline.\n");
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            let records = run_attacked_episodes(
                &mut agent,
                |_| Some(OracleAttacker::new(budget)),
                &adv,
                &scenario,
                episodes,
                31_000,
            );
            summarize("modular vs oracle", &records);
            println!("\nrun `cargo run --release -p repro-bench --bin prepare` for the full cast.");
        }
    }
}
