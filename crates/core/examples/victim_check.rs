//! Quick calibration check: the trained e2e victim vs the trained camera
//! attacker across budgets (run after `prepare`).

use attack_core::prelude::*;
use drive_agents::prelude::*;
use drive_metrics::prelude::*;
use drive_nn::batch::BatchPolicy;
use drive_nn::checkpoint;
use drive_sim::prelude::*;

fn main() {
    let victim = BatchPolicy::from(
        checkpoint::decode_policy(
            &checkpoint::load_from_file("artifacts/victim_e2e.ckpt").expect("run prepare first"),
        )
        .unwrap(),
    );
    let attacker = checkpoint::load_from_file("artifacts/attacker_camera.ckpt")
        .ok()
        .and_then(|t| checkpoint::decode_policy(&t).ok())
        .map(BatchPolicy::from);
    let scenario = Scenario::default();
    let features = FeatureConfig::default();
    let adv = AdvReward::default();

    let mut agent = E2eAgent::new(victim.clone(), features.clone(), 0, true);
    let recs = run_episodes(&mut agent, &scenario, 20, 700);
    let s = CellSummary::from_records(&recs);
    println!(
        "victim nominal: return={:.1} passed={:.2} collisions={:.0}%",
        s.nominal.mean,
        s.mean_passed,
        s.collision_rate * 100.0
    );

    let Some(attacker) = attacker else {
        println!("(no camera attacker checkpoint yet — nominal check only)");
        return;
    };
    println!("budget  success  nominal  effort  ttc");
    for eps in [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0] {
        let mut agent = E2eAgent::new(victim.clone(), features.clone(), 0, true);
        let recs = run_attacked_episodes(
            &mut agent,
            |seed| {
                Some(LearnedAttacker::new(
                    attacker.clone(),
                    AttackerSensor::camera(features.clone()),
                    AttackBudget::new(eps),
                    seed,
                    true,
                ))
            },
            &adv,
            &scenario,
            20,
            700,
        );
        let s = CellSummary::from_records(&recs);
        let ttc = time_to_collision_stats(&recs)
            .map(|(m, _)| format!("{m:.2}s"))
            .unwrap_or("-".into());
        println!(
            "{eps:<7.2} {:>4.0}%   {:>7.1}  {:.2}    {ttc}",
            s.success_rate * 100.0,
            s.nominal.mean,
            s.mean_effort
        );
    }
}
