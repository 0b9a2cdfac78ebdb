//! Evaluation harness: runs victim/attacker pairings and fills complete
//! [`EpisodeRecord`]s — including the cumulative adversarial reward — for
//! the metrics layer.

use crate::adv_reward::AdvReward;
use drive_agents::runner::{run_episode_with_faults, SteerAttacker};
use drive_agents::Agent;
use drive_sim::faults::FaultInjector;
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::Scenario;

/// Runs one attacked episode, computing both the nominal driving reward
/// (inside the runner) and the cumulative adversarial reward.
pub fn run_attacked_episode(
    agent: &mut dyn Agent,
    attacker: Option<&mut dyn SteerAttacker>,
    adv: &AdvReward,
    scenario: &Scenario,
    seed: u64,
) -> EpisodeRecord {
    run_attacked_episode_with_faults(agent, attacker, adv, scenario, seed, None)
}

/// [`run_attacked_episode`] with an optional actuation-side fault injector
/// in the loop (see `drive-agents::runner::run_episode_with_faults`).
/// Sensor-side faults are configured on the agent itself (e.g.
/// [`crate::detector::DetectorSimplexAgent::with_observation_faults`]).
pub fn run_attacked_episode_with_faults(
    agent: &mut dyn Agent,
    attacker: Option<&mut dyn SteerAttacker>,
    adv: &AdvReward,
    scenario: &Scenario,
    seed: u64,
    faults: Option<&mut FaultInjector>,
) -> EpisodeRecord {
    let mut adv_return = 0.0;
    let mut record = run_episode_with_faults(
        agent,
        scenario,
        seed,
        attacker,
        faults,
        |world, outcome, delta| {
            adv_return += adv.step(world, outcome, delta);
        },
    );
    record.adv_return = adv_return;
    record
}

/// Runs `episodes` attacked episodes with seeds `base_seed..`.
///
/// `make_attacker` builds a fresh attacker per episode (or `None` for the
/// nominal case); this keeps per-episode attacker state (sensor windows,
/// RNG streams) independent and reproducible.
pub fn run_attacked_episodes<A, F>(
    agent: &mut dyn Agent,
    mut make_attacker: F,
    adv: &AdvReward,
    scenario: &Scenario,
    episodes: usize,
    base_seed: u64,
) -> Vec<EpisodeRecord>
where
    A: SteerAttacker,
    F: FnMut(u64) -> Option<A>,
{
    (0..episodes)
        .map(|e| {
            let seed = base_seed + e as u64;
            let mut attacker = make_attacker(seed);
            run_attacked_episode(
                agent,
                attacker.as_mut().map(|a| a as &mut dyn SteerAttacker),
                adv,
                scenario,
                seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::AttackBudget;
    use crate::oracle::OracleAttacker;
    use drive_agents::modular::{ModularAgent, ModularConfig};

    #[test]
    fn nominal_episode_has_negative_adv_return_and_no_attack() {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let adv = AdvReward::default();
        let rec = run_attacked_episode(&mut agent, None, &adv, &Scenario::default(), 0);
        assert!(rec.collision.is_none());
        // No collision bonus: the nominal case nets at most incidental
        // alongside-potential, far below a successful attack's return.
        assert!(rec.adv_return < AdvReward::default().config.collision_reward);
        assert_eq!(rec.attack_effort(), 0.0);
    }

    #[test]
    fn oracle_attack_scores_higher_than_nominal() {
        let adv = AdvReward::default();
        let scenario = Scenario::default();
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let nominal = run_attacked_episodes(
            &mut agent,
            |_| None::<OracleAttacker>,
            &adv,
            &scenario,
            5,
            0,
        );
        let attacked = run_attacked_episodes(
            &mut agent,
            |_| Some(OracleAttacker::new(AttackBudget::new(1.0))),
            &adv,
            &scenario,
            5,
            0,
        );
        let mean = |rs: &[drive_sim::record::EpisodeRecord]| {
            rs.iter().map(|r| r.adv_return).sum::<f64>() / rs.len() as f64
        };
        assert!(
            mean(&attacked) > mean(&nominal),
            "attacked {} vs nominal {}",
            mean(&attacked),
            mean(&nominal)
        );
        // The full-budget oracle also wrecks the nominal driving reward.
        let nom_ret = nominal.iter().map(|r| r.nominal_return).sum::<f64>() / 5.0;
        let atk_ret = attacked.iter().map(|r| r.nominal_return).sum::<f64>() / 5.0;
        assert!(atk_ret < nom_ret);
    }
}
