//! Cross-crate integration tests: the full attack loop from simulator
//! through agents, attacks, and metrics.

use ad_action_attacks::prelude::*;

/// The modular pipeline overtakes the traffic in the nominal scenario.
#[test]
fn modular_pipeline_completes_nominal_scenario() {
    let mut agent = ModularAgent::new(ModularConfig::default(), 1);
    let records = run_episodes(&mut agent, &Scenario::default(), 10, 0);
    let summary = CellSummary::from_records(&records);
    assert_eq!(summary.collision_rate, 0.0, "no collisions expected");
    assert!(
        summary.mean_passed >= 4.5,
        "mean passed {}",
        summary.mean_passed
    );
    assert!(
        summary.nominal.mean > 120.0,
        "mean reward {}",
        summary.nominal.mean
    );
}

/// The oracle action-space attack converts clean episodes into side
/// collisions, and the metrics pipeline sees exactly that.
#[test]
fn oracle_attack_end_to_end_through_metrics() {
    let scenario = Scenario::default();
    let adv = AdvReward::default();
    let mut agent = ModularAgent::new(ModularConfig::default(), 1);

    let attacked = run_attacked_episodes(
        &mut agent,
        |_| Some(OracleAttacker::new(AttackBudget::new(1.0))),
        &adv,
        &scenario,
        10,
        100,
    );
    let summary = CellSummary::from_records(&attacked);
    assert!(
        summary.success_rate >= 0.5,
        "success {}",
        summary.success_rate
    );
    assert!(summary.adversarial.mean > 0.0);

    // Scatter + windowing shape checks (Fig. 5 / Fig. 8 machinery).
    let points = scatter_points(&attacked);
    assert_eq!(points.len(), 10);
    let windows = fig8_windows(&points);
    let total: usize = windows.iter().map(|w| w.count).sum();
    assert_eq!(total, 10, "every episode lands in exactly one window");

    // Timing statistic exists and is faster than a human's 1.25 s.
    let (mean_ttc, min_ttc) = time_to_collision_stats(&attacked).expect("successes exist");
    assert!(min_ttc <= mean_ttc + 1e-9);
    assert!(
        mean_ttc < 5.0,
        "side collisions happen quickly, got {mean_ttc}"
    );
}

/// The attack budget monotonically controls damage to the victim.
#[test]
fn budget_monotonically_degrades_driving() {
    let scenario = Scenario::default();
    let adv = AdvReward::default();
    let mut nominal_means = Vec::new();
    for eps in [0.0, 0.5, 1.0] {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let records = run_attacked_episodes(
            &mut agent,
            |_| (eps > 0.0).then(|| OracleAttacker::new(AttackBudget::new(eps))),
            &adv,
            &scenario,
            8,
            200,
        );
        nominal_means.push(CellSummary::from_records(&records).nominal.mean);
    }
    assert!(
        nominal_means[0] > nominal_means[1] && nominal_means[1] >= nominal_means[2] - 1.0,
        "nominal reward should fall with budget: {nominal_means:?}"
    );
}

/// A behaviour-cloned end-to-end agent drives the scenario through the
/// full RL + NN stack (tiny training budget — this is a wiring test).
#[test]
fn end_to_end_agent_trains_and_drives() {
    use drive_agents::training::{train_victim, VictimTrainConfig};

    let scenario = Scenario::default();
    let features = FeatureConfig::default();
    let config = VictimTrainConfig {
        demo_episodes: 12,
        bc_steps: 1200,
        sac_steps: 0,
        ..VictimTrainConfig::default()
    };
    let policy = train_victim(&scenario, &features, &config);
    let mut agent = E2eAgent::new(policy, features, 0, true);
    let records = run_episodes(&mut agent, &scenario, 3, 500);
    let summary = CellSummary::from_records(&records);
    // Tiny budget: just require sane driving (moves forward, mostly clean).
    assert!(
        summary.nominal.mean > 0.0,
        "reward {}",
        summary.nominal.mean
    );
}

/// Checkpointing round-trips a policy through disk and the loaded policy
/// behaves identically inside an agent.
#[test]
fn checkpoint_round_trip_preserves_behavior() {
    use ad_action_attacks::nn::checkpoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let features = FeatureConfig::default();
    let mut rng = StdRng::seed_from_u64(9);
    let policy = GaussianPolicy::new(features.observation_dim(), &[32, 32], 2, &mut rng);

    let dir = std::env::temp_dir().join("ad-action-attacks-integration");
    let path = dir.join("policy.ckpt");
    checkpoint::save_to_file(&path, &checkpoint::encode_policy(&policy)).unwrap();
    let loaded = checkpoint::decode_policy(&checkpoint::load_from_file(&path).unwrap()).unwrap();

    let scenario = Scenario::default();
    let mut a = E2eAgent::new(policy, features.clone(), 1, true);
    let mut b = E2eAgent::new(loaded, features, 1, true);
    let ra = run_episode(&mut a, &scenario, 3, None, |_, _, _| {});
    let rb = run_episode(&mut b, &scenario, 3, None, |_, _, _| {});
    assert_eq!(ra, rb);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PNN switcher routes between columns and both drive the scenario.
#[test]
fn pnn_switcher_drives_both_columns() {
    use ad_action_attacks::attacks::defense::SimplexSwitcher;
    use ad_action_attacks::nn::pnn::{PackedPnn, PnnPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let features = FeatureConfig::default();
    let mut rng = StdRng::seed_from_u64(4);
    let base = GaussianPolicy::new(features.observation_dim(), &[32], 2, &mut rng);
    let pnn = PackedPnn::from(PnnPolicy::new(base, &mut rng));
    let scenario = Scenario::default();

    for eps in [0.1, 0.9] {
        let switcher = SimplexSwitcher::new(pnn.clone(), 0.4, eps);
        let mut agent = E2eAgent::new(switcher, features.clone(), 0, true);
        let rec = run_episode(&mut agent, &scenario, 11, None, |_, _, _| {});
        assert!(rec.steps > 0);
    }
    // CopyBase + zero laterals: both columns act identically, so the
    // records must match across the switch threshold.
    let mut low = E2eAgent::new(
        SimplexSwitcher::new(pnn.clone(), 0.4, 0.1),
        features.clone(),
        0,
        true,
    );
    let mut high = E2eAgent::new(SimplexSwitcher::new(pnn, 0.4, 0.9), features, 0, true);
    let rl = run_episode(&mut low, &scenario, 11, None, |_, _, _| {});
    let rh = run_episode(&mut high, &scenario, 11, None, |_, _, _| {});
    assert_eq!(rl, rh);
}

/// IMU and camera attackers plug into the same runner interchangeably.
#[test]
fn learned_attacker_sensors_are_interchangeable() {
    use ad_action_attacks::attacks::learned::LearnedAttacker;
    use ad_action_attacks::attacks::sensor::AttackerSensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let features = FeatureConfig::default();
    let imu_cfg = ImuConfig::default();
    let scenario = Scenario::default();
    let adv = AdvReward::default();
    let mut rng = StdRng::seed_from_u64(2);
    let cam_policy = GaussianPolicy::new(features.observation_dim(), &[16], 1, &mut rng);
    let imu_policy = GaussianPolicy::new(imu_cfg.observation_dim(), &[16], 1, &mut rng);

    for (policy, sensor) in [
        (&cam_policy, AttackerSensor::camera(features.clone())),
        (&imu_policy, AttackerSensor::imu(imu_cfg.clone(), 3)),
    ] {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let mut attacker =
            LearnedAttacker::new(policy.clone(), sensor, AttackBudget::new(0.5), 1, true);
        let rec = run_attacked_episode(&mut agent, Some(&mut attacker), &adv, &scenario, 5);
        assert!(rec.steps > 0);
        assert!(rec.attack_effort() <= 0.5 + 1e-9);
    }
}
