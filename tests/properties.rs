//! Property-based tests (proptest) of core invariants across the stack.

use ad_action_attacks::prelude::*;
use proptest::prelude::*;

proptest! {
    // ---------- geometry ----------

    /// Angle normalization always lands in [-pi, pi).
    #[test]
    fn normalize_angle_in_range(a in -1000.0f64..1000.0) {
        let n = normalize_angle(a);
        prop_assert!((-std::f64::consts::PI..std::f64::consts::PI).contains(&n));
        // And is congruent to the input mod 2*pi.
        let diff = (a - n) / std::f64::consts::TAU;
        prop_assert!((diff - diff.round()).abs() < 1e-6);
    }

    /// Rotation preserves vector length.
    #[test]
    fn rotation_preserves_norm(x in -100.0f64..100.0, y in -100.0f64..100.0, a in -10.0f64..10.0) {
        let v = Vec2::new(x, y);
        prop_assert!((v.rotate(a).norm() - v.norm()).abs() < 1e-9);
    }

    /// OBB intersection is symmetric.
    #[test]
    fn obb_intersection_symmetric(
        x in -10.0f64..10.0, y in -10.0f64..10.0,
        h1 in -3.2f64..3.2, h2 in -3.2f64..3.2,
        l1 in 0.5f64..6.0, w1 in 0.5f64..3.0,
        l2 in 0.5f64..6.0, w2 in 0.5f64..3.0,
    ) {
        let a = Obb::new(Vec2::ZERO, l1, w1, h1);
        let b = Obb::new(Vec2::new(x, y), l2, w2, h2);
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// A box always contains its own center and intersects itself.
    #[test]
    fn obb_contains_center(x in -10.0f64..10.0, y in -10.0f64..10.0, h in -3.2f64..3.2) {
        let b = Obb::new(Vec2::new(x, y), 4.0, 2.0, h);
        prop_assert!(b.contains(b.center));
        prop_assert!(b.intersects(&b));
    }

    /// Pose local/world transforms are inverse of each other.
    #[test]
    fn pose_transform_round_trip(
        px in -50.0f64..50.0, py in -50.0f64..50.0, h in -3.2f64..3.2,
        lx in -20.0f64..20.0, ly in -20.0f64..20.0,
    ) {
        let pose = Pose::new(px, py, h);
        let local = Vec2::new(lx, ly);
        let back = pose.world_to_local(pose.local_to_world(local));
        prop_assert!((back - local).norm() < 1e-9);
    }

    // ---------- vehicle / Eq. (1) ----------

    /// Under arbitrary bounded commands, the realized actuation respects
    /// the mechanical limits and the speed stays in [0, max].
    #[test]
    fn vehicle_actuation_and_speed_bounded(cmds in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..60)) {
        let mut v = Vehicle::new(VehicleParams::default(), Pose::new(0.0, 0.0, 0.0), 10.0);
        for (s, t) in cmds {
            v.step(Actuation::new(s, t), 0.1, 5);
            prop_assert!(v.actuation.steer.abs() <= 1.0);
            prop_assert!(v.actuation.thrust.abs() <= 1.0);
            prop_assert!(v.speed >= 0.0 && v.speed <= v.params.max_speed);
            prop_assert!(v.pose.heading >= -std::f64::consts::PI && v.pose.heading < std::f64::consts::PI);
        }
    }

    /// Eq. (1) smoothing: one step moves the actuation at most
    /// (1 - alpha) * |command - previous| towards the command.
    #[test]
    fn eq1_is_a_contraction(prev in -1.0f64..1.0, cmd in -1.0f64..1.0) {
        let mut v = Vehicle::new(VehicleParams::default(), Pose::new(0.0, 0.0, 0.0), 5.0);
        v.actuation.steer = prev;
        v.step(Actuation::new(cmd, 0.0), 0.1, 1);
        let alpha = v.params.alpha;
        let expected = (1.0 - alpha) * cmd + alpha * prev;
        prop_assert!((v.actuation.steer - expected).abs() < 1e-9);
    }

    // ---------- attack budget ----------

    /// Budget scaling never exceeds epsilon in magnitude.
    #[test]
    fn budget_scale_bounded(eps in 0.0f64..2.0, raw in -10.0f64..10.0) {
        let b = AttackBudget::new(eps);
        prop_assert!(b.scale(raw).abs() <= eps + 1e-12);
        // Sign preserved (raw clamped, not flipped).
        if raw.abs() > 1e-9 && eps > 0.0 {
            prop_assert!(b.scale(raw) * raw >= 0.0);
        }
    }

    // ---------- metrics ----------

    /// Box statistics are ordered min <= q1 <= median <= q3 <= max and the
    /// mean lies within [min, max].
    #[test]
    fn box_stats_ordered(samples in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let s = BoxStats::from_samples(&samples);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    }

    /// Effort windows partition the points: counts sum to the input size
    /// and each success rate is a valid probability.
    #[test]
    fn effort_windows_partition(points in prop::collection::vec((0.0f64..2.0, any::<bool>()), 0..100)) {
        let pts: Vec<ScatterPoint> = points
            .iter()
            .map(|(e, s)| ScatterPoint { effort: *e, deviation_rmse: 0.0, success: *s })
            .collect();
        let windows = fig8_windows(&pts);
        let total: usize = windows.iter().map(|w| w.count).sum();
        prop_assert_eq!(total, pts.len());
        for w in &windows {
            prop_assert!((0.0..=1.0).contains(&w.success_rate));
        }
    }

    // ---------- replay buffer ----------

    /// The replay buffer never exceeds capacity and sampling always
    /// returns the requested batch shape.
    #[test]
    fn replay_capacity_respected(n in 1usize..200, cap in 1usize..50) {
        use rand::SeedableRng;
        let mut rb = ReplayBuffer::new(cap, 2, 1);
        for i in 0..n {
            rb.push(Transition {
                obs: vec![i as f32, 0.0],
                action: vec![0.0],
                reward: 0.0,
                next_obs: vec![0.0, 0.0],
                terminal: false,
            });
            prop_assert!(rb.len() <= cap);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let batch = rb.sample(7, &mut rng);
        prop_assert_eq!(batch.len(), 7);
    }

    // ---------- neural networks ----------

    /// Tanh-Gaussian policies always emit in-range actions with finite
    /// log-probabilities, whatever the observation.
    #[test]
    fn policy_actions_always_bounded(obs in prop::collection::vec(-100.0f32..100.0, 4), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = GaussianPolicy::new(4, &[8], 2, &mut rng);
        let m = Mat::from_row(&obs);
        let s = policy.sample(&m, &mut rng);
        for &a in s.actions().data() {
            prop_assert!((-1.0..=1.0).contains(&a));
        }
        for &lp in s.log_prob() {
            prop_assert!(lp.is_finite());
        }
    }

    /// Checkpoint encode/decode round-trips arbitrary trained policies.
    #[test]
    fn checkpoint_round_trip(seed in 0u64..1000, obs_dim in 1usize..6, action_dim in 1usize..3) {
        use ad_action_attacks::nn::checkpoint::{decode_policy, encode_policy};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = GaussianPolicy::new(obs_dim, &[6], action_dim, &mut rng);
        let back = decode_policy(&encode_policy(&policy)).unwrap();
        let obs = Mat::from_row(&vec![0.37f32; obs_dim]);
        prop_assert_eq!(policy.mean_action(&obs), back.mean_action(&obs));
    }

    // ---------- road ----------

    /// Every lane's center is on the road and maps back to its own index.
    #[test]
    fn lane_centers_consistent(num_lanes in 1usize..6, width in 2.5f64..4.5) {
        let road = Road::new(num_lanes, width, 500.0);
        for lane in 0..num_lanes {
            let y = road.lane_center_y(lane);
            prop_assert_eq!(road.lane_of(y), lane);
            prop_assert!(road.on_road(Vec2::new(10.0, y)));
            prop_assert!(road.lane_offset(y).abs() < 1e-9);
        }
    }

    /// Welford running stats merged from arbitrary splits equal the
    /// sequential computation.
    #[test]
    fn running_stats_merge_invariant(
        data in prop::collection::vec(-1e3f64..1e3, 1..60),
        split in 0usize..60,
    ) {
        use ad_action_attacks::rl::stats::RunningStats;
        let split = split.min(data.len());
        let mut all = RunningStats::new();
        for &x in &data { all.push(x); }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..split] { a.push(x); }
        for &x in &data[split..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - all.variance()).abs() < 1e-4);
    }

    /// The EMA always stays within the range of its inputs.
    #[test]
    fn ema_bounded_by_inputs(
        alpha in 0.01f64..1.0,
        xs in prop::collection::vec(-100.0f64..100.0, 1..40),
    ) {
        use ad_action_attacks::rl::stats::Ema;
        let mut ema = Ema::new(alpha);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &x in &xs {
            let v = ema.push(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// The ASCII renderer always draws exactly one ego marker and never
    /// draws vehicles outside the strip.
    #[test]
    fn render_strip_well_formed(steps in 0usize..60, thrust in -1.0f64..1.0) {
        use ad_action_attacks::sim::render::{render_strip, RenderConfig};
        let mut world = World::new(Scenario::default());
        for _ in 0..steps {
            world.step(Actuation::new(0.0, thrust));
            if world.is_done() { break; }
        }
        let text = render_strip(&world, &RenderConfig::default());
        prop_assert_eq!(text.matches('E').count(), 1);
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), 6);
        for lane_line in &lines[2..5] {
            prop_assert_eq!(lane_line.chars().count(), RenderConfig::default().cols);
        }
    }

    /// Quintile lane-change paths always end on the target lane center
    /// with near-zero heading.
    #[test]
    fn lane_change_path_terminates_on_target(
        from_lane in 0usize..3, to_lane in 0usize..3,
        dist in 15.0f64..60.0,
    ) {
        let road = Road::default();
        let y0 = road.lane_center_y(from_lane);
        let n = (dist / 2.0) as usize + 10;
        let path = lane_change_path(&road, y0, to_lane, 0.0, dist, n, 2.0, 16.0);
        let last = path.waypoints().last().unwrap();
        prop_assert!((last.position.y - road.lane_center_y(to_lane)).abs() < 1e-6);
        prop_assert!(last.heading.abs() < 1e-6);
    }

    // ---------- fault injection ----------

    /// A zero-rate fault schedule is a byte-identical no-op: the full
    /// episode record of a faulted run equals the clean run's.
    #[test]
    fn zero_rate_fault_schedule_is_noop(seed in 0u64..500, fault_seed in 0u64..500) {
        let scenario = Scenario::default();
        let mut a = ModularAgent::new(ModularConfig::default(), 1);
        let mut b = ModularAgent::new(ModularConfig::default(), 1);
        let clean = run_episode(&mut a, &scenario, seed, None, |_, _, _| {});
        let mut inj = FaultInjector::new(&FaultSchedule::benign(0.0, fault_seed));
        let faulted =
            run_episode_with_faults(&mut b, &scenario, seed, None, Some(&mut inj), |_, _, _| {});
        prop_assert_eq!(clean, faulted);
        prop_assert_eq!(inj.stats().corrupted_values, 0);
    }

    /// Same seed + same fault schedule produce identical episodes: the
    /// same record, and per step the same ego kinematics (time, pose,
    /// speed, realized actuation), injected perturbation and collision,
    /// bit for bit.
    #[test]
    fn same_seed_and_schedule_give_identical_traces(
        seed in 0u64..500,
        intensity in 0.2f64..1.0,
    ) {
        let scenario = Scenario::default();
        let schedule = FaultSchedule::benign(intensity, 0xdead);
        let run = |seed: u64| {
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            let mut inj = FaultInjector::for_episode(&schedule, seed);
            let mut steps = Vec::new();
            let record = run_episode_with_faults(
                &mut agent,
                &scenario,
                seed,
                None,
                Some(&mut inj),
                |world, outcome, delta| {
                    let ego = world.ego();
                    let kinematics = [
                        world.time(),
                        ego.pose.position.x,
                        ego.pose.position.y,
                        ego.pose.heading,
                        ego.speed,
                        ego.actuation.steer,
                        ego.actuation.thrust,
                        delta,
                    ];
                    steps.push((kinematics.map(f64::to_bits), outcome.collision));
                },
            );
            (record, steps)
        };
        let (rec_a, steps_a) = run(seed);
        let (rec_b, steps_b) = run(seed);
        prop_assert!(!steps_a.is_empty());
        prop_assert_eq!(rec_a, rec_b);
        prop_assert_eq!(steps_a, steps_b);
    }

    /// Non-finite steering commands never poison vehicle state: the world
    /// sanitizes them, counts them, and stays finite.
    #[test]
    fn nonfinite_commands_never_poison_state(steps in 1usize..60, bad_every in 2usize..7) {
        let mut world = World::new(Scenario::default());
        let mut expected_bad = 0;
        for t in 0..steps {
            let cmd = if t % bad_every == 0 {
                expected_bad += 1;
                Actuation { steer: f64::NAN, thrust: f64::INFINITY }
            } else {
                Actuation::new(0.1, 0.5)
            };
            world.step(cmd);
            if world.is_done() { break; }
            prop_assert!(world.ego().pose.position.x.is_finite());
            prop_assert!(world.ego().speed.is_finite());
        }
        prop_assert!(world.nonfinite_action_count() <= expected_bad);
        prop_assert!(world.nonfinite_action_count() > 0);
    }
}
