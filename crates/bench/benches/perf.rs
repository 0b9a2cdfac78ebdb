//! Criterion micro-benchmarks of the substrate hot paths: simulator
//! stepping, collision detection, sensor rendering, policy inference,
//! dense NN kernels, SAC updates, and the serving layer (micro-batched
//! inference, the full serving pipeline, and the virtual-time simulator).
//!
//! Runs under `cargo bench --bench perf`. Set `CRITERION_QUICK=1` to use
//! the shortened measurement budgets (CI smoke), and `PERF_JSON=<path>` to
//! export the timings as JSON (the checked-in `BENCH_perf.json` baseline
//! is produced this way). Alongside the wall-clock benches, the export
//! carries deterministic serving pseudo-rows (`serve_sim_*`): latency
//! quantiles and the sustainable-rate search from a fixed-seed simulator
//! run, byte-stable and therefore gateable at a tight tolerance.

use attack_core::adv_reward::AdvReward;
use attack_core::budget::AttackBudget;
use attack_core::defense::SimplexSwitcher;
use attack_core::fleet::FleetEval;
use criterion::{black_box, BenchResult, Criterion};
use drive_agents::behavior::{BehaviorConfig, BehaviorPlanner};
use drive_agents::e2e::Policy;
use drive_agents::modular::{ModularAgent, ModularConfig};
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::prelude::{
    randn_mat, ActScratch, Activation, GaussianPolicy, Linear, Mat, Mlp, PackedPnn, PnnPolicy,
    Scratch,
};
use drive_nn::scratch::BatchActScratch;
use drive_rl::replay::{Batch, ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_serve::config::ServeConfig;
use drive_serve::faults::FaultPlanConfig;
use drive_serve::ladder::Rung;
use drive_serve::pipeline::{DetectorStream, Pipeline};
use drive_serve::sim::{self, SimConfig};
use drive_sim::batch::WorldBatch;
use drive_sim::geometry::{Obb, Vec2};
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor, Imu, ImuConfig, SemanticCamera};
use drive_sim::vehicle::Actuation;
use drive_sim::waypoints::Path;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use repro_bench::journal::RunHeader;
use repro_bench::{merge, JournalHandle};
use std::sync::Arc;

/// A PNN whose column and laterals are all fresh random draws from
/// `rng`, column first: unlike `PnnPolicy::new`'s, its laterals are
/// non-zero.
fn random_pnn<R: rand::Rng>(base: GaussianPolicy, rng: &mut R) -> PnnPolicy {
    let layers = base.trunk().layers();
    let column = layers
        .iter()
        .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
        .collect();
    let laterals = layers
        .windows(2)
        .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
        .collect();
    PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
}

fn bench_world_step(c: &mut Criterion) {
    c.bench_function("world_step", |b| {
        let mut world = World::new(Scenario::default());
        b.iter(|| {
            if world.is_done() {
                world = World::new(Scenario::default());
            }
            black_box(world.step(Actuation::new(0.0, 0.1)));
        });
    });
}

fn bench_full_episode_modular(c: &mut Criterion) {
    c.bench_function("full_episode_modular_180_steps", |b| {
        b.iter(|| {
            let mut world = World::new(Scenario::default());
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            agent.reset(&world);
            while !world.is_done() {
                let a = agent.act(&world);
                world.step(a);
            }
            black_box(world.passed_count())
        });
    });
}

fn bench_obb_intersection(c: &mut Criterion) {
    c.bench_function("obb_sat_intersection", |b| {
        let x = Obb::new(Vec2::new(0.0, 0.0), 4.5, 1.9, 0.2);
        let y = Obb::new(Vec2::new(3.0, 1.0), 4.5, 1.9, -0.3);
        b.iter(|| black_box(x.intersects(black_box(&y))));
    });
}

fn bench_semantic_camera(c: &mut Criterion) {
    c.bench_function("semantic_camera_render", |b| {
        let world = World::new(Scenario::default());
        let cam = SemanticCamera::default();
        b.iter(|| black_box(cam.render(&world)));
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    c.bench_function("feature_extraction", |b| {
        let world = World::new(Scenario::default());
        let mut fx = FeatureExtractor::new(FeatureConfig::default());
        b.iter(|| black_box(fx.observe(&world)));
    });
}

fn bench_imu_window(c: &mut Criterion) {
    c.bench_function("imu_record_and_window", |b| {
        let mut world = World::new(Scenario::default());
        world.step(Actuation::new(0.1, 0.5));
        let mut imu = Imu::new(ImuConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| {
            imu.record(&world, &mut rng);
            black_box(imu.window())
        });
    });
}

fn bench_matmul_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = randn_mat(64, 64, &mut rng);
    let bm = randn_mat(64, 64, &mut rng);
    c.bench_function("matmul_64x64_into_reused", |b| {
        let mut out = Mat::zeros(64, 64);
        b.iter(|| {
            a.matmul_into(&bm, &mut out);
            black_box(out.get(0, 0))
        });
    });
    c.bench_function("matmul_tn_acc_64x64", |b| {
        let mut acc = Mat::zeros(64, 64);
        b.iter(|| {
            acc.fill(0.0);
            a.matmul_tn_acc(&bm, &mut acc);
            black_box(acc.get(0, 0))
        });
    });
    // The critic's layer-0 weight gradient at batch 128: `grad_out^T @ x`
    // over the 62-wide (60 obs + 2 action) input: a padded remainder strip
    // only (64-lane strips) or 30 columns of one (32-lane strips).
    let grad_out = randn_mat(128, 128, &mut rng);
    let x = randn_mat(128, 62, &mut rng);
    c.bench_function("gemm_128x128x62_tn_acc", |b| {
        let mut acc = Mat::zeros(128, 62);
        b.iter(|| {
            acc.fill(0.0);
            grad_out.matmul_tn_acc(&x, &mut acc);
            black_box(acc.get(0, 0))
        });
    });
    // A critic's 128 -> 1 output layer over a training batch.
    let head = Linear::new(128, 1, &mut rng);
    c.bench_function("critic_head_forward_batch128", |b| {
        let mut y = Mat::default();
        b.iter(|| {
            head.forward_into(&grad_out, &mut y);
            black_box(y.get(0, 0))
        });
    });
    // The weight pack behind every training forward of a hidden layer.
    let w = randn_mat(128, 128, &mut rng);
    c.bench_function("transpose_128x128", |b| {
        let mut t = Mat::default();
        b.iter(|| {
            w.transpose_into(&mut t);
            black_box(t.get(0, 0))
        });
    });
}

fn bench_mlp_forward_scratch(c: &mut Criterion) {
    c.bench_function("mlp_forward_scratch_60_128_128_2", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let dim = FeatureConfig::default().observation_dim();
        let mlp = Mlp::new(
            &[dim, 128, 128, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let x = randn_mat(1, dim, &mut rng);
        let mut scratch = Scratch::default();
        b.iter(|| black_box(mlp.forward_with(&x, &mut scratch).get(0, 0)));
    });
}

fn bench_policy_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let dim = FeatureConfig::default().observation_dim();
    let policy = GaussianPolicy::new(dim, &[128, 128], 2, &mut rng);
    let obs = vec![0.1f32; dim];
    c.bench_function("policy_inference_60d", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| black_box(policy.act(&obs, &mut rng, true)));
    });
    c.bench_function("policy_inference_60d_scratch", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ActScratch::default();
        b.iter(|| black_box(policy.act_with(&obs, &mut rng, true, &mut scratch)[0]));
    });
    // The same single-row act through the shared frozen handle — the
    // serial evaluation path. Its layers pack on the first act, as the
    // live policy's above do.
    let packed = BatchPolicy::from(policy.clone());
    c.bench_function("policy_inference_60d_packed", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ActScratch::default();
        b.iter(|| black_box(packed.act_with(&obs, &mut rng, true, &mut scratch)[0]));
    });
    // The PNN switcher's hardened column: column 1's hidden layers,
    // column 2 and the laterals, one observation.
    let pnn = random_pnn(policy.clone(), &mut rng);
    let switcher = SimplexSwitcher::new(PackedPnn::from(pnn), 0.2, 1.0);
    c.bench_function("pnn_switcher_act_hardened", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ActScratch::default();
        let mut action = Vec::new();
        b.iter(|| {
            switcher.action_into(&obs, &mut rng, true, &mut scratch, &mut action);
            black_box(action[0])
        });
    });
}

fn filled_buffer(dim: usize, action_dim: usize) -> ReplayBuffer {
    let mut buffer = ReplayBuffer::new(10_000, dim, action_dim);
    for i in 0..2000 {
        buffer.push(Transition {
            obs: vec![(i % 17) as f32 * 0.05; dim],
            action: [0.1, -0.2][..action_dim].to_vec(),
            reward: (i % 5) as f32,
            next_obs: vec![(i % 13) as f32 * 0.05; dim],
            terminal: i % 50 == 0,
        });
    }
    buffer
}

fn bench_replay_sample(c: &mut Criterion) {
    c.bench_function("replay_sample_into_batch128", |b| {
        let dim = FeatureConfig::default().observation_dim();
        let buffer = filled_buffer(dim, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut batch = Batch::default();
        b.iter(|| {
            buffer.sample_into(128, &mut rng, &mut batch);
            black_box(batch.len())
        });
    });
}

/// SAC updates at the training shapes: the victim (2 actions) and a
/// steering attacker (1 action), both 60 obs -> [128, 128] at batch 128.
fn bench_sac_update(c: &mut Criterion) {
    for (name, action_dim) in [
        ("sac_update_batch128", 2),
        ("sac_update_batch128_attacker", 1),
    ] {
        c.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(0);
            let dim = FeatureConfig::default().observation_dim();
            let mut sac = Sac::new(dim, action_dim, &[128, 128], SacConfig::default(), &mut rng);
            let buffer = filled_buffer(dim, action_dim);
            b.iter(|| black_box(sac.update(&buffer, &mut rng)));
        });
    }
}

/// Micro-batched inference: the serving layer's hot path, batch-8 against
/// the same 60-d policy the single-row benches use, plus the full serving
/// pipeline (detector + inference) over the same batch.
fn bench_serve_micro_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let dim = FeatureConfig::default().observation_dim();
    let policy = Arc::new(GaussianPolicy::new(dim, &[128, 128], 2, &mut rng));
    let frames: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * dim + j) % 23) as f32 * 0.01)
                .collect()
        })
        .collect();
    c.bench_function("policy_inference_batch8_60d", |b| {
        let refs: Vec<&[f32]> = frames.iter().map(Vec::as_slice).collect();
        let mut scratch = BatchActScratch::default();
        b.iter(|| black_box(policy.act_batch_with(&refs, &mut scratch).get(0, 0)));
    });
    c.bench_function("serve_pipeline_full_batch8_60d", |b| {
        let config = ServeConfig::default();
        let mut pipeline = Pipeline::new(policy.clone(), &config, None);
        let mut stream = DetectorStream::new(&config);
        b.iter(|| {
            let mut obs = frames.clone();
            black_box(
                pipeline
                    .process(Rung::Full, &mut obs, Some(&mut stream))
                    .alarm,
            )
        });
    });
}

/// The allocation-free planner hot path: `BehaviorPlanner::plan_into`
/// writing into a reused `Path`, as the fleet control loop runs it
/// every slot-step. Measured against a live (non-trivial) traffic world
/// so the lead scan and lane-clear checks are exercised.
fn bench_planner_plan(c: &mut Criterion) {
    c.bench_function("planner_plan_ns", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        let world = World::new(Scenario::default().jittered(&mut rng));
        let mut planner = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let mut out = Path::default();
        // Warm the reused buffer so the measurement is the steady state.
        planner.plan_into(&world, &mut out);
        b.iter(|| {
            planner.plan_into(&world, &mut out);
            black_box(out.len())
        });
    });
}

/// The batched evaluation engine's two hot paths at batch 128: one
/// lockstep `WorldBatch` step across 128 live episodes (with compaction
/// and refill, as the fleet driver runs it) and one wide inference pass
/// through the shared `BatchPolicy` head.
fn bench_fleet(c: &mut Criterion) {
    c.bench_function("fleet_step_batch128", |b| {
        let mut batch = WorldBatch::new();
        for i in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(1000 + i);
            batch.push(World::new(Scenario::default().jittered(&mut rng)));
        }
        let actions = vec![Actuation::new(0.0, 0.1); 128];
        let mut outcomes = Vec::new();
        let mut refill_seed = 0u64;
        b.iter(|| {
            batch.step(&actions, &mut outcomes);
            let before = batch.len();
            batch.compact(|_, _| {});
            for _ in batch.len()..before {
                refill_seed += 1;
                let mut rng = StdRng::seed_from_u64(refill_seed);
                batch.push(World::new(Scenario::default().jittered(&mut rng)));
            }
            black_box(outcomes.len())
        });
    });
    c.bench_function("policy_inference_batch128_60d", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let dim = FeatureConfig::default().observation_dim();
        let policy = Arc::new(GaussianPolicy::new(dim, &[128, 128], 2, &mut rng));
        let head = BatchPolicy::new(policy);
        let frames: Vec<Vec<f32>> = (0..128)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) % 23) as f32 * 0.01)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = frames.iter().map(Vec::as_slice).collect();
        let mut scratch = BatchActScratch::default();
        b.iter(|| black_box(head.act_batch(&refs, &mut scratch).get(0, 0)));
    });
}

/// Fleet throughput pseudo-rows: the same fig4-style nominal-driving
/// evaluation run twice through `FleetEval` — once at batch 128, once at
/// batch 1 (the serial comparator: identical episode loop, no inference
/// amortization) — reported as amortized wall nanoseconds per finished
/// episode. Inverse of episodes/sec so the regression gate's "bigger
/// means worse" direction holds; the episodes/sec figures and the
/// batched-vs-serial speedup are printed for humans.
fn fleet_rows() -> Vec<BenchResult> {
    let mut rng = StdRng::seed_from_u64(9);
    let dim = FeatureConfig::default().observation_dim();
    let victim = GaussianPolicy::new(dim, &[128, 128], 2, &mut rng);
    let eval = FleetEval {
        victim: &victim,
        features: FeatureConfig::default(),
        attack: None,
        imu: ImuConfig::default(),
        budget: AttackBudget::ZERO,
        adv: AdvReward::default(),
        scenario: Scenario::default(),
    };
    let episodes = 192;
    let timed = |batch: usize| {
        let t0 = std::time::Instant::now();
        let records = eval.run(episodes, 0, batch);
        (
            t0.elapsed().as_nanos() as f64 / records.len() as f64,
            records.len() as u64,
        )
    };
    // Warm-up pass so neither comparator pays first-touch costs.
    let _ = timed(128);
    let (serial_ns, _) = timed(1);
    let (golden_ns, n) = timed(128);
    for (name, ns) in [
        ("fleet_golden_episodes_per_sec", 1e9 / golden_ns),
        ("fleet_serial_episodes_per_sec", 1e9 / serial_ns),
        ("fleet_golden_speedup_vs_batch1", serial_ns / golden_ns),
    ] {
        println!("{name:<40} value {ns:>14.1}  ({n} n)");
    }
    vec![
        BenchResult {
            name: "fleet_golden_ns_per_episode".to_string(),
            median_ns: golden_ns,
            mean_ns: golden_ns,
            iters: n,
        },
        BenchResult {
            name: "fleet_serial_ns_per_episode".to_string(),
            median_ns: serial_ns,
            mean_ns: serial_ns,
            iters: n,
        },
    ]
}

/// Control-phase pseudo-row: nanoseconds of NPC control work per
/// slot-step in a batch-128 lockstep loop, read straight from the
/// per-phase fleet counters (`record_fleet_phases`) rather than a wall
/// clock around the whole step. This isolates the SoA lead-table +
/// `control_batched` cost from integration, outcome checks, and
/// inference, so a regression in the batched control kernels cannot hide
/// behind improvements elsewhere in the step.
fn control_phase_rows() -> Vec<BenchResult> {
    let mut batch = WorldBatch::new();
    for i in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(5000 + i);
        let mut s = Scenario::default().jittered(&mut rng);
        s.max_steps = 400;
        batch.push(World::new(s));
    }
    let actions = vec![Actuation::new(0.0, 0.1); 128];
    let mut outcomes = Vec::new();
    let mut refill_seed = 50_000u64;
    // Compaction + refill keeps all 128 slots live so the counters sample
    // full-width batches; it runs between steps, outside the timed phases.
    let mut step_and_refill = |batch: &mut WorldBatch| {
        batch.step(&actions, &mut outcomes);
        let before = batch.len();
        batch.compact(|_, _| {});
        for _ in batch.len()..before {
            refill_seed += 1;
            let mut rng = StdRng::seed_from_u64(refill_seed);
            let mut s = Scenario::default().jittered(&mut rng);
            s.max_steps = 400;
            batch.push(World::new(s));
        }
    };
    for _ in 0..20 {
        step_and_refill(&mut batch);
    }
    let t0 = drive_sim::perf::fleet();
    const STEPS: usize = 100;
    for _ in 0..STEPS {
        step_and_refill(&mut batch);
    }
    let d = drive_sim::perf::fleet().since(&t0);
    let ns = d.control_ns_per_slot_step();
    vec![BenchResult {
        name: "npc_control_phase_batch128".to_string(),
        median_ns: ns,
        mean_ns: ns,
        iters: d.slot_steps,
    }]
}

/// The run directory's per-cell coordination overhead: one exclusive
/// lease claim (checksummed claim file + hard link + progress row)
/// followed by the owner-checked release (read-back + unlink). Every journaled cell,
/// single-process or sharded, pays this on top of its compute, so it must
/// stay orders of magnitude below the cheapest cell.
fn bench_lease_claim(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("repro-bench-perf-lease");
    let _ = std::fs::remove_dir_all(&dir);
    let header = RunHeader {
        seed: 7,
        config_hash: 7,
        box_episodes: 4,
        scatter_rounds: 1,
    };
    let state = JournalHandle::create(&dir, header).expect("open run directory");
    c.bench_function("lease_claim_ns", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(1);
            let claimed = state.try_acquire(key, "perf");
            state.release(key);
            black_box(claimed)
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Merge-scale pseudo-row: wall time of `merge::verify_shard` over a
/// 432-cell shard (the scenario-matrix grid size) — every sidecar's
/// checkpoint checksum re-verified, records decoded, canonical digests
/// compared for conflicts. This is the fixed verification cost a
/// `repro_bench merge` pays before assembling outputs; the shard is
/// built once through the real lease/publish path and the row reports
/// the median of several verification sweeps.
fn shard_merge_rows() -> Vec<BenchResult> {
    let dir = std::env::temp_dir().join("repro-bench-perf-shard-merge");
    let _ = std::fs::remove_dir_all(&dir);
    let header = RunHeader {
        seed: 77,
        config_hash: 0x5eed,
        box_episodes: 4,
        scatter_rounds: 1,
    };
    let state = JournalHandle::create(&dir, header).expect("open run directory");
    const CELLS: u64 = 432;
    const EPISODES: usize = 4;
    for key in 1..=CELLS {
        let records: Vec<EpisodeRecord> = (0..EPISODES)
            .map(|i| EpisodeRecord {
                steps: 10 + (key as usize + i) % 50,
                ..EpisodeRecord::default()
            })
            .collect();
        let label = format!("perf/cell{key}");
        let out = state.run_cell(key, &label, EPISODES, || (records, true));
        assert_eq!(out.len(), EPISODES);
    }
    state.release_all();
    let reps = if std::env::var("CRITERION_QUICK").is_ok_and(|v| !v.is_empty() && v != "0") {
        3
    } else {
        9
    };
    let mut samples: Vec<f64> = Vec::new();
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let cells = merge::verify_shard(&dir).expect("verify shard");
        assert_eq!(cells as u64, CELLS);
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    vec![BenchResult {
        name: "shard_merge_432cells".to_string(),
        median_ns: median,
        mean_ns: mean,
        iters: reps as u64,
    }]
}

/// Seeded procedural scenario generation: 1000 scenarios per iteration,
/// cycling the full axes grid (topology × density × speed mix × faults),
/// each drawn from its own seed-tree node and validated on construction.
fn bench_scenario_gen(c: &mut Criterion) {
    use drive_sim::generate::{generate, ScenarioAxes, SpeedMix, TopologyKind, TrafficDensity};
    let mut axes = Vec::new();
    for topology in TopologyKind::ALL {
        for density in TrafficDensity::ALL {
            for speed_mix in SpeedMix::ALL {
                for fault_intensity in [0.0, 0.5] {
                    axes.push(ScenarioAxes {
                        topology,
                        density,
                        speed_mix,
                        fault_intensity,
                    });
                }
            }
        }
    }
    c.bench_function("scenario_gen_1k", |b| {
        let root = drive_seed::SeedTree::root(10_000).child("bench");
        b.iter(|| {
            let mut npcs = 0usize;
            for i in 0..1000u64 {
                let g = generate(axes[i as usize % axes.len()], &root.child(i));
                npcs += g.spec.scenario().npcs.len();
            }
            black_box(npcs)
        });
    });
}

/// End-to-end virtual-time serving: one fixed-seed simulator run per
/// iteration (arrival synthesis, batching, fault schedule, ladder).
fn bench_serve_sim(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let policy = Arc::new(GaussianPolicy::new(6, &[32, 32], 2, &mut rng));
    let config = SimConfig {
        requests: 200,
        faults: FaultPlanConfig {
            kills: 1,
            stalls: 1,
            stall_us: 10_000,
            corrupt_rate: 0.1,
        },
        ..SimConfig::default()
    };
    c.bench_function("serve_sim_200req_faulted", |b| {
        b.iter(|| black_box(sim::run_sim(&policy, &config).counters.served));
    });
}

/// Deterministic serving pseudo-rows for the gating baseline: p50/p99/p999
/// latency of a fixed-seed simulator run and the inverse of its maximum
/// sustainable rate at a 30 ms p99 SLO (inverse, so that "bigger means
/// worse" matches the regression gate's direction). All virtual-time
/// integers — identical on every machine — so any drift is a real serving
/// behavior change, not noise.
fn serve_slo_rows() -> Vec<BenchResult> {
    let mut rng = StdRng::seed_from_u64(42);
    let policy = Arc::new(GaussianPolicy::new(6, &[32, 32], 2, &mut rng));
    let config = SimConfig::default();
    let report = sim::run_sim(&policy, &config);
    let row = |name: &str, value: f64, iters: u64| BenchResult {
        name: name.to_string(),
        median_ns: value,
        mean_ns: value,
        iters,
    };
    let answered = report.counters.served + report.counters.degraded;
    let mut rows = vec![
        row(
            "serve_sim_p50_latency_us",
            report.latency.p50() as f64,
            answered,
        ),
        row(
            "serve_sim_p99_latency_us",
            report.latency.p99() as f64,
            answered,
        ),
        row(
            "serve_sim_p999_latency_us",
            report.latency.p999() as f64,
            answered,
        ),
    ];
    let grid = [250, 500, 1_000, 2_000, 4_000];
    if let Some(qps) = sim::max_qps_at_slo(&policy, &config, 30_000, &grid) {
        rows.push(row(
            "serve_sim_slo_inverse_ns_per_req",
            1_000_000_000.0 / qps as f64,
            qps,
        ));
    }
    rows
}

/// Serializes the collected results as the `repro-bench/bench-v1` JSON
/// schema (flat bench names, so no string escaping is needed beyond
/// quotes — names are plain identifiers).
fn results_json(c: &Criterion, extra: &[BenchResult]) -> String {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"repro-bench/bench-v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"benches\": [\n");
    let results: Vec<&BenchResult> = c.results().iter().chain(extra).collect();
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"iters\": {}}}{}\n",
            r.name,
            r.median_ns,
            r.mean_ns,
            r.iters,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut c = Criterion::default();
    bench_world_step(&mut c);
    bench_full_episode_modular(&mut c);
    bench_obb_intersection(&mut c);
    bench_semantic_camera(&mut c);
    bench_feature_extraction(&mut c);
    bench_imu_window(&mut c);
    bench_matmul_kernels(&mut c);
    bench_mlp_forward_scratch(&mut c);
    bench_policy_inference(&mut c);
    bench_replay_sample(&mut c);
    bench_sac_update(&mut c);
    bench_serve_micro_batch(&mut c);
    bench_planner_plan(&mut c);
    bench_fleet(&mut c);
    bench_lease_claim(&mut c);
    bench_scenario_gen(&mut c);
    bench_serve_sim(&mut c);
    let mut serve_rows = serve_slo_rows();
    serve_rows.extend(control_phase_rows());
    serve_rows.extend(fleet_rows());
    serve_rows.extend(shard_merge_rows());
    for r in &serve_rows {
        println!(
            "{:<40} value {:>14.1}  ({} n)",
            r.name, r.median_ns, r.iters
        );
    }
    if let Ok(path) = std::env::var("PERF_JSON") {
        if !path.is_empty() {
            match std::fs::write(&path, results_json(&c, &serve_rows)) {
                Ok(()) => eprintln!("[perf] wrote {path}"),
                Err(e) => eprintln!("[perf] failed {path}: {e}"),
            }
        }
    }
}
