//! Per-layer metrics of the traced run.
//!
//! Most come from the spans around the workload sections (see
//! [`span_metrics`]); the rest from short probes of single layers that run
//! after the sections ([`probes`]): a few attacked cells and episodes,
//! batch-1 and batch-64 inference, SAC updates and journal round trips.
//! Probe timings are medians over repeated blocks.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{eval_scale, Env, Workload, STAGES};
use attack_core::adv_reward::AdvReward;
use attack_core::budget::AttackBudget;
use attack_core::eval::run_attacked_episode_with_faults;
use attack_core::learned::LearnedAttacker;
use attack_core::pipeline::{Artifacts, PipelineConfig};
use attack_core::sensor::{AttackerSensor, SensorKind};
use drive_agents::runner::SteerAttacker;
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::scratch::{ActScratch, BatchActScratch};
use drive_rl::replay::{Batch, ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_seed::SeedTree;
use drive_sim::record::EpisodeRecord;
use drive_sim::sensors::FeatureExtractor;
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use repro_bench::{
    attacked_records, build_agent, AgentKind, JournalHandle, Registry, RunContext, RunHeader, Scale,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Metric name -> (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The budget of every attacked probe.
const PROBE_BUDGET: f64 = 0.5;
/// Episodes per engine-cell probe (the paper's box-plot cell size).
const CELL_EPISODES: usize = 30;
/// Episodes per agent in the single-episode probe.
const EPISODE_PROBES: u64 = 8;
/// Timed blocks per micro-probe; the median block is reported.
const BLOCKS: usize = 9;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median over [`BLOCKS`] timed runs of `block`, in nanoseconds.
fn median_block_ns(mut block: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            block();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times).expect("BLOCKS > 0")
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// Metrics derived from the spans of the three workload sections.
/// `journal_cells` is the paper-serial section's journaled cell count.
pub fn span_metrics(tr: &Tracer, env: &Env, journal_cells: f64) -> Result<Metrics, String> {
    let span = |name: &str| {
        tr.find(name)
            .ok_or(format!("the trace has no span '{name}'"))
    };
    let mut m = Metrics::new();

    for exp in Registry::all() {
        let s = span(&format!("paper-serial:{}", exp.name()))?;
        let name = exp.name();
        m.insert(format!("engine.{name}.wall_s"), (s.wall_s(), "s"));
        m.insert(
            format!("engine.{name}.sim_steps"),
            (s.delta.perf.steps as f64, "count"),
        );
        let busy = s.dur_ns() as f64 * env.jobs as f64;
        m.insert(
            format!("par.{name}.util"),
            (ratio(s.delta.cpu_ns as f64, busy), "fraction"),
        );
    }

    let fleet_span = span("fig4-fleet:fig4")?;
    let f = fleet_span.delta.perf.fleet;
    let per_slot = |ns: f64| ratio(ns, f.slot_steps as f64);
    let named = (f.control_ns + f.integrate_ns + f.outcome_ns + f.infer_ns) as f64;
    m.insert(
        "sim.fleet.control_ns_per_slot_step".into(),
        (f.control_ns_per_slot_step(), "ns"),
    );
    m.insert(
        "sim.fleet.integrate_ns_per_slot_step".into(),
        (f.integrate_ns_per_slot_step(), "ns"),
    );
    m.insert(
        "sim.fleet.outcome_ns_per_slot_step".into(),
        (f.outcome_ns_per_slot_step(), "ns"),
    );
    m.insert(
        "nn.fleet.infer_ns_per_row".into(),
        (f.infer_ns_per_row(), "ns"),
    );
    m.insert("sim.fleet.occupancy".into(), (f.occupancy(), "fraction"));
    m.insert(
        "sim.fleet.slot_steps".into(),
        (f.slot_steps as f64, "count"),
    );
    m.insert(
        "core.fleet.residual_ns_per_slot_step".into(),
        (per_slot(fleet_span.delta.cpu_ns as f64 - named), "ns"),
    );

    let journal_dir = env
        .work_dir(Workload::PaperSerial.name())?
        .join("run")
        .join("journal");
    m.insert("journal.cells".into(), (journal_cells, "count"));
    m.insert(
        "journal.bytes".into(),
        (dir_bytes(&journal_dir) as f64, "bytes"),
    );

    let mut save_ms = Vec::new();
    for (stage, _) in STAGES {
        let s = span(&format!("train-tenth:{stage}"))?;
        m.insert(format!("core.train.{stage}.wall_s"), (s.wall_s(), "s"));
        m.insert(
            format!("rl.train.{stage}.updates"),
            (s.delta.perf.updates as f64, "count"),
        );
        m.insert(
            format!("sim.train.{stage}.steps"),
            (s.delta.perf.steps as f64, "count"),
        );
        save_ms.push(span(&format!("train-tenth:save:{stage}"))?.wall_s() * 1e3);
    }
    m.insert(
        "nn.checkpoint_save_ms".into(),
        (save_ms.iter().sum::<f64>() / save_ms.len() as f64, "ms"),
    );
    m.insert(
        "core.pipeline.load_s".into(),
        (span("pipeline.prepare")?.wall_s(), "s"),
    );
    Ok(m)
}

/// The share of the training stages' wall time that their SAC updates
/// account for, at the probed cost of one victim-shaped update. The
/// program's update counter also counts behaviour-cloning steps, so the
/// stages' BC steps (`bc_steps`, from the configuration the workload
/// trained with) are taken out first.
pub fn update_share(m: &Metrics, bc_steps: usize) -> f64 {
    let total = |name: &dyn Fn(&str) -> String| -> f64 {
        STAGES
            .iter()
            .filter_map(|(stage, _)| m.get(&name(stage)))
            .map(|v| v.0)
            .sum()
    };
    let sac_updates = total(&|s| format!("rl.train.{s}.updates")) - bc_steps as f64;
    let wall_s = total(&|s| format!("core.train.{s}.wall_s"));
    let update_s = m.get("rl.sac_update_ms").map_or(0.0, |v| v.0) * 1e-3;
    ratio(sac_updates * update_s, wall_s)
}

/// Time spent per phase of single episodes, filled by the timing wrappers.
#[derive(Default)]
struct Ledger {
    act_ns: u64,
    acts: u64,
    delta_ns: u64,
    deltas: u64,
    step_ns: u64,
    steps: u64,
    /// When the attacker last returned: the simulator step runs from
    /// there until the agent's next `act` (or the episode's end).
    step_from: Option<Instant>,
}

impl Ledger {
    fn close_step(&mut self, at: Instant) {
        if let Some(t) = self.step_from.take() {
            self.step_ns += (at - t).as_nanos() as u64;
            self.steps += 1;
        }
    }
}

struct TimedAgent<'l> {
    inner: Box<dyn Agent>,
    ledger: &'l RefCell<Ledger>,
}

impl Agent for TimedAgent<'_> {
    fn reset(&mut self, world: &World) {
        self.inner.reset(world);
    }

    fn act(&mut self, world: &World) -> Actuation {
        let t0 = Instant::now();
        self.ledger.borrow_mut().close_step(t0);
        let a = self.inner.act(world);
        let mut l = self.ledger.borrow_mut();
        l.act_ns += t0.elapsed().as_nanos() as u64;
        l.acts += 1;
        a
    }
}

struct TimedAttacker<'l> {
    inner: LearnedAttacker,
    ledger: &'l RefCell<Ledger>,
}

impl SteerAttacker for TimedAttacker<'_> {
    fn reset(&mut self, world: &World) {
        self.inner.reset(world);
    }

    fn delta(&mut self, world: &World) -> f64 {
        let t0 = Instant::now();
        let d = self.inner.delta(world);
        let t1 = Instant::now();
        let mut l = self.ledger.borrow_mut();
        l.delta_ns += (t1 - t0).as_nanos() as u64;
        l.deltas += 1;
        l.step_from = Some(t1);
        d
    }
}

/// Runs [`EPISODE_PROBES`] attacked episodes of `kind` against `sensor`'s
/// learned attacker, returning the phase ledger and the episodes' total
/// wall nanoseconds.
fn timed_episodes(
    kind: AgentKind,
    sensor: SensorKind,
    config: &PipelineConfig,
    artifacts: &Artifacts,
    base_seed: u64,
) -> (Ledger, u64) {
    let ledger = RefCell::new(Ledger::default());
    let budget = AttackBudget::new(PROBE_BUDGET);
    let adv = AdvReward::default();
    let mut total_ns = 0;
    for e in 0..EPISODE_PROBES {
        let seed = base_seed.wrapping_add(e);
        let mut agent = TimedAgent {
            inner: build_agent(kind, artifacts, config, budget, seed),
            ledger: &ledger,
        };
        let (policy, attacker_sensor) = match sensor {
            SensorKind::Camera => (
                &artifacts.camera_attacker,
                AttackerSensor::camera(config.features.clone()),
            ),
            SensorKind::Imu => (
                &artifacts.imu_attacker,
                AttackerSensor::imu(config.imu.clone(), seed),
            ),
        };
        let mut attacker = TimedAttacker {
            inner: LearnedAttacker::new(policy.clone(), attacker_sensor, budget, seed, true),
            ledger: &ledger,
        };
        let t0 = Instant::now();
        black_box(run_attacked_episode_with_faults(
            &mut agent,
            Some(&mut attacker),
            &adv,
            &config.scenario,
            seed,
            None,
        ));
        let end = Instant::now();
        ledger.borrow_mut().close_step(end);
        total_ns += (end - t0).as_nanos() as u64;
    }
    (ledger.into_inner(), total_ns)
}

/// Runs every probe, each inside its own span, and returns its metrics.
pub fn probes(
    env: &Env,
    config: &PipelineConfig,
    artifacts: &Artifacts,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let scale = eval_scale(seed, CELL_EPISODES);
    let seeds = SeedTree::root(scale.seed).child("benchmark-probe");
    tr.enter("probe:cells");
    let records = cell_probe(config, artifacts, scale, &seeds, &mut m);
    tr.exit();
    tr.enter("probe:episodes");
    episode_probe(config, artifacts, seeds.child("episodes").seed(), &mut m);
    tr.exit();
    let obs = FeatureExtractor::new(config.features.clone())
        .observe(&World::new(config.scenario.clone()));
    let mut rng = StdRng::seed_from_u64(seed);
    tr.enter("probe:nn");
    nn_probe(artifacts, &obs, &mut rng, &mut m);
    tr.exit();
    tr.enter("probe:sac");
    sac_probe(config, &obs, &mut rng, &mut m);
    tr.exit();
    tr.enter("probe:journal");
    let stored = journal_probe(env, config, scale, &records, &mut m);
    tr.exit();
    stored.map(|()| m)
}

/// Attacked cells through the harness: serial, one worker, no journal.
/// Returns the `pi_ori` cell's records for the journal probe.
fn cell_probe(
    config: &PipelineConfig,
    artifacts: &Artifacts,
    scale: Scale,
    seeds: &SeedTree,
    m: &mut Metrics,
) -> Vec<EpisodeRecord> {
    let mut ctx = RunContext::new(artifacts, config, scale);
    ctx.executor = drive_par::Executor::with_worker_count(1);
    let camera = Some((&artifacts.camera_attacker, SensorKind::Camera));
    let budget = AttackBudget::new(PROBE_BUDGET);
    let mut pi_ori = Vec::new();
    for (label, kind) in [
        ("modular", AgentKind::Modular),
        ("pi_ori", AgentKind::E2e),
        ("pi_adv_half", AgentKind::AdvRhoHalf),
        ("pi_pnn_0.2", AgentKind::PnnSigma02),
    ] {
        let t0 = Instant::now();
        let records = ctx.executor.run(|| {
            attacked_records(
                kind,
                camera,
                budget,
                &ctx,
                CELL_EPISODES,
                &seeds.child(label),
            )
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3 / CELL_EPISODES as f64;
        m.insert(format!("engine.cell_ms_per_episode.{label}"), (ms, "ms"));
        if kind == AgentKind::E2e {
            pi_ori = records;
        }
    }
    pi_ori
}

/// Single attacked episodes with timing wrappers around the agent and the
/// attacker.
fn episode_probe(config: &PipelineConfig, artifacts: &Artifacts, base_seed: u64, m: &mut Metrics) {
    let (mut steps, mut step_ns, mut residual_ns, mut episodes) = (0u64, 0u64, 0i64, 0u64);
    let (mut camera_ns, mut camera_calls) = (0u64, 0u64);
    for (label, kind, sensor) in [
        ("modular", AgentKind::Modular, SensorKind::Camera),
        ("pi_ori", AgentKind::E2e, SensorKind::Camera),
        ("pi_pnn_0.2", AgentKind::PnnSigma02, SensorKind::Camera),
        ("pi_ori", AgentKind::E2e, SensorKind::Imu),
    ] {
        let (l, total) = timed_episodes(kind, sensor, config, artifacts, base_seed);
        match sensor {
            SensorKind::Camera => {
                let us = ratio(l.act_ns as f64, l.acts as f64) * 1e-3;
                m.insert(format!("agents.act_us.{label}"), (us, "us"));
                camera_ns += l.delta_ns;
                camera_calls += l.deltas;
            }
            SensorKind::Imu => {
                let us = ratio(l.delta_ns as f64, l.deltas as f64) * 1e-3;
                m.insert("core.attacker_delta_us.imu".into(), (us, "us"));
            }
        }
        steps += l.steps;
        step_ns += l.step_ns;
        residual_ns += total as i64 - (l.act_ns + l.delta_ns + l.step_ns) as i64;
        episodes += EPISODE_PROBES;
    }
    let us = |ns: f64, n: u64| ratio(ns, n as f64) * 1e-3;
    m.insert(
        "core.attacker_delta_us.camera".into(),
        (us(camera_ns as f64, camera_calls), "us"),
    );
    m.insert(
        "sim.step_record_us".into(),
        (us(step_ns as f64, steps), "us"),
    );
    m.insert(
        "core.episode_residual_us".into(),
        (us(residual_ns as f64, episodes), "us"),
    );
}

/// Victim inference on one observation row, and on 64 rows at once.
fn nn_probe(artifacts: &Artifacts, obs: &[f32], rng: &mut StdRng, m: &mut Metrics) {
    const BATCH1_CALLS: usize = 400;
    const BATCH64_CALLS: usize = 40;
    let mut scratch = ActScratch::default();
    let ns = median_block_ns(|| {
        for _ in 0..BATCH1_CALLS {
            black_box(
                artifacts
                    .victim
                    .act_with(black_box(obs), rng, true, &mut scratch)[0],
            );
        }
    });
    m.insert(
        "nn.infer_batch1_us".into(),
        (ns / BATCH1_CALLS as f64 * 1e-3, "us"),
    );
    let head = BatchPolicy::new(Arc::new(artifacts.victim.clone()));
    let rows: Vec<Vec<f32>> = (0..64)
        .map(|r| obs.iter().map(|x| x + r as f32 * 1e-3).collect())
        .collect();
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let mut batch_scratch = BatchActScratch::default();
    let ns = median_block_ns(|| {
        for _ in 0..BATCH64_CALLS {
            black_box(
                head.act_batch(black_box(&refs), &mut batch_scratch)
                    .get(0, 0),
            );
        }
    });
    let per_row = ns / (BATCH64_CALLS * refs.len()) as f64;
    m.insert("nn.infer_batch64_ns_per_row".into(), (per_row, "ns"));
}

/// One SAC update of the victim's shape over a batch of 128.
fn sac_probe(config: &PipelineConfig, obs: &[f32], rng: &mut StdRng, m: &mut Metrics) {
    let dim = config.features.observation_dim();
    let mut sac = Sac::new(dim, 2, &config.victim.hidden, SacConfig::default(), rng);
    let mut buffer = ReplayBuffer::new(1_000, dim, 2);
    for i in 0..1_000usize {
        buffer.push(Transition {
            obs: obs.iter().map(|x| x + (i % 17) as f32 * 0.01).collect(),
            action: vec![0.1, -0.2],
            reward: (i % 5) as f32,
            next_obs: obs.iter().map(|x| x + (i % 13) as f32 * 0.01).collect(),
            terminal: i % 50 == 0,
        });
    }
    let mut batch = Batch::default();
    let update_ms: Vec<f64> = (0..3 * BLOCKS)
        .map(|_| {
            buffer.sample_into(128, rng, &mut batch);
            let t0 = Instant::now();
            black_box(sac.update_batch(&batch, rng));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert(
        "rl.sac_update_ms".into(),
        (median(&update_ms).expect("updates ran"), "ms"),
    );
}

/// Journal round trips of one paper-scale cell's records.
fn journal_probe(
    env: &Env,
    config: &PipelineConfig,
    scale: Scale,
    records: &[EpisodeRecord],
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = env.work_dir("probe-journal")?.join("journal");
    let journal = JournalHandle::create(&dir, RunHeader::for_run(config, scale))
        .map_err(|e| format!("cannot create the probe journal: {e}"))?;
    let (mut store_ms, mut load_ms) = (Vec::new(), Vec::new());
    for key in 0..2 * BLOCKS as u64 {
        let t0 = Instant::now();
        journal
            .store_cell(key, "benchmark-probe", records.len(), records)
            .map_err(|e| format!("probe journal store failed: {e}"))?;
        let t1 = Instant::now();
        let back = journal.load_cell(key, records.len());
        store_ms.push((t1 - t0).as_secs_f64() * 1e3);
        load_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        if back.as_deref() != Some(records) {
            return Err("the probe journal returned different records than it stored".into());
        }
    }
    let med = |v: &[f64]| median(v).expect("round trips ran");
    m.insert("journal.store_ms_per_cell".into(), (med(&store_ms), "ms"));
    m.insert("journal.load_ms_per_cell".into(), (med(&load_ms), "ms"));
    Ok(())
}
