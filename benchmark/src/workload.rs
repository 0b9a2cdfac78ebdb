//! The three workloads, each one iteration of a user-visible command
//! driven through the crates' public functions.
//!
//! * `paper-serial` — every registry experiment via `engine::execute` at
//!   the paper's scale, serial cells, journaled, CSV + SVG output.
//! * `fig4-fleet` — Fig. 4 at [`FLEET_BOX_EPISODES`] episodes per cell
//!   through the lockstep fleet, one worker, CSV output, no journal.
//! * `train-tenth` — `prepare()` into an empty directory with every
//!   stage's counts divided by ten, one thread.
//!
//! The benchmark seed `n` is added to each of the program's default seeds
//! (the evaluation root seed, every training stage's master seed), so
//! seed 0 runs the program's own defaults.

use crate::gate::{file_digest, Outputs, ARTIFACT_FILES};
use crate::trace::{Delta, Meter, Tracer};
use attack_core::defense::{adversarial_finetune, train_pnn_defense};
use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use attack_core::train::{train_camera_attacker, train_imu_attacker};
use drive_agents::training::train_victim;
use drive_nn::checkpoint::{
    decode_pnn, decode_policy, encode_pnn, encode_policy, load_from_file, save_to_file,
};
use repro_bench::{execute, JournalHandle, Registry, RunContext, Scale};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Episodes per Fig. 4 cell in `fig4-fleet` (paper: 30).
pub const FLEET_BOX_EPISODES: usize = 2000;
/// Lockstep slots of the `fig4-fleet` fleet.
pub const FLEET_BATCH: usize = 64;

/// The training stages in `prepare()`'s order, with their checkpoints.
pub const STAGES: [(&str, &str); 6] = [
    ("victim", ARTIFACT_FILES[0]),
    ("attacker_camera", ARTIFACT_FILES[1]),
    ("attacker_imu", ARTIFACT_FILES[2]),
    ("adv_rho_1_11", ARTIFACT_FILES[3]),
    ("adv_rho_1_2", ARTIFACT_FILES[4]),
    ("pnn", ARTIFACT_FILES[5]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSerial,
    Fig4Fleet,
    TrainTenth,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSerial,
        Workload::Fig4Fleet,
        Workload::TrainTenth,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSerial => "paper-serial",
            Workload::Fig4Fleet => "fig4-fleet",
            Workload::TrainTenth => "train-tenth",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The checkout the benchmark runs in (the current directory) and the
/// worker count of the parallel workload.
pub struct Env {
    pub root: PathBuf,
    /// Workers of `paper-serial`: two, or fewer on a smaller host.
    pub jobs: usize,
}

impl Env {
    pub fn from_cwd() -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
        for needed in ["artifacts", "benchmark/expected", "BENCHMARK.json"] {
            if !root.join(needed).exists() {
                return Err(format!(
                    "{} has no {needed}: run the benchmark from the root of the repository",
                    root.display()
                ));
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Env {
            root,
            jobs: cores.min(2),
        })
    }

    pub fn artifacts_dir(&self) -> PathBuf {
        self.root.join("artifacts")
    }

    pub fn expected_file(&self, name: &str) -> PathBuf {
        self.root.join("benchmark").join("expected").join(name)
    }

    /// `benchmark/work/<name>/`, created on demand.
    pub fn work_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join("benchmark").join("work").join(name);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// An empty `benchmark/work/<workload>/run/` for one iteration.
    pub fn fresh_run_dir(&self, w: Workload) -> Result<PathBuf, String> {
        let dir = self.work_dir(w.name())?.join("run");
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The pipeline configuration evaluation workloads load the checked-in
/// artifacts with.
pub fn eval_config(env: &Env) -> PipelineConfig {
    PipelineConfig {
        dir: env.artifacts_dir(),
        ..PipelineConfig::default()
    }
}

/// The evaluation scale at benchmark seed `seed`.
pub fn eval_scale(seed: u64, box_episodes: usize) -> Scale {
    let paper = Scale::paper();
    Scale {
        box_episodes,
        seed: paper.seed.wrapping_add(seed),
        ..paper
    }
}

/// `PipelineConfig::default()` writing into `dir`, with every stage's
/// episode, step, evaluation and actor-delay counts divided by ten (at
/// least one) and every master seed offset by `seed`. Hidden sizes stay.
pub fn tenth_config(dir: &Path, seed: u64) -> PipelineConfig {
    let tenth = |n: usize| (n / 10).max(1);
    let mut c = PipelineConfig {
        dir: dir.to_path_buf(),
        ..PipelineConfig::default()
    };
    let v = &mut c.victim;
    v.demo_episodes = tenth(v.demo_episodes);
    v.bc_steps = tenth(v.bc_steps);
    v.sac_steps = tenth(v.sac_steps);
    v.eval_episodes = tenth(v.eval_episodes);
    v.eval_every = tenth(v.eval_every);
    v.snapshot_every = tenth(v.snapshot_every);
    v.seed = v.seed.wrapping_add(seed);
    let a = &mut c.attack;
    a.bc_episodes = tenth(a.bc_episodes);
    a.bc_steps = tenth(a.bc_steps);
    a.sac_steps = tenth(a.sac_steps);
    a.eval_episodes = tenth(a.eval_episodes);
    a.eval_every = tenth(a.eval_every);
    a.seed = a.seed.wrapping_add(seed);
    for d in [
        &mut c.defense_rho_small,
        &mut c.defense_rho_half,
        &mut c.defense_pnn,
    ] {
        d.sac_steps = tenth(d.sac_steps);
        d.actor_delay = tenth(d.actor_delay);
        d.eval_episodes = tenth(d.eval_episodes);
        d.eval_every = tenth(d.eval_every);
        d.seed = d.seed.wrapping_add(seed);
    }
    c
}

/// One checked operation: an experiment, a Fig. 4 cell or a training
/// stage. It fails when the program reported a problem (`ok == false`) or
/// when any output it owns is missing or differs from the reference.
#[derive(Debug, Clone)]
pub struct Op {
    pub name: String,
    pub keys: Vec<String>,
    pub ok: bool,
}

/// What one iteration of a workload measured and produced.
#[derive(Debug)]
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Output digests plus exact counts (`count.*` keys).
    pub outputs: Outputs,
    pub ops: Vec<Op>,
}

fn iteration(measured: &Delta, mut outputs: Outputs, ops: Vec<Op>) -> Iteration {
    outputs.insert("count.sim_steps".into(), measured.perf.steps.to_string());
    Iteration {
        wall_s: measured.perf.wall_secs,
        cpu_s: measured.cpu_ns as f64 * 1e-9,
        outputs,
        ops,
    }
}

/// Digests `path` into `outputs` under its file name and returns the key.
/// A file that cannot be read is left out, which fails the operation that
/// owns it.
fn digest_into(outputs: &mut Outputs, path: &Path) -> String {
    let key = file_name(path);
    match file_digest(path) {
        Ok(digest) => {
            outputs.insert(key.clone(), digest);
        }
        Err(e) => eprintln!("[bench] {e}"),
    }
    key
}

/// Runs one iteration of `w`. `artifacts` are the loaded checked-in
/// checkpoints, which the evaluation workloads need and `train-tenth`
/// does not. Spans go to `tr` when it is enabled; when it is not,
/// `train-tenth` calls `prepare()` itself rather than the six stage
/// functions.
pub fn run_iteration(
    w: Workload,
    env: &Env,
    artifacts: Option<&Artifacts>,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Iteration, String> {
    let dir = env.fresh_run_dir(w)?;
    let loaded = || artifacts.ok_or(format!("{} needs the loaded artifacts", w.name()));
    match w {
        Workload::PaperSerial => paper_serial(env, loaded()?, seed, &dir, tr),
        Workload::Fig4Fleet => Ok(fig4_fleet(env, loaded()?, seed, &dir, tr)),
        Workload::TrainTenth => Ok(train_tenth(seed, &dir, tr)),
    }
}

fn paper_serial(
    env: &Env,
    artifacts: &Artifacts,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Iteration, String> {
    let config = eval_config(env);
    let mut ctx = RunContext::new(
        artifacts,
        &config,
        eval_scale(seed, Scale::paper().box_episodes),
    );
    ctx.executor = drive_par::Executor::with_worker_count(env.jobs);
    ctx.csv_dir = Some(dir.to_path_buf());
    ctx.svg_dir = Some(dir.to_path_buf());

    let meter = Meter::start();
    let journal = JournalHandle::create(dir.join("journal"), ctx.run_header())
        .map_err(|e| format!("cannot create the journal: {e}"))?;
    ctx.journal = Some(Arc::new(journal));
    let mut runs = Vec::new();
    for exp in Registry::all() {
        tr.enter(format!("paper-serial:{}", exp.name()));
        runs.push((exp.name(), execute(*exp, &ctx)));
        tr.exit();
    }
    let measured = meter.stop();

    let mut outputs = Outputs::new();
    let mut ops = Vec::new();
    for (name, run) in runs {
        let mut op = Op {
            name: name.to_string(),
            keys: Vec::new(),
            ok: false,
        };
        match run {
            Ok(run) => {
                op.ok = run.manifest.as_ref().is_some_and(|m| m.verify(dir).is_ok());
                for path in run.written.iter().filter(|p| !is_manifest(p)) {
                    op.keys.push(digest_into(&mut outputs, path));
                }
            }
            Err(e) => eprintln!("[bench] {name} failed: {e}"),
        }
        ops.push(op);
    }
    let cells = ctx.journal.as_ref().map_or(0, |j| j.cell_count());
    outputs.insert("count.journal_cells".into(), cells.to_string());
    Ok(iteration(&measured, outputs, ops))
}

fn fig4_fleet(
    env: &Env,
    artifacts: &Artifacts,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> Iteration {
    let config = eval_config(env);
    let mut ctx = RunContext::new(artifacts, &config, eval_scale(seed, FLEET_BOX_EPISODES));
    ctx.executor = drive_par::Executor::with_worker_count(1);
    ctx.fleet = Some(FLEET_BATCH);
    ctx.csv_dir = Some(dir.to_path_buf());
    let fig4 = Registry::find("fig4").expect("fig4 is registered");

    let meter = Meter::start();
    tr.enter("fig4-fleet:fig4");
    let run = execute(fig4, &ctx);
    tr.exit();
    let measured = meter.stop();

    // One operation per cell of `fig4.csv`; when the program fails before
    // there is a readable one, a single failed operation stands for it.
    let mut outputs = Outputs::new();
    let cells = run
        .map_err(|e| format!("fig4 failed: {e}"))
        .and_then(|run| -> Result<Vec<(String, bool)>, String> {
            let manifest_ok = run.manifest.as_ref().is_some_and(|m| m.verify(dir).is_ok());
            let csv_path = dir.join("fig4.csv");
            let text = std::fs::read_to_string(&csv_path)
                .map_err(|e| format!("cannot read fig4.csv: {e}"))?;
            digest_into(&mut outputs, &csv_path);
            Ok(fig4_cells(&text, FLEET_BOX_EPISODES)?
                .into_iter()
                .map(|(name, full)| (name, full && manifest_ok))
                .collect())
        })
        .unwrap_or_else(|e| {
            eprintln!("[bench] {e}");
            vec![("fig4".to_string(), false)]
        });
    let ops = cells
        .into_iter()
        .map(|(name, ok)| Op {
            name,
            keys: vec!["fig4.csv".into()],
            ok,
        })
        .collect();
    iteration(&measured, outputs, ops)
}

/// One `(cell name, ran every episode)` pair per data row of `fig4.csv`.
fn fig4_cells(csv: &str, box_episodes: usize) -> Result<Vec<(String, bool)>, String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("fig4.csv is empty")?
        .split(',')
        .collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or(format!("fig4.csv has no '{name}' column"))
    };
    let (sensor, budget, episodes) = (col("sensor")?, col("budget")?, col("episodes")?);
    lines
        .filter(|l| !l.is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            let get = |i: usize| {
                f.get(i)
                    .copied()
                    .ok_or(format!("short fig4.csv row '{line}'"))
            };
            Ok((
                format!("fig4:{}:{}", get(sensor)?, get(budget)?),
                get(episodes)?.parse::<usize>().ok() == Some(box_episodes),
            ))
        })
        .collect()
}

/// Untraced, `train-tenth` times `prepare()` itself, the code the expected
/// checkpoints come from. Traced, it times [`train_stages`], a copy of
/// `prepare()`'s body with spans, so the traced `wall_s` of this workload
/// compares that copy with `prepare()`, not tracing alone.
fn train_tenth(seed: u64, dir: &Path, tr: &mut Tracer) -> Iteration {
    let config = tenth_config(dir, seed);
    let meter = Meter::start();
    if tr.enabled() {
        drive_par::with_jobs(1, || train_stages(&config, tr));
    } else {
        drive_par::with_jobs(1, || prepare(&config));
    }
    let measured = meter.stop();

    let mut outputs = Outputs::new();
    let mut ops = Vec::new();
    for (stage, file) in STAGES {
        let path = dir.join(file);
        let ok = match (load_from_file(&path), stage) {
            (Ok(t), "pnn") => decode_pnn(&t).is_ok(),
            (Ok(t), _) => decode_policy(&t).is_ok(),
            (Err(e), _) => {
                eprintln!("[bench] {}: {e}", path.display());
                false
            }
        };
        ops.push(Op {
            name: stage.to_string(),
            keys: vec![digest_into(&mut outputs, &path)],
            ok,
        });
    }
    outputs.insert("count.updates".into(), measured.perf.updates.to_string());
    iteration(&measured, outputs, ops)
}

/// `prepare()` on an empty directory, stage by stage, with one span per
/// training function and per checkpoint save. It must stay in step with
/// `prepare()` in `crates/core/src/pipeline.rs`: the same calls, in the
/// same order, with the same arguments, and a save error that only warns.
/// The output gate catches a copy whose checkpoints differ, but not one
/// whose stages are reordered or run differently with the same result.
fn train_stages(config: &PipelineConfig, tr: &mut Tracer) {
    let dir = &config.dir;
    let save = |tr: &mut Tracer, stage: &str, encode: &dyn Fn() -> String| {
        let file = STAGES.iter().find(|s| s.0 == stage).expect("known stage").1;
        tr.enter(format!("train-tenth:save:{stage}"));
        if let Err(e) = save_to_file(dir.join(file), &encode()) {
            eprintln!("[bench] warning: could not save {file}: {e}");
        }
        tr.exit();
    };

    tr.enter("train-tenth:victim");
    let mut victim_config = config.victim.clone();
    if victim_config.snapshot_path.is_none() {
        victim_config.snapshot_path = Some(dir.join("snapshots").join("victim_sac.snap"));
    }
    let victim = train_victim(&config.scenario, &config.features, &victim_config);
    tr.exit();
    save(tr, "victim", &|| encode_policy(&victim));

    // `prepare()` builds the attackers' victims with this exploration seed.
    let builder = || config.victim_agent(&victim, 0xe2e);
    tr.enter("train-tenth:attacker_camera");
    let camera =
        train_camera_attacker(&builder, &config.scenario, &config.features, &config.attack);
    tr.exit();
    save(tr, "attacker_camera", &|| encode_policy(&camera));

    tr.enter("train-tenth:attacker_imu");
    let imu = train_imu_attacker(
        &builder,
        &camera,
        &config.scenario,
        &config.features,
        &config.imu,
        &config.attack,
    );
    tr.exit();
    save(tr, "attacker_imu", &|| encode_policy(&imu));

    for (stage, defense) in [
        ("adv_rho_1_11", &config.defense_rho_small),
        ("adv_rho_1_2", &config.defense_rho_half),
    ] {
        tr.enter(format!("train-tenth:{stage}"));
        let adv = adversarial_finetune(
            &victim,
            &camera,
            &config.scenario,
            &config.features,
            defense,
        );
        tr.exit();
        save(tr, stage, &|| encode_policy(&adv));
    }

    tr.enter("train-tenth:pnn");
    let pnn = train_pnn_defense(
        &victim,
        &camera,
        &config.scenario,
        &config.features,
        &config.defense_pnn,
    );
    tr.exit();
    save(tr, "pnn", &|| encode_pnn(&pnn));
}

fn is_manifest(path: &Path) -> bool {
    path.to_string_lossy().ends_with(".manifest.json")
}

fn file_name(path: &Path) -> String {
    path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenth_config_divides_counts_and_offsets_seeds() {
        let base = PipelineConfig::default();
        let c = tenth_config(Path::new("/x"), 3);
        assert_eq!(c.victim.sac_steps, base.victim.sac_steps / 10);
        assert_eq!(
            c.victim.eval_episodes,
            (base.victim.eval_episodes / 10).max(1)
        );
        assert_eq!(c.attack.bc_episodes, base.attack.bc_episodes / 10);
        assert_eq!(c.defense_pnn.actor_delay, base.defense_pnn.actor_delay / 10);
        assert_eq!(c.defense_rho_half.rho, base.defense_rho_half.rho);
        assert_eq!(c.victim.hidden, base.victim.hidden);
        assert_eq!(c.victim.seed, base.victim.seed + 3);
        assert_eq!(c.defense_rho_small.seed, base.defense_rho_small.seed + 3);
        assert_eq!(eval_scale(0, 30), Scale::paper());
        assert_eq!(eval_scale(2, 30).seed, Scale::paper().seed + 2);
    }

    #[test]
    fn fig4_cells_flag_short_cells() {
        let csv = "sensor,budget,episodes\ncamera,0.00,6000\nimu,1.00,5999\n";
        let cells = fig4_cells(csv, 6000).unwrap();
        assert_eq!(
            cells,
            [
                ("fig4:camera:0.00".to_string(), true),
                ("fig4:imu:1.00".to_string(), false)
            ]
        );
        assert!(fig4_cells("sensor,budget\ncamera,0.00\n", 6000).is_err());
    }
}
