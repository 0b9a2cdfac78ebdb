//! `bench run`: one workload at one seed, in this process.
//!
//! Untraced, the run repeats the workload until the next iteration would
//! end past `--seconds` (at least once) and reports the end-to-end metrics
//! as medians over the iterations. Set-up is timed [`SETUPS`] times before
//! the first iteration and [`SETUPS`] more after each one; the later
//! set-ups are only measured, so that the set-up samples span the run as
//! the iterations do, and their median is `setup_s`.
//!
//! Traced, it runs every workload section once under spans, then the layer
//! probes, writes `trace.json`, and reports the per-layer metrics;
//! `--seconds` does not apply.

use crate::gate::{self, ArtifactGuard, Outputs};
use crate::json::{quote, Json};
use crate::layers::{self, Metrics};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use crate::workload::{eval_config, run_iteration, tenth_config, Env, Iteration, Workload};
use attack_core::pipeline::{prepare, Artifacts};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups timed before the first iteration and after each one.
const SETUPS: usize = 5;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Appends `{"workload", "seed", "trace", "result"}` here (one JSON
    /// line per run), the input format of `bench compare`.
    pub record: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line the benchmark contract asks for.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, (value, unit)) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        ))
    }
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn guard(env: &Env) -> Result<ArtifactGuard, String> {
    let expected = read(&env.expected_file("artifacts.txt"))?;
    ArtifactGuard::check(&env.artifacts_dir(), &expected)
}

/// Sets `w` up [`SETUPS`] times, appending each duration to `times`, and
/// returns the last set-up: the artifact guard and, for the evaluation
/// workloads, the loaded checkpoints.
fn timed_setups(
    env: &Env,
    w: Workload,
    times: &mut Vec<f64>,
) -> Result<(ArtifactGuard, Option<Artifacts>), String> {
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let guard = guard(env)?;
        let artifacts = (w != Workload::TrainTenth).then(|| prepare(&eval_config(env)));
        times.push(t0.elapsed().as_secs_f64());
        ready = Some((guard, artifacts));
    }
    Ok(ready.expect("SETUPS > 0"))
}

/// The checked-in expected outputs of `w` at `seed`, if any.
fn expected_outputs(env: &Env, w: Workload, seed: u64) -> Result<Option<Outputs>, String> {
    let path = env.expected_file(&format!("{}.txt", w.name()));
    gate::expected_for(&read(&path)?, seed).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counts every operation of `it` (failed when the program reported a
/// problem or an output it owns differs from `reference`) and notes every
/// difference from `reference`, exact counts included.
fn check(it: &Iteration, reference: &Outputs, tally: &mut Tally, problems: &mut Vec<String>) {
    for op in &it.ops {
        let bad = gate::mismatches(&op.keys, &it.outputs, reference);
        if !op.ok {
            problems.push(format!("{} reported a failure", op.name));
        }
        tally.record(op.ok && bad.is_empty());
    }
    let keys: std::collections::BTreeSet<&String> =
        reference.keys().chain(it.outputs.keys()).collect();
    let bad = gate::mismatches(keys, &it.outputs, reference);
    if !bad.is_empty() {
        problems.push(format!(
            "outputs differ from the reference: {}",
            bad.join(", ")
        ));
    }
}

pub fn run(env: &Env, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        run_traced(env, args)
    } else {
        run_untraced(env, args)
    }
}

fn run_untraced(env: &Env, args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let mut reference = expected_outputs(env, w, args.seed)?;
    let mut setup_s = Vec::new();
    let (guard, artifacts) = timed_setups(env, w, &mut setup_s)?;

    let mut tracer = Tracer::new(false);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let start = Instant::now();
    loop {
        let it = run_iteration(w, env, artifacts.as_ref(), args.seed, &mut tracer)?;
        if walls.is_empty() {
            peak_rss_mb = crate::sys::peak_rss_mb()?;
            let path = env
                .work_dir(w.name())?
                .join(format!("outputs-s{}.txt", args.seed));
            std::fs::write(&path, gate::render(args.seed, &it.outputs))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        check(
            &it,
            reference.get_or_insert_with(|| it.outputs.clone()),
            &mut tally,
            &mut problems,
        );
        eprintln!(
            "[bench] {} seed {} iteration {}: {:.3} s wall, {:.3} s cpu",
            w.name(),
            args.seed,
            walls.len() + 1,
            it.wall_s,
            it.cpu_s
        );
        walls.push(it.wall_s);
        cpus.push(it.cpu_s);
        timed_setups(env, w, &mut setup_s)?;
        if start.elapsed().as_secs_f64() + it.wall_s > args.seconds {
            break;
        }
    }
    if let Err(e) = guard.verify(&env.artifacts_dir()) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("[bench] FAILED: {p}");
    }

    let med = |v: &[f64]| median(v).expect("at least one value");
    let metrics: Metrics = [
        ("setup_s", med(&setup_s), "s"),
        ("wall_s", med(&walls), "s"),
        ("cpu_s", med(&cpus), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), (value, unit)))
    .collect();
    Ok(Outcome {
        correct: problems.is_empty() && tally.failed == 0,
        tally,
        metrics,
    })
}

fn run_traced(env: &Env, args: &RunArgs) -> Result<Outcome, String> {
    let own = args.workload;
    let guard = guard(env)?;
    let config = eval_config(env);
    let mut tr = Tracer::new(true);
    tr.enter("run");
    tr.enter("pipeline.prepare");
    let artifacts = prepare(&config);
    tr.exit();

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut iterations = BTreeMap::new();
    let order = std::iter::once(own).chain(Workload::ALL.into_iter().filter(|w| *w != own));
    for w in order {
        tr.enter(format!("section:{}", w.name()));
        let it = run_iteration(w, env, Some(&artifacts), args.seed, &mut tr)?;
        tr.exit();
        let reference = expected_outputs(env, w, args.seed)?.unwrap_or_else(|| it.outputs.clone());
        check(&it, &reference, &mut tally, &mut problems);
        eprintln!("[bench] traced {}: {:.3} s wall", w.name(), it.wall_s);
        iterations.insert(w.name(), it);
    }
    let mut metrics = layers::probes(env, &config, &artifacts, args.seed, &mut tr)?;
    tr.exit();

    let journal_cells = iterations[Workload::PaperSerial.name()].outputs["count.journal_cells"]
        .parse::<f64>()
        .map_err(|e| format!("bad journal cell count: {e}"))?;
    metrics.extend(layers::span_metrics(&tr, env, journal_cells)?);
    // The victim and both attackers start from behaviour cloning.
    let trained = tenth_config(&env.root, args.seed);
    let bc_steps = trained.victim.bc_steps + 2 * trained.attack.bc_steps;
    let share = layers::update_share(&metrics, bc_steps);
    metrics.insert("rl.update_share".into(), (share, "fraction"));
    metrics.insert("trace.wall_s".into(), (iterations[own.name()].wall_s, "s"));

    let path = env
        .work_dir(own.name())?
        .join(format!("trace-s{}.json", args.seed));
    std::fs::write(&path, tr.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[bench] wrote {}", path.display());
    if let Err(e) = guard.verify(&env.artifacts_dir()) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("[bench] FAILED: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty() && tally.failed == 0,
        tally,
        metrics,
    })
}

/// Checks that the emitted metric names and units are exactly the ones
/// `BENCHMARK.json` declares for this kind of run.
pub fn check_declared(env: &Env, trace: bool, metrics: &Metrics) -> Result<(), String> {
    let doc = Json::parse(&read(&env.root.join("BENCHMARK.json"))?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if trace { "per_layer" } else { "end_to_end" };
    let declared: BTreeMap<&str, &str> = doc
        .get(list)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let emitted: BTreeMap<&str, &str> = metrics.iter().map(|(k, v)| (k.as_str(), v.1)).collect();
    if declared != emitted {
        let only = |a: &BTreeMap<&str, &str>, b: &BTreeMap<&str, &str>| -> Vec<String> {
            a.iter()
                .filter(|(k, v)| b.get(*k) != Some(*v))
                .map(|(k, v)| format!("{k} [{v}]"))
                .collect()
        };
        return Err(format!(
            "metrics differ from BENCHMARK.json's {list}: declared only {:?}, emitted only {:?}",
            only(&declared, &emitted),
            only(&emitted, &declared)
        ));
    }
    Ok(())
}

/// Appends the run's record line to `path`.
pub fn record(path: &PathBuf, args: &RunArgs, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(
        f,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
        quote(args.workload.name()),
        args.seed,
        u8::from(args.trace)
    )
    .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}
