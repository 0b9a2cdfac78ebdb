//! The unified experiment engine: one trait, one registry, one run
//! context — every experiment of the paper's evaluation dispatches
//! through here.
//!
//! The engine replaces the previous per-figure plumbing (seven hand-rolled
//! `run()` entry points, a string-match dispatcher, per-binary CSV/SVG
//! glue) with three pieces:
//!
//! * [`Experiment`] — a named, self-describing unit of evaluation that
//!   turns a [`RunContext`] into an [`ExperimentOutput`] (report text plus
//!   CSV/SVG payloads).
//! * [`Registry`] — the static table of all experiments; the CLI
//!   dispatches through it (`--list`, `--filter`, `--all`), so adding
//!   an experiment is one module plus one registry line.
//! * [`RunContext`] — everything a run needs, bundled: trained
//!   [`Artifacts`], the [`Scale`], the hierarchical [`SeedTree`] all
//!   stochastic streams derive from, the pinned [`drive_par::Executor`],
//!   resilience/fault knobs, and the output sinks. A result memo lets
//!   derived experiments (Fig. 8) reuse upstream sweeps (Fig. 5/7) without
//!   recomputation — and guarantees a standalone run and an `--all` run
//!   produce byte-identical outputs, because seeds are namespaced by
//!   experiment, not by execution order.
//!
//! [`execute`] runs one experiment end to end: pin the worker count, run,
//! write CSV/SVG outputs (atomically), and emit a [`Manifest`] recording
//! the seed namespace, config hash, throughput, and an FNV-1a checksum of
//! every written file — enough to re-derive (and verify) any figure from
//! the manifest alone.

use crate::harness::Scale;
use crate::manifest::{Manifest, OutputEntry};
use crate::perf::{PerfSample, ThroughputProbe};
use crate::resilience::ResilienceConfig;
use attack_core::pipeline::{Artifacts, PipelineConfig};
use drive_metrics::export::Csv;
use drive_metrics::report::Table;
use drive_seed::{fnv1a_64, SeedTree};
use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Everything an [`Experiment::run`] produces: a human-readable report and
/// named CSV/SVG payloads for the engine to sink.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// The printable report (tables + headline statistics).
    pub report: String,
    /// `(file stem, data)` CSV outputs.
    pub csvs: Vec<(String, Csv)>,
    /// `(file stem, document)` SVG outputs.
    pub svgs: Vec<(String, String)>,
}

/// One experiment of the paper's evaluation grid.
///
/// Implementations are stateless unit structs registered in [`Registry`];
/// all inputs arrive through the [`RunContext`].
pub trait Experiment: Sync {
    /// Registry name (CLI argument, seed namespace, manifest key).
    fn name(&self) -> &'static str;
    /// One-line description shown by `--list`.
    fn description(&self) -> &'static str;
    /// Number of independent work cells the experiment fans out over
    /// (0 for purely derived experiments).
    fn cells(&self) -> usize;
    /// Runs the experiment against the context.
    fn run(&self, ctx: &RunContext) -> ExperimentOutput;
}

/// Shared state for one engine invocation: artifacts, scale, seeds,
/// executor, resilience knobs, and output sinks.
///
/// The context also carries a type-erased result memo keyed by experiment
/// name ([`RunContext::memo`]); experiment modules route their computation
/// through it so derived experiments reuse upstream results.
pub struct RunContext<'a> {
    /// Trained artifacts all experiments evaluate against.
    pub artifacts: &'a Artifacts,
    /// The pipeline configuration the artifacts came from.
    pub config: &'a PipelineConfig,
    /// Episode counts per cell.
    pub scale: Scale,
    /// Root of the hierarchical seed namespace (`root/<experiment>/...`);
    /// every stochastic stream of a run derives from this tree.
    pub seeds: SeedTree,
    /// Worker-count handle; [`execute`] pins it for the whole run.
    pub executor: drive_par::Executor,
    /// Per-cell retry/watchdog knobs used by
    /// [`attacked_records`](crate::harness::attacked_records).
    pub resilience: ResilienceConfig,
    /// Benign fault-schedule intensities swept by ablation arm 7.
    pub fault_intensities: Vec<f64>,
    /// Where CSV outputs (and the manifest) land; `None` disables them.
    pub csv_dir: Option<PathBuf>,
    /// Where SVG outputs land; `None` disables them.
    pub svg_dir: Option<PathBuf>,
    /// Crash-safety journal ([`crate::journal`]): this process's worker in
    /// a run directory. When set, every grid cell goes through the lease
    /// protocol — load a published sidecar, claim-and-compute-and-publish,
    /// or wait — completed experiments are logged as they finish, and
    /// already-completed experiments (with verified manifests) are skipped.
    /// `None` (the default) runs without crash safety.
    pub journal: Option<Arc<crate::journal::JournalHandle>>,
    /// Lockstep fleet batch size for
    /// [`attacked_records`](crate::harness::attacked_records) cells whose
    /// victim/attacker pairing is fleet-steppable. `None` (the default)
    /// keeps every cell on the serial path.
    pub fleet: Option<usize>,
    /// Load-only replay used by `repro_bench merge` ([`crate::merge`]):
    /// when set (and no journal is), every cell loads from the merged run
    /// directory's verified sidecars instead of simulating.
    pub replay: Option<Arc<crate::merge::Replay>>,
    cache: Mutex<HashMap<&'static str, Arc<dyn Any + Send + Sync>>>,
}

impl<'a> RunContext<'a> {
    /// A context with default knobs: seeds rooted at `scale.seed`, the
    /// ambient worker count, default resilience, no output sinks.
    pub fn new(artifacts: &'a Artifacts, config: &'a PipelineConfig, scale: Scale) -> Self {
        RunContext {
            artifacts,
            config,
            scale,
            seeds: SeedTree::root(scale.seed),
            executor: drive_par::Executor::current(),
            resilience: ResilienceConfig::default(),
            fault_intensities: vec![0.0, 0.5, 1.0],
            csv_dir: None,
            svg_dir: None,
            journal: None,
            fleet: None,
            replay: None,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the memoized value for `key`, computing it on first use.
    ///
    /// Experiment modules call this with their registry name so a result
    /// is computed at most once per context (Fig. 8 reuses the Fig. 5 and
    /// Fig. 7 sweeps this way). The seed namespace is keyed by experiment
    /// name, so memoization never changes results — only cost.
    ///
    /// # Panics
    ///
    /// Panics if `key` was previously memoized with a different type.
    pub fn memo<T: Send + Sync + 'static>(
        &self,
        key: &'static str,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(hit) = self.cache.lock().expect("memo lock").get(key).cloned() {
            return hit
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("memo key '{key}' holds a different type"));
        }
        // Compute outside the lock: `compute` may itself memoize upstream
        // results (fig8 -> fig5/fig7).
        let value = Arc::new(compute());
        self.cache
            .lock()
            .expect("memo lock")
            .insert(key, value.clone() as Arc<dyn Any + Send + Sync>);
        value
    }

    /// The seed namespace for one experiment: `root/<name>`.
    pub fn seeds_for(&self, experiment: &str) -> SeedTree {
        self.seeds.child(experiment)
    }

    /// The run parameters a crash-safety journal is pinned to (same
    /// config hash as the manifests).
    pub fn run_header(&self) -> crate::journal::RunHeader {
        crate::journal::RunHeader::for_run(self.config, self.scale)
    }
}

/// The static experiment registry.
///
/// Order matters: `--all` runs experiments in this order, which puts the
/// Fig. 5 / Fig. 7 sweeps before the derived Fig. 8.
pub struct Registry;

static EXPERIMENTS: &[&dyn Experiment] = &[
    &crate::experiments::baseline::BaselineExperiment,
    &crate::experiments::fig4::Fig4Experiment,
    &crate::experiments::fig5::Fig5Experiment,
    &crate::experiments::fig6::Fig6Experiment,
    &crate::experiments::fig7::Fig7Experiment,
    &crate::experiments::fig8::Fig8Experiment,
    &crate::experiments::ablations::AblationsExperiment,
    &crate::experiments::scenario_matrix::ScenarioMatrixExperiment,
];

impl Registry {
    /// Every registered experiment, in `--all` execution order.
    pub fn all() -> &'static [&'static dyn Experiment] {
        EXPERIMENTS
    }

    /// The experiment with the given registry name, if any.
    pub fn find(name: &str) -> Option<&'static dyn Experiment> {
        EXPERIMENTS.iter().copied().find(|e| e.name() == name)
    }

    /// All experiments whose name contains `substr` (case-insensitive).
    pub fn filter(substr: &str) -> Vec<&'static dyn Experiment> {
        let needle = substr.to_ascii_lowercase();
        EXPERIMENTS
            .iter()
            .copied()
            .filter(|e| e.name().to_ascii_lowercase().contains(&needle))
            .collect()
    }

    /// The `--list` table for the given experiments (pass
    /// [`Registry::all`] for the full listing).
    pub fn list(experiments: &[&dyn Experiment]) -> String {
        let mut t = Table::new(["experiment", "cells", "description"]);
        for e in experiments {
            t.row([
                e.name().to_string(),
                e.cells().to_string(),
                e.description().to_string(),
            ]);
        }
        t.to_string()
    }
}

/// The outcome of one [`execute`] call.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Registry name of the experiment that ran.
    pub name: &'static str,
    /// The printable report.
    pub report: String,
    /// Wall-clock + throughput sample for the run.
    pub sample: PerfSample,
    /// The emitted manifest (`None` when the context has no output sink).
    pub manifest: Option<Manifest>,
    /// Every file written, manifest included.
    pub written: Vec<PathBuf>,
}

/// Runs one experiment end to end: pins the executor, runs, sinks CSV/SVG
/// outputs atomically, and writes `<name>.manifest.json` next to the CSVs
/// recording seed namespace, config hash, throughput, and per-file
/// checksums.
///
/// # Errors
///
/// Propagates I/O errors from the output sinks; the experiment itself ran
/// to completion by then (its report is lost only on sink failure).
pub fn execute(exp: &dyn Experiment, ctx: &RunContext) -> std::io::Result<EngineRun> {
    let probe = ThroughputProbe::start();
    // Resume fast path: an experiment journaled as complete is skipped
    // outright — but only if its manifest still loads and every listed
    // output verifies byte-for-byte, so a deleted or edited CSV forces a
    // re-run instead of a silent gap.
    if let (Some(journal), Some(dir)) =
        (&ctx.journal, ctx.csv_dir.as_ref().or(ctx.svg_dir.as_ref()))
    {
        if journal.experiment_done(exp.name()) {
            let manifest_path = dir.join(format!("{}.manifest.json", exp.name()));
            match Manifest::load(&manifest_path).map(|m| match m.verify(dir) {
                Ok(()) => Ok(m),
                Err(problems) => Err(problems.join("; ")),
            }) {
                Ok(Ok(m)) => {
                    eprintln!(
                        "[resume] {} already complete ({} output file(s) verified) — skipping",
                        exp.name(),
                        m.outputs.len()
                    );
                    return Ok(EngineRun {
                        name: exp.name(),
                        report: format!(
                            "[resume] {} already complete — outputs verified, skipping\n",
                            exp.name()
                        ),
                        sample: probe.sample(exp.name()),
                        manifest: Some(m),
                        written: Vec::new(),
                    });
                }
                Ok(Err(problems)) => eprintln!(
                    "[resume] {} journaled but outputs fail verification ({problems}); re-running",
                    exp.name()
                ),
                Err(e) => eprintln!(
                    "[resume] {} journaled but manifest unreadable ({e}); re-running",
                    exp.name()
                ),
            }
        }
    }
    let out = ctx.executor.run(|| exp.run(ctx));
    let sample = probe.sample(exp.name());

    let mut written = Vec::new();
    if let Some(dir) = &ctx.csv_dir {
        for (stem, csv) in &out.csvs {
            let path = dir.join(format!("{stem}.csv"));
            csv.write_to(&path)?;
            written.push(path);
        }
    }
    if let Some(dir) = &ctx.svg_dir {
        for (stem, svg) in &out.svgs {
            let path = dir.join(format!("{stem}.svg"));
            drive_metrics::svg::write_svg(&path, svg)?;
            written.push(path);
        }
    }

    // The manifest lives next to the CSVs (falling back to the SVG dir
    // when only SVGs were requested). Checksums are computed from the
    // bytes on disk, so a later `validate-manifest` compares like with
    // like.
    let manifest_dir = ctx.csv_dir.as_ref().or(ctx.svg_dir.as_ref()).cloned();
    let manifest = if let Some(dir) = manifest_dir {
        let mut outputs = Vec::new();
        for path in &written {
            let bytes = std::fs::read(path)?;
            let file = path
                .strip_prefix(&dir)
                .map(|p| p.to_string_lossy().into_owned())
                .unwrap_or_else(|_| path.to_string_lossy().into_owned());
            outputs.push(OutputEntry {
                file,
                bytes: bytes.len() as u64,
                fnv64: fnv1a_64(&bytes),
            });
        }
        let m = Manifest {
            schema: Manifest::SCHEMA.to_string(),
            experiment: exp.name().to_string(),
            description: exp.description().to_string(),
            seed_root: ctx.scale.seed,
            seed_path: ctx.seeds_for(exp.name()).path().to_string(),
            box_episodes: ctx.scale.box_episodes,
            scatter_rounds: ctx.scale.scatter_rounds,
            jobs: ctx.executor.jobs(),
            config_hash: fnv1a_64(format!("{:?}", ctx.config).as_bytes()),
            wall_secs: sample.wall_secs,
            steps: sample.steps,
            steps_per_sec: sample.steps_per_sec(),
            outputs,
        };
        let path = dir.join(format!("{}.manifest.json", exp.name()));
        m.write_to(&path)?;
        // The manifest is the experiment's commit point: only after it is
        // on disk is the experiment journaled as done, so a kill anywhere
        // earlier re-runs the experiment (replaying its journaled cells).
        if let Some(journal) = &ctx.journal {
            let manifest_fnv = std::fs::read(&path).map(|b| fnv1a_64(&b)).unwrap_or(0);
            if let Err(e) = journal.record_experiment(exp.name(), manifest_fnv) {
                eprintln!(
                    "warning: could not journal completion of {}: {e}",
                    exp.name()
                );
            }
        }
        written.push(path);
        Some(m)
    } else {
        None
    };

    Ok(EngineRun {
        name: exp.name(),
        report: out.report,
        sample,
        manifest,
        written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for e in Registry::all() {
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            assert!(std::ptr::eq(
                Registry::find(e.name()).expect("findable"),
                *e
            ));
            assert!(!e.description().is_empty());
        }
        assert!(Registry::find("nope").is_none());
    }

    #[test]
    fn registry_covers_the_paper_grid_in_order() {
        let names: Vec<&str> = Registry::all().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "baseline",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "ablations",
                "scenario-matrix"
            ],
            "fig8 must come after the fig5/fig7 sweeps it derives from"
        );
    }

    #[test]
    fn filter_is_case_insensitive_substring() {
        let figs = Registry::filter("FIG");
        assert_eq!(figs.len(), 5);
        assert!(Registry::filter("ablat").len() == 1);
        assert!(Registry::filter("zzz").is_empty());
    }

    #[test]
    fn list_renders_every_experiment() {
        let text = Registry::list(Registry::all());
        for e in Registry::all() {
            assert!(text.contains(e.name()), "missing {}", e.name());
        }
        assert!(text.contains("description"));
    }

    #[test]
    fn memo_computes_once_per_key() {
        // A context over dummy borrows is awkward; test the memo through a
        // real quick pipeline at the integration level (tests/golden.rs).
        // Here: the seed namespace helper.
        let dir = std::env::temp_dir().join("repro-bench-engine-memo-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = attack_core::pipeline::prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let mut calls = 0;
        let a = ctx.memo("k", || {
            calls += 1;
            41 + calls
        });
        let b = ctx.memo::<i32>("k", || unreachable!("second compute must not run"));
        assert_eq!(*a, 42);
        assert_eq!(*b, 42);
        assert_eq!(
            ctx.seeds_for("fig4").path(),
            "root/fig4",
            "seed namespaces are keyed by experiment name"
        );
        assert_ne!(ctx.seeds_for("fig4").seed(), ctx.seeds_for("fig5").seed());
    }
}
