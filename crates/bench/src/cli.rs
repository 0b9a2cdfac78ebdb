//! Registry-dispatched command line of the `repro_bench` binary (the
//! `prepare` binary reuses its pipeline flags).
//!
//! All experiment logic lives behind the [`Experiment`](crate::Experiment)
//! trait; this module only parses arguments, selects experiments from the
//! [`Registry`], and drives [`engine::execute`]. Flags:
//!
//! * `--list` — print the experiment registry and exit
//! * `--filter <substr>` — run every experiment whose name matches
//! * `--all` — run the whole registry in order
//! * `--scale <smoke|paper>` — evaluation scale (default `paper`;
//!   `smoke` is the reduced scale)
//! * `--quick` — quick-trained artifacts (CI preset, not paper numbers)
//! * `--csv <dir>` / `--svg <dir>` — write data/figure outputs (a
//!   `<name>.manifest.json` with per-file checksums lands next to them)
//! * `--resume <dir>` — rejoin the crash-safety journal of a killed run
//!   (same flags and experiment selection) and continue it (`<dir>`
//!   doubles as the CSV dir unless `--csv` is given); completed
//!   experiments are skipped, completed cells replay from the journal,
//!   and the finished outputs are byte-identical to an uninterrupted run
//! * `--no-journal` — disable the journal (it is on whenever a CSV or SVG
//!   directory is set)
//! * `--artifacts <dir>` — checkpoint directory (default `artifacts/`)
//! * `--fleet <n>` — step `n` episodes of each fleet-capable evaluation
//!   cell in lockstep through the batched
//!   [`WorldBatch`](drive_sim::batch::WorldBatch) engine (default
//!   [`FLEET_BATCH`](crate::engine::FLEET_BATCH)); `--fleet 0` runs every
//!   cell on the serial engine. Both are byte-identical.
//! * `--perf-json <path>` — write per-phase throughput as JSON
//! * `validate-manifest <path>` — re-check a manifest's file checksums
//! * `bench-compare <current.json>` — diff a fresh `PERF_JSON` export from
//!   the `perf` criterion bench against `--baseline` (default
//!   `BENCH_perf.json`); exits nonzero when any bench's median exceeds
//!   `--tolerance` (default 1.5) times its baseline or is missing
//!
//! Worker-thread count comes from `DRIVE_JOBS` (see `drive_par`).

use crate::benchcmp;
use crate::engine::{self, Registry, RunContext};
use crate::harness::Scale;
use crate::journal::{JournalHandle, RunHeader, ShardHeader, DEFAULT_TTL, SOLO_WORKER};
use crate::manifest::Manifest;
use crate::perf::{PerfReport, ThroughputProbe};
use attack_core::pipeline::{prepare, PipelineConfig};
use std::path::{Path, PathBuf};

/// Parsed command line for the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// Experiment names to run, in order.
    pub names: Vec<String>,
    /// Print the registry and exit.
    pub list: bool,
    /// Run every experiment whose name contains this substring.
    pub filter: Option<String>,
    /// Run the whole registry.
    pub all: bool,
    /// Use the quick-training pipeline preset.
    pub quick: bool,
    /// Evaluation scale (`--scale smoke|paper`).
    pub scale: Scale,
    /// CSV output directory.
    pub csv: Option<PathBuf>,
    /// SVG output directory.
    pub svg: Option<PathBuf>,
    /// Run directory of a killed run to resume.
    pub resume: Option<PathBuf>,
    /// Disable the crash-safety journal.
    pub no_journal: bool,
    /// Artifact checkpoint directory (`None` = `artifacts/`).
    pub artifacts: Option<PathBuf>,
    /// Perf-report JSON path.
    pub perf_json: Option<PathBuf>,
    /// `--fleet` batch size: `None` when not given (the context's
    /// default), `Some(0)` for serial evaluation.
    pub fleet: Option<usize>,
    /// Manifest to validate instead of running experiments.
    pub validate_manifest: Option<PathBuf>,
    /// Fresh bench export to compare against the baseline.
    pub bench_compare: Option<PathBuf>,
    /// Baseline for `bench-compare` (`None` = `BENCH_perf.json`).
    pub baseline: Option<PathBuf>,
    /// Acceptable `current / baseline` ratio for `bench-compare`
    /// (`None` = [`crate::benchcmp::DEFAULT_TOLERANCE`]).
    pub tolerance: Option<f64>,
}

/// Errors surfaced to the user by the CLI (exit codes in
/// [`exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// A name that is not in the registry.
    UnknownExperiment(String),
    /// An unrecognized `--flag`.
    UnknownFlag(String),
    /// A flag that requires a value was last on the line.
    MissingValue(String),
    /// A flag value that does not parse (flag, offending value).
    InvalidValue(String, String),
    /// `--filter` matched nothing.
    NoMatch(String),
    /// `validate-manifest` found a bad or mismatching manifest.
    ManifestInvalid(String),
    /// `bench-compare` found a regression (or could not read its inputs).
    BenchRegression(String),
    /// `--resume` could not re-open the run's journal (incompatible
    /// parameters, corruption beyond tail repair, or I/O failure).
    Resume(String),
    /// SIGTERM/Ctrl-C latched mid-run: the run drained at a cell boundary
    /// (carrying the journaled run directory when one was active, for the
    /// `--resume` hint).
    Interrupted(Option<PathBuf>),
    /// Output-sink failure.
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownExperiment(name) => {
                writeln!(f, "unknown experiment '{name}'")?;
                writeln!(f, "\navailable experiments:")?;
                write!(f, "{}", Registry::list(Registry::all()))
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' needs a value"),
            CliError::InvalidValue(flag, value) => {
                write!(f, "flag '{flag}' got invalid value '{value}'")
            }
            CliError::NoMatch(filter) => {
                writeln!(f, "no experiment matches filter '{filter}'")?;
                writeln!(f, "\navailable experiments:")?;
                write!(f, "{}", Registry::list(Registry::all()))
            }
            CliError::ManifestInvalid(msg) => write!(f, "manifest invalid:\n{msg}"),
            CliError::BenchRegression(msg) => write!(f, "{msg}"),
            CliError::Resume(msg) => write!(f, "cannot resume: {msg}"),
            CliError::Interrupted(run_dir) => {
                write!(
                    f,
                    "interrupted (SIGTERM/Ctrl-C); stopped at a cell boundary"
                )?;
                match run_dir {
                    Some(dir) => write!(
                        f,
                        "\ncompleted work is journaled — continue with: --resume {}",
                        dir.display()
                    ),
                    None => write!(
                        f,
                        "\nno journal was active (no --csv/--svg dir); progress was discarded"
                    ),
                }
            }
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Process exit code for an error: 2 for usage problems (unknown
/// experiment/flag), 1 for runtime failures.
pub fn exit_code(err: &CliError) -> i32 {
    match err {
        CliError::UnknownExperiment(_)
        | CliError::UnknownFlag(_)
        | CliError::MissingValue(_)
        | CliError::InvalidValue(..)
        | CliError::NoMatch(_) => 2,
        CliError::ManifestInvalid(_)
        | CliError::BenchRegression(_)
        | CliError::Resume(_)
        | CliError::Io(_) => 1,
        // 128 + SIGINT, the conventional "terminated by signal" code.
        CliError::Interrupted(_) => 130,
    }
}

impl CliArgs {
    /// Applies `--fleet` to a run context: a batch size replaces the
    /// context's default, and `--fleet 0` selects the serial engine.
    pub(crate) fn apply_fleet(&self, ctx: &mut RunContext) {
        if let Some(batch) = self.fleet {
            ctx.fleet = (batch > 0).then_some(batch);
        }
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnknownFlag`] / [`CliError::MissingValue`] for
    /// malformed flags; experiment names are validated later, at
    /// selection.
    pub fn parse(args: &[String]) -> Result<CliArgs, CliError> {
        let mut out = CliArgs::default();
        let mut it = args.iter().peekable();
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
         -> Result<PathBuf, CliError> {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| CliError::MissingValue(flag.to_string()))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list" => out.list = true,
                "--all" => out.all = true,
                "--quick" => out.quick = true,
                "--scale" => {
                    let raw = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue("--scale".to_string()))?;
                    out.scale = match raw.as_str() {
                        "smoke" => Scale::smoke(),
                        "paper" => Scale::paper(),
                        _ => {
                            return Err(CliError::InvalidValue("--scale".to_string(), raw.clone()))
                        }
                    };
                }
                "--filter" => {
                    out.filter = Some(
                        it.next()
                            .cloned()
                            .ok_or_else(|| CliError::MissingValue("--filter".to_string()))?,
                    )
                }
                "--csv" => out.csv = Some(value(&mut it, "--csv")?),
                "--svg" => out.svg = Some(value(&mut it, "--svg")?),
                "--resume" => out.resume = Some(value(&mut it, "--resume")?),
                "--no-journal" => out.no_journal = true,
                "--artifacts" => out.artifacts = Some(value(&mut it, "--artifacts")?),
                "--perf-json" => out.perf_json = Some(value(&mut it, "--perf-json")?),
                "--fleet" => {
                    let raw = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue("--fleet".to_string()))?;
                    let batch: usize = raw
                        .parse()
                        .map_err(|_| CliError::InvalidValue("--fleet".to_string(), raw.clone()))?;
                    out.fleet = Some(batch);
                }
                "validate-manifest" => {
                    out.validate_manifest = Some(value(&mut it, "validate-manifest")?)
                }
                "bench-compare" => out.bench_compare = Some(value(&mut it, "bench-compare")?),
                "--baseline" => out.baseline = Some(value(&mut it, "--baseline")?),
                "--tolerance" => {
                    let raw = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue("--tolerance".to_string()))?;
                    let ratio: f64 = raw.parse().map_err(|_| {
                        CliError::InvalidValue("--tolerance".to_string(), raw.clone())
                    })?;
                    if !(ratio.is_finite() && ratio > 0.0) {
                        return Err(CliError::InvalidValue(
                            "--tolerance".to_string(),
                            raw.clone(),
                        ));
                    }
                    out.tolerance = Some(ratio);
                }
                flag if flag.starts_with("--") => {
                    return Err(CliError::UnknownFlag(flag.to_string()))
                }
                name => out.names.push(name.to_string()),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// See [`CliArgs::parse`].
    pub fn from_env() -> Result<CliArgs, CliError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        CliArgs::parse(&args)
    }

    /// Whether the arguments select any experiments (name, filter, or
    /// `--all`) or a non-running action (`--list`, `validate-manifest`).
    pub fn selects_anything(&self) -> bool {
        self.all
            || self.list
            || !self.names.is_empty()
            || self.filter.is_some()
            || self.validate_manifest.is_some()
            || self.bench_compare.is_some()
    }

    /// The pipeline configuration (artifact dir + quick preset).
    pub fn pipeline_config(&self) -> PipelineConfig {
        let dir = self
            .artifacts
            .clone()
            .unwrap_or_else(|| PathBuf::from("artifacts"));
        if self.quick {
            PipelineConfig::quick(dir)
        } else {
            PipelineConfig {
                dir,
                ..PipelineConfig::default()
            }
        }
    }

    /// Resolves the experiments to run from the registry.
    ///
    /// # Errors
    ///
    /// [`CliError::UnknownExperiment`] for an unregistered name,
    /// [`CliError::NoMatch`] for a filter with no hits.
    pub fn select(&self) -> Result<Vec<&'static dyn engine::Experiment>, CliError> {
        if self.all {
            return Ok(Registry::all().to_vec());
        }
        if !self.names.is_empty() {
            return self
                .names
                .iter()
                .map(|name| {
                    Registry::find(name).ok_or_else(|| CliError::UnknownExperiment(name.clone()))
                })
                .collect();
        }
        if let Some(filter) = &self.filter {
            let hits = Registry::filter(filter);
            if hits.is_empty() {
                return Err(CliError::NoMatch(filter.clone()));
            }
            return Ok(hits);
        }
        Ok(Vec::new())
    }
}

/// Validates a manifest file against the outputs sitting next to it.
fn validate_manifest_cmd(path: &Path) -> Result<(), CliError> {
    let manifest = Manifest::load(path).map_err(CliError::ManifestInvalid)?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    match manifest.verify(dir) {
        Ok(()) => {
            println!(
                "manifest OK: {} ({}, {} output file(s) verified)",
                path.display(),
                manifest.experiment,
                manifest.outputs.len()
            );
            Ok(())
        }
        Err(problems) => Err(CliError::ManifestInvalid(problems.join("\n"))),
    }
}

/// Compares a fresh bench export against the checked-in baseline and
/// fails on any regressed or missing bench.
fn bench_compare_cmd(args: &CliArgs, current: &Path) -> Result<(), CliError> {
    let baseline = args
        .baseline
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_perf.json"));
    let tolerance = args.tolerance.unwrap_or(benchcmp::DEFAULT_TOLERANCE);
    let cmp = benchcmp::compare_files(current, &baseline, tolerance)
        .map_err(CliError::BenchRegression)?;
    if cmp.passed() {
        print!("{}", cmp.render());
        Ok(())
    } else {
        Err(CliError::BenchRegression(cmp.render()))
    }
}

/// Runs the parsed command: list, validate, or execute the selected
/// experiments through the engine (preparing artifacts once).
///
/// # Errors
///
/// See [`CliError`].
pub fn run(args: &CliArgs) -> Result<(), CliError> {
    if let Some(path) = &args.validate_manifest {
        return validate_manifest_cmd(path);
    }
    if let Some(path) = &args.bench_compare {
        return bench_compare_cmd(args, path);
    }
    if args.list {
        let experiments = match &args.filter {
            Some(f) => Registry::filter(f),
            None => Registry::all().to_vec(),
        };
        print!("{}", Registry::list(&experiments));
        return Ok(());
    }
    let experiments = args.select()?;
    let config = args.pipeline_config();
    let scale = args.scale;
    eprintln!(
        "artifacts dir: {} | scale: {} episodes/cell, {} rounds/budget",
        config.dir.display(),
        scale.box_episodes,
        scale.scatter_rounds
    );

    // `--resume <dir>` names the run directory; it doubles as the CSV dir
    // unless one was given explicitly, so the resumed run writes (and
    // verifies) the same files the killed run did.
    let csv_dir = args.csv.clone().or_else(|| args.resume.clone());
    // The journal is opened before artifact preparation: a run killed
    // while still training leaves a (cell-less) run directory behind, and
    // resuming it re-enters training at the victim's own snapshot. A
    // journaled run is the completing sweep of a one-worker shard in
    // `<dir>/journal/`; `--resume` rejoins as the same worker.
    let journal = if args.no_journal {
        None
    } else if let Some(run_dir) = csv_dir.as_ref().or(args.svg.as_ref()) {
        let journal_dir = run_dir.join("journal");
        if args.resume.is_none() {
            // A fresh run owns the directory: stale cells from an older,
            // differently configured run must not survive.
            let _ = std::fs::remove_dir_all(&journal_dir);
        }
        let header = ShardHeader {
            run: RunHeader::for_run(&config, scale),
            selection: experiments.iter().map(|e| e.name().to_string()).collect(),
        };
        let journal = JournalHandle::join(&journal_dir, &header, SOLO_WORKER, DEFAULT_TTL)
            .map_err(|e| CliError::Resume(e.to_string()))?;
        eprintln!(
            "[journal] {} at {}",
            if args.resume.is_some() {
                "resumed"
            } else {
                "started"
            },
            journal_dir.display()
        );
        Some(std::sync::Arc::new(journal))
    } else {
        None
    };

    let total = ThroughputProbe::start();
    let mut report = PerfReport::new();
    let probe = ThroughputProbe::start();
    let artifacts = prepare(&config);
    report.push(probe.sample("prepare"));

    let mut ctx = RunContext::new(&artifacts, &config, scale);
    ctx.csv_dir = csv_dir;
    ctx.svg_dir = args.svg.clone();
    ctx.journal = journal;
    args.apply_fleet(&mut ctx);
    if args.fleet.is_some() {
        match ctx.fleet {
            Some(batch) => eprintln!("[fleet] batched evaluation: {batch} episodes in lockstep"),
            None => eprintln!("[fleet] serial evaluation"),
        }
    }
    // The run directory a graceful interruption can be resumed from (only
    // meaningful while a journal is recording).
    let resume_hint = if ctx.journal.is_some() {
        ctx.csv_dir.clone().or_else(|| args.svg.clone())
    } else {
        None
    };
    for exp in experiments {
        // The harness unwinds with the `ShutdownRequested` sentinel at the
        // next cell boundary after SIGTERM/Ctrl-C; catch it here and turn
        // it into a clean, resumable exit. Real panics keep propagating.
        let executed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine::execute(exp, &ctx)));
        let outcome = match executed {
            Ok(result) => result?,
            Err(payload) => {
                if payload.is::<drive_core::shutdown::ShutdownRequested>() {
                    return Err(CliError::Interrupted(resume_hint));
                }
                std::panic::resume_unwind(payload);
            }
        };
        println!("{}", outcome.report);
        for path in &outcome.written {
            eprintln!("[out] wrote {}", path.display());
        }
        report.push(outcome.sample);
    }
    report.push(total.sample("total"));
    eprint!("{}", report.summary());
    if let Some(path) = &args.perf_json {
        report.write_to(path)?;
        eprintln!("[perf] wrote {}", path.display());
    }
    Ok(())
}

/// Entry point for the `repro_bench` multiplexer binary: with no selection
/// at all, print usage plus the registry and exit 2. The `serve` and
/// `loadgen` subcommands (the policy-serving layer) have their own flag
/// surface and dispatch to [`crate::servecli`] before experiment parsing.
pub fn main_from_env() -> i32 {
    drive_core::shutdown::install();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("serve") => return crate::servecli::main(crate::servecli::ServeMode::Sim, &raw[1..]),
        Some("loadgen") => {
            return crate::servecli::main(crate::servecli::ServeMode::Loadgen, &raw[1..])
        }
        Some("shard") => return crate::shard::main(&raw[1..]),
        Some("merge") => return crate::merge::main(&raw[1..]),
        _ => {}
    }
    match CliArgs::from_env() {
        Ok(args) => {
            if !args.selects_anything() {
                eprintln!(
                    "usage: repro_bench [<experiment>...|--all|--filter <substr>|--list|validate-manifest <path>|bench-compare <current.json>]\n       [--scale smoke|paper] [--quick] [--csv <dir>] [--svg <dir>] [--resume <dir>] [--no-journal]\n       [--artifacts <dir>] [--perf-json <path>] [--baseline <path>] [--tolerance <ratio>]\n       [--fleet <batch>]\n   or: repro_bench shard <dir> [--worker <id>] [--ttl-ms <n>] [<experiment>...|--all]\n       [--scale smoke|paper] [--quick] [--artifacts <dir>] [--fleet <batch>]\n   or: repro_bench merge <dir> [--out <dir>] [--quick] [--artifacts <dir>] [--fleet <batch>]\n   or: repro_bench serve|loadgen [--requests <n>] [--qps <n>] [--seed <n>] [--workers <n>]\n       [--kills <n>] [--stalls <n>] [--corrupt-rate <f>] [--attack-at-us <n>] [--attack-delta <f>]\n       [--expect-no-sheds] [--expect-degraded] [--latency-json <path>] [--slo-p99-us <n>] [--qps-grid <a,b,...>]\n"
                );
                eprint!("{}", Registry::list(Registry::all()));
                return 2;
            }
            dispatch(&args)
        }
        Err(e) => report_error(&e),
    }
}

fn dispatch(args: &CliArgs) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(e) => report_error(&e),
    }
}

fn report_error(e: &CliError) -> i32 {
    eprintln!("error: {e}");
    exit_code(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliArgs {
        CliArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_flags_and_names() {
        let args = parse(&[
            "fig4",
            "--scale",
            "smoke",
            "--quick",
            "--csv",
            "/tmp/c",
            "--svg",
            "/tmp/s",
            "--artifacts",
            "/tmp/a",
            "--perf-json",
            "/tmp/p.json",
            "fig5",
        ]);
        assert_eq!(args.names, ["fig4", "fig5"]);
        assert!(args.scale == Scale::smoke() && args.quick);
        assert_eq!(args.csv.as_deref(), Some(Path::new("/tmp/c")));
        assert_eq!(args.svg.as_deref(), Some(Path::new("/tmp/s")));
        assert_eq!(args.artifacts.as_deref(), Some(Path::new("/tmp/a")));
        assert_eq!(args.perf_json.as_deref(), Some(Path::new("/tmp/p.json")));
        assert_eq!(args.select().unwrap().len(), 2);
        assert!(args.pipeline_config().dir.ends_with("a"));
    }

    #[test]
    fn parses_scale_flag() {
        assert_eq!(parse(&["scenario-matrix"]).scale, Scale::paper());
        let args = parse(&["scenario-matrix", "--scale", "smoke"]);
        assert_eq!(args.scale, Scale::smoke());
        let args = parse(&["scenario-matrix", "--scale", "paper"]);
        assert_eq!(args.scale, Scale::paper());
        // Last flag wins.
        let args = parse(&["--scale", "smoke", "--scale", "paper"]);
        assert_eq!(args.scale, Scale::paper());
        let bad: Vec<String> = vec!["--scale".into(), "huge".into()];
        assert!(matches!(
            CliArgs::parse(&bad),
            Err(CliError::InvalidValue(..))
        ));
        let dangling: Vec<String> = vec!["--scale".into()];
        assert!(matches!(
            CliArgs::parse(&dangling),
            Err(CliError::MissingValue(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_and_dangling_flags() {
        // `--smoke` is spelled `--scale smoke`.
        for flag in ["--frobnicate", "--smoke"] {
            let err = CliArgs::parse(&[flag.to_string()]).expect_err(flag);
            assert!(matches!(err, CliError::UnknownFlag(_)), "{err:?}");
            assert_eq!(exit_code(&err), 2);
        }
        let dangling: Vec<String> = vec!["--csv".into()];
        assert!(matches!(
            CliArgs::parse(&dangling),
            Err(CliError::MissingValue(_))
        ));
    }

    #[test]
    fn unknown_experiment_error_includes_registry_list() {
        let args = parse(&["nope"]);
        let err = args.select().err().expect("unknown name must not select");
        assert_eq!(exit_code(&err), 2);
        let text = err.to_string();
        assert!(text.contains("unknown experiment 'nope'"));
        // The error doubles as `--list` output so the user sees what is
        // available.
        for e in Registry::all() {
            assert!(text.contains(e.name()), "error lists {}", e.name());
        }
    }

    #[test]
    fn all_and_filter_select_from_registry() {
        let args = parse(&["--all"]);
        assert_eq!(args.select().unwrap().len(), Registry::all().len());
        // `all` is not a positional alias of `--all`.
        let err = parse(&["all"]).select().err().expect("no experiment 'all'");
        assert!(matches!(err, CliError::UnknownExperiment(_)), "{err:?}");
        let args = parse(&["--filter", "fig"]);
        assert_eq!(args.select().unwrap().len(), 5);
        let args = parse(&["--filter", "zzz"]);
        assert!(matches!(args.select(), Err(CliError::NoMatch(_))));
        // Nothing selected: empty, so `repro_bench` prints its usage.
        let args = parse(&[]);
        assert!(args.select().unwrap().is_empty());
        assert!(!args.selects_anything());
    }

    #[test]
    fn interrupted_exit_is_130_with_a_resume_hint() {
        let err = CliError::Interrupted(Some(PathBuf::from("/tmp/run")));
        assert_eq!(exit_code(&err), 130);
        let text = err.to_string();
        assert!(text.contains("--resume /tmp/run"), "{text}");
        let bare = CliError::Interrupted(None);
        assert_eq!(exit_code(&bare), 130);
        assert!(bare.to_string().contains("no journal"), "{bare}");
    }

    #[test]
    fn parses_resume_and_no_journal() {
        let args = parse(&["--all", "--resume", "/tmp/run", "--no-journal"]);
        assert_eq!(args.resume.as_deref(), Some(Path::new("/tmp/run")));
        assert!(args.no_journal);
        let args = parse(&["--all"]);
        assert!(args.resume.is_none() && !args.no_journal);
        let dangling: Vec<String> = vec!["--resume".into()];
        assert!(matches!(
            CliArgs::parse(&dangling),
            Err(CliError::MissingValue(_))
        ));
        // Resume failures exit 1 (runtime, not usage).
        assert_eq!(exit_code(&CliError::Resume("x".into())), 1);
    }

    #[test]
    fn parses_bench_compare_and_rejects_bad_tolerance() {
        let args = parse(&[
            "bench-compare",
            "/tmp/cur.json",
            "--baseline",
            "/tmp/base.json",
            "--tolerance",
            "1.25",
        ]);
        assert_eq!(
            args.bench_compare.as_deref(),
            Some(Path::new("/tmp/cur.json"))
        );
        assert_eq!(args.baseline.as_deref(), Some(Path::new("/tmp/base.json")));
        assert_eq!(args.tolerance, Some(1.25));
        assert!(args.selects_anything());
        // Defaults stay unset so the command applies its own.
        let args = parse(&["bench-compare", "cur.json"]);
        assert!(args.baseline.is_none() && args.tolerance.is_none());

        for bad in ["zero-point-five", "-1.0", "0", "inf"] {
            let argv: Vec<String> = vec![
                "bench-compare".into(),
                "c.json".into(),
                "--tolerance".into(),
                bad.into(),
            ];
            let err = CliArgs::parse(&argv).expect_err(bad);
            assert!(matches!(err, CliError::InvalidValue(..)), "{bad}: {err:?}");
            assert_eq!(exit_code(&err), 2);
        }
    }

    #[test]
    fn parses_fleet() {
        let args = parse(&["--all", "--fleet", "64"]);
        assert_eq!(args.fleet, Some(64));
        assert!(parse(&["--all"]).fleet.is_none());
        // `--fleet 0` selects the serial engine.
        assert_eq!(parse(&["--all", "--fleet", "0"]).fleet, Some(0));

        for bad in [&["--fleet", "-1"][..], &["--fleet", "x"]] {
            let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = CliArgs::parse(&argv).expect_err(&argv.join(" "));
            assert!(matches!(err, CliError::InvalidValue(..)), "{err:?}");
            assert_eq!(exit_code(&err), 2);
        }
        // The fleet has one semantics; there is no precision knob.
        let argv: Vec<String> = ["--all", "--precision", "f32"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = CliArgs::parse(&argv).expect_err("--precision is not a flag");
        assert!(matches!(err, CliError::UnknownFlag(..)), "{err:?}");
        assert_eq!(exit_code(&err), 2);
        let dangling: Vec<String> = vec!["--fleet".into()];
        assert!(matches!(
            CliArgs::parse(&dangling),
            Err(CliError::MissingValue(_))
        ));
    }

    #[test]
    fn bench_compare_cmd_gates_on_the_tolerance() {
        let dir = crate::test_dir::TestDir::new("repro-bench-cli-benchcmp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let doc = |median: f64| {
            format!(
                "{{\"schema\": \"repro-bench/bench-v1\", \"quick\": false, \"benches\": [{{\"name\": \"m\", \"median_ns\": {median}, \"mean_ns\": {median}, \"iters\": 5}}]}}"
            )
        };
        std::fs::write(dir.join("base.json"), doc(100.0)).unwrap();
        std::fs::write(dir.join("cur.json"), doc(120.0)).unwrap();

        let mut args = parse(&["bench-compare", "ignored"]);
        args.baseline = Some(dir.join("base.json"));
        args.bench_compare = Some(dir.join("cur.json"));
        run(&args).expect("1.2x is within the default 1.5x tolerance");

        args.tolerance = Some(1.1);
        let err = run(&args).expect_err("1.2x must fail a 1.1x gate");
        assert!(matches!(err, CliError::BenchRegression(_)));
        assert_eq!(exit_code(&err), 1);
        assert!(err.to_string().contains("REGRESSED"));

        args.bench_compare = Some(dir.join("nonexistent.json"));
        assert!(run(&args).is_err(), "unreadable input must fail the gate");
    }
}
