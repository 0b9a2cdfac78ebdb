//! The `serve` and `loadgen` subcommands of the `repro_bench` binary.
//!
//! * `repro_bench serve …` drives the deterministic virtual-time
//!   simulator ([`drive_serve::sim::run_sim`]) and prints its
//!   byte-stable report — the CI smoke path: a fixed seed reproduces the
//!   output bit for bit, and `--expect-*` flags turn the run into a
//!   self-asserting gate.
//! * `repro_bench loadgen …` fires the open-loop wall-clock generator
//!   ([`crate::loadgen::run_loadgen`]) at a real threaded server and
//!   reconciles client tallies against the server's counters.
//!
//! Both accept the same serving/fault/attack shape flags; see `--help`.

use crate::loadgen::{self, LoadgenConfig};
use drive_core::retry::RetryPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_serve::config::ServeConfig;
use drive_serve::faults::{FaultPlan, FaultPlanConfig};
use drive_serve::sim::{self, AttackWindow, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which serving frontend to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Deterministic virtual-time simulator.
    Sim,
    /// Real threaded server under the open-loop generator.
    Loadgen,
}

/// Parsed `serve` / `loadgen` command line.
#[derive(Debug, Clone)]
pub struct ServeCliArgs {
    /// Master seed (policy weights, arrivals, faults, observations).
    pub seed: u64,
    /// Total requests to fire.
    pub requests: u64,
    /// Open-loop request rate, requests per second.
    pub qps: u64,
    /// Serving shape (workers/queue/batching/deadline).
    pub serve: ServeConfig,
    /// Observation dimension of the synthesized policy.
    pub obs_dim: usize,
    /// Seeded fault-plan shape.
    pub faults: FaultPlanConfig,
    /// Optional action-space attack (simulator only).
    pub attack: Option<AttackWindow>,
    /// Write a small latency/outcome JSON artifact here.
    pub latency_json: Option<PathBuf>,
    /// Assert nothing was shed or timed out.
    pub expect_no_sheds: bool,
    /// Assert the ladder degraded at least one answer.
    pub expect_degraded: bool,
    /// p99 SLO for the `--qps-grid` sweep, µs.
    pub slo_p99_us: Option<u64>,
    /// Candidate rates for the max-QPS-at-SLO search.
    pub qps_grid: Vec<u64>,
    /// Client pool cap (loadgen only).
    pub max_clients: usize,
    /// Client retry attempts for backpressure sheds (loadgen only).
    pub retries: usize,
}

impl ServeCliArgs {
    fn new() -> Self {
        ServeCliArgs {
            seed: 42,
            requests: 400,
            qps: 1_000,
            serve: ServeConfig::default(),
            obs_dim: 6,
            faults: FaultPlanConfig::none(),
            attack: None,
            latency_json: None,
            expect_no_sheds: false,
            expect_degraded: false,
            slo_p99_us: None,
            qps_grid: Vec::new(),
            max_clients: 32,
            retries: 3,
        }
    }
}

/// A usage (exit 2) or assertion/runtime (exit 1) failure.
#[derive(Debug)]
pub struct ServeCliError {
    /// Process exit code.
    pub code: i32,
    /// Message for stderr.
    pub message: String,
}

impl ServeCliError {
    fn usage(message: impl Into<String>) -> Self {
        ServeCliError {
            code: 2,
            message: message.into(),
        }
    }

    fn failed(message: impl Into<String>) -> Self {
        ServeCliError {
            code: 1,
            message: message.into(),
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, ServeCliError> {
    let raw = raw.ok_or_else(|| ServeCliError::usage(format!("flag '{flag}' needs a value")))?;
    raw.parse()
        .map_err(|_| ServeCliError::usage(format!("flag '{flag}' got invalid value '{raw}'")))
}

/// Parses a `serve` / `loadgen` argument list (after the subcommand word).
///
/// # Errors
///
/// [`ServeCliError`] with exit code 2 on unknown flags or bad values.
pub fn parse(mode: ServeMode, args: &[String]) -> Result<ServeCliArgs, ServeCliError> {
    let mut out = ServeCliArgs::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => out.seed = parse_num("--seed", it.next())?,
            "--requests" => out.requests = parse_num("--requests", it.next())?,
            "--qps" => out.qps = parse_num("--qps", it.next())?,
            "--workers" => out.serve.workers = parse_num("--workers", it.next())?,
            "--queue-capacity" => {
                out.serve.queue_capacity = parse_num("--queue-capacity", it.next())?
            }
            "--max-batch" => out.serve.max_batch = parse_num("--max-batch", it.next())?,
            "--batch-window-us" => {
                out.serve.batch_window_us = parse_num("--batch-window-us", it.next())?
            }
            "--deadline-us" => out.serve.deadline_us = parse_num("--deadline-us", it.next())?,
            "--obs-dim" => out.obs_dim = parse_num("--obs-dim", it.next())?,
            "--kills" => out.faults.kills = parse_num("--kills", it.next())?,
            "--stalls" => out.faults.stalls = parse_num("--stalls", it.next())?,
            "--stall-us" => out.faults.stall_us = parse_num("--stall-us", it.next())?,
            "--corrupt-rate" => out.faults.corrupt_rate = parse_num("--corrupt-rate", it.next())?,
            "--attack-at-us" => {
                let start_us = parse_num("--attack-at-us", it.next())?;
                let delta = out.attack.map_or(0.3, |a| a.delta);
                out.attack = Some(AttackWindow { start_us, delta });
            }
            "--attack-delta" => {
                let delta = parse_num("--attack-delta", it.next())?;
                let start_us = out.attack.map_or(0, |a| a.start_us);
                out.attack = Some(AttackWindow { start_us, delta });
            }
            "--latency-json" => {
                let raw = it
                    .next()
                    .ok_or_else(|| ServeCliError::usage("flag '--latency-json' needs a value"))?;
                out.latency_json = Some(PathBuf::from(raw));
            }
            "--expect-no-sheds" => out.expect_no_sheds = true,
            "--expect-degraded" => out.expect_degraded = true,
            "--slo-p99-us" => out.slo_p99_us = Some(parse_num("--slo-p99-us", it.next())?),
            "--qps-grid" => {
                let raw = it
                    .next()
                    .ok_or_else(|| ServeCliError::usage("flag '--qps-grid' needs a value"))?;
                out.qps_grid = raw
                    .split(',')
                    .map(|part| {
                        part.trim().parse().map_err(|_| {
                            ServeCliError::usage(format!(
                                "flag '--qps-grid' got invalid value '{raw}'"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--max-clients" => out.max_clients = parse_num("--max-clients", it.next())?,
            "--retries" => out.retries = parse_num("--retries", it.next())?,
            flag => {
                return Err(ServeCliError::usage(format!(
                    "unknown {} flag '{flag}'",
                    match mode {
                        ServeMode::Sim => "serve",
                        ServeMode::Loadgen => "loadgen",
                    }
                )))
            }
        }
    }
    if out.qps == 0 {
        return Err(ServeCliError::usage("--qps must be positive"));
    }
    if out.obs_dim <= drive_serve::pipeline::STEER_FEATURE {
        return Err(ServeCliError::usage(format!(
            "--obs-dim must exceed the steering-readback feature index {}",
            drive_serve::pipeline::STEER_FEATURE
        )));
    }
    if !out.qps_grid.is_empty() && out.slo_p99_us.is_none() {
        return Err(ServeCliError::usage("--qps-grid needs --slo-p99-us"));
    }
    Ok(out)
}

/// The seeded stand-in policy both subcommands serve: weights are a pure
/// function of the seed, so the simulator's output is byte-stable.
fn synth_policy(args: &ServeCliArgs) -> Arc<GaussianPolicy> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    Arc::new(GaussianPolicy::new(args.obs_dim, &[32, 32], 2, &mut rng))
}

/// Tiny JSON artifact with the latency quantiles and outcome counts —
/// what the CI smoke job uploads.
fn latency_json(
    latency: &drive_metrics::histo::LatencyHistogram,
    counters: &drive_serve::request::Counters,
) -> String {
    format!(
        "{{\n  \"schema\": \"repro-bench/serve-latency-v1\",\n  \"count\": {},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \"p999_us\": {},\n  \"max_us\": {},\n  \"served\": {},\n  \"degraded\": {},\n  \"shed\": {},\n  \"timed_out\": {}\n}}\n",
        latency.count(),
        latency.p50(),
        latency.p99(),
        latency.p999(),
        latency.max(),
        counters.served,
        counters.degraded,
        counters.shed(),
        counters.timed_out,
    )
}

fn check_expectations(
    args: &ServeCliArgs,
    counters: &drive_serve::request::Counters,
) -> Result<(), ServeCliError> {
    if args.expect_no_sheds && (counters.shed() > 0 || counters.timed_out > 0) {
        return Err(ServeCliError::failed(format!(
            "--expect-no-sheds violated: {counters}"
        )));
    }
    if args.expect_degraded && counters.degraded == 0 {
        return Err(ServeCliError::failed(format!(
            "--expect-degraded violated: {counters}"
        )));
    }
    Ok(())
}

fn write_artifact(path: &PathBuf, body: &str) -> Result<(), ServeCliError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ServeCliError::failed(format!("{}: {e}", parent.display())))?;
        }
    }
    std::fs::write(path, body)
        .map_err(|e| ServeCliError::failed(format!("{}: {e}", path.display())))?;
    eprintln!("[serve] wrote {}", path.display());
    Ok(())
}

fn run_sim_cmd(args: &ServeCliArgs) -> Result<(), ServeCliError> {
    let policy = synth_policy(args);
    let config = SimConfig {
        serve: args.serve.clone(),
        seed: args.seed,
        requests: args.requests,
        interarrival_us: (1_000_000 / args.qps).max(1),
        faults: args.faults,
        attack: args.attack,
        ..SimConfig::default()
    };
    let report = sim::run_sim(&policy, &config);
    print!("{}", report.render());
    report.counters.reconcile().map_err(ServeCliError::failed)?;
    check_expectations(args, &report.counters)?;
    if let Some(path) = &args.latency_json {
        write_artifact(path, &latency_json(&report.latency, &report.counters))?;
    }
    if let Some(slo) = args.slo_p99_us {
        match sim::max_qps_at_slo(&policy, &config, slo, &args.qps_grid) {
            Some(qps) => println!("max_qps_at_slo: {qps}"),
            None => {
                return Err(ServeCliError::failed(format!(
                    "no candidate rate in {:?} meets the p99 <= {slo}us SLO",
                    args.qps_grid
                )))
            }
        }
    }
    Ok(())
}

fn run_loadgen_cmd(args: &ServeCliArgs) -> Result<(), ServeCliError> {
    let policy = synth_policy(args);
    let retry = RetryPolicy::attempts(args.retries.max(1)).with_backoff(
        Duration::from_micros(200),
        Duration::from_millis(2),
        0.5,
    );
    let config = LoadgenConfig {
        qps: args.qps,
        requests: args.requests,
        seed: args.seed,
        obs_dim: args.obs_dim,
        retry,
        max_clients: args.max_clients,
    };
    let horizon_us = args.requests.saturating_mul(1_000_000 / args.qps.max(1));
    let plan = FaultPlan::seeded(args.seed, args.serve.workers, horizon_us, &args.faults);
    let report = loadgen::run_loadgen(policy.clone(), args.serve.clone(), plan, &config);
    print!("{}", report.render());
    report
        .reconcile(args.requests)
        .map_err(ServeCliError::failed)?;
    check_expectations(args, &report.server.counters)?;
    if args.expect_no_sheds && (report.logical.gave_up > 0 || report.logical.timed_out > 0) {
        return Err(ServeCliError::failed(format!(
            "--expect-no-sheds violated after retries: {} gave up, {} timed out",
            report.logical.gave_up, report.logical.timed_out
        )));
    }
    if let Some(path) = &args.latency_json {
        write_artifact(
            path,
            &latency_json(&report.client_latency, &report.client_attempts),
        )?;
    }
    if let Some(slo) = args.slo_p99_us {
        match loadgen::find_max_qps(&policy, &args.serve, &config, slo, &args.qps_grid) {
            Some(qps) => println!("max_qps_at_slo: {qps}"),
            None => {
                return Err(ServeCliError::failed(format!(
                    "no candidate rate in {:?} meets the p99 <= {slo}us SLO",
                    args.qps_grid
                )))
            }
        }
    }
    Ok(())
}

/// Entry point used by the `repro_bench` multiplexer: `args` excludes the
/// subcommand word itself. Returns the process exit code.
pub fn main(mode: ServeMode, args: &[String]) -> i32 {
    let parsed = match parse(mode, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {}", e.message);
            return e.code;
        }
    };
    let result = match mode {
        ServeMode::Sim => run_sim_cmd(&parsed),
        ServeMode::Loadgen => run_loadgen_cmd(&parsed),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {}", e.message);
            e.code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_surface() {
        let args = parse(
            ServeMode::Sim,
            &argv(&[
                "--seed",
                "7",
                "--requests",
                "100",
                "--qps",
                "2000",
                "--workers",
                "3",
                "--queue-capacity",
                "32",
                "--max-batch",
                "4",
                "--batch-window-us",
                "500",
                "--deadline-us",
                "20000",
                "--obs-dim",
                "8",
                "--kills",
                "2",
                "--stalls",
                "1",
                "--stall-us",
                "5000",
                "--corrupt-rate",
                "0.25",
                "--attack-at-us",
                "100000",
                "--attack-delta",
                "0.5",
                "--latency-json",
                "/tmp/l.json",
                "--expect-no-sheds",
                "--expect-degraded",
                "--slo-p99-us",
                "30000",
                "--qps-grid",
                "100,200,400",
            ]),
        )
        .expect("parse");
        assert_eq!(args.seed, 7);
        assert_eq!(args.requests, 100);
        assert_eq!(args.qps, 2_000);
        assert_eq!(args.serve.workers, 3);
        assert_eq!(args.serve.queue_capacity, 32);
        assert_eq!(args.serve.max_batch, 4);
        assert_eq!(args.serve.batch_window_us, 500);
        assert_eq!(args.serve.deadline_us, 20_000);
        assert_eq!(args.obs_dim, 8);
        assert_eq!(args.faults.kills, 2);
        assert_eq!(args.faults.stalls, 1);
        assert_eq!(args.faults.stall_us, 5_000);
        assert_eq!(args.faults.corrupt_rate, 0.25);
        let attack = args.attack.expect("attack window");
        assert_eq!(attack.start_us, 100_000);
        assert_eq!(attack.delta, 0.5);
        assert!(args.expect_no_sheds && args.expect_degraded);
        assert_eq!(args.slo_p99_us, Some(30_000));
        assert_eq!(args.qps_grid, [100, 200, 400]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--frobnicate"],
            vec!["--qps", "zero"],
            vec!["--qps", "0"],
            vec!["--obs-dim", "3"],
            vec!["--qps-grid", "100"], // missing --slo-p99-us
            vec!["--requests"],        // dangling
        ] {
            let err = parse(ServeMode::Sim, &argv(&bad)).expect_err(&bad.join(" "));
            assert_eq!(err.code, 2, "{bad:?}: {}", err.message);
        }
    }

    #[test]
    fn sim_subcommand_is_byte_identical_at_a_fixed_seed() {
        let args = parse(
            ServeMode::Sim,
            &argv(&[
                "--seed",
                "11",
                "--requests",
                "120",
                "--kills",
                "1",
                "--corrupt-rate",
                "0.3",
            ]),
        )
        .expect("parse");
        let policy = synth_policy(&args);
        let config = SimConfig {
            serve: args.serve.clone(),
            seed: args.seed,
            requests: args.requests,
            interarrival_us: (1_000_000 / args.qps).max(1),
            faults: args.faults,
            attack: args.attack,
            ..SimConfig::default()
        };
        let a = sim::run_sim(&policy, &config).render();
        let b = sim::run_sim(&synth_policy(&args), &config).render();
        assert_eq!(a, b, "fixed-seed serve runs must be byte-identical");
    }

    #[test]
    fn sim_smoke_expectations_pass_and_fail_as_configured() {
        // Clean low-QPS run: no sheds expected, and the run must honor it.
        let clean = parse(
            ServeMode::Sim,
            &argv(&["--requests", "60", "--qps", "500", "--expect-no-sheds"]),
        )
        .expect("parse");
        run_sim_cmd(&clean).expect("clean run meets --expect-no-sheds");

        // Demanding degradation from a clean run must fail the gate.
        let wrong = parse(
            ServeMode::Sim,
            &argv(&["--requests", "60", "--qps", "500", "--expect-degraded"]),
        )
        .expect("parse");
        let err = run_sim_cmd(&wrong).expect_err("clean run cannot satisfy --expect-degraded");
        assert_eq!(err.code, 1);
    }

    #[test]
    fn sim_latency_artifact_is_written() {
        let dir = crate::test_dir::TestDir::new("repro-bench-servecli-test");
        let path = dir.join("latency.json");
        let args = parse(
            ServeMode::Sim,
            &argv(&[
                "--requests",
                "40",
                "--latency-json",
                path.to_str().expect("utf-8 temp path"),
            ]),
        )
        .expect("parse");
        run_sim_cmd(&args).expect("run");
        let body = std::fs::read_to_string(&path).expect("artifact");
        assert!(
            body.contains("\"schema\": \"repro-bench/serve-latency-v1\""),
            "{body}"
        );
        assert!(body.contains("\"p99_us\""), "{body}");
    }
}
