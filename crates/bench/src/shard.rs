//! `repro_bench shard`: N worker processes sharing one run directory.
//!
//! Any number of `repro_bench shard <dir>` workers (potentially on
//! different machines, via a shared directory) join one run directory
//! ([`crate::journal`]) under distinct worker ids, race to claim grid
//! cells, compute them and publish them to their checksummed cell logs;
//! then `repro_bench merge <dir>` ([`crate::merge`]) assembles CSVs and
//! manifests byte-identical to a single-process golden run, because every
//! cell is a pure function of its seed namespace and output ordering is
//! defined by the grid, not by completion time.
//!
//! Each worker runs two sweeps (see
//! [`JournalHandle::set_opportunistic`]) and never sinks outputs. A
//! polite SIGTERM latches [`drive_core::shutdown`]; the worker unwinds at
//! the next cell boundary and releases every held lease, so peers do not
//! wait out the TTL.

use crate::cli::{CliArgs, CliError};
use crate::engine::{Experiment, RunContext};
use crate::journal::{valid_owner, JournalHandle, RunHeader, ShardHeader, DEFAULT_TTL};
use drive_core::shutdown;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed `repro_bench shard` command line: the shared directory, worker
/// identity/TTL knobs, and the standard experiment-selection flags.
#[derive(Debug)]
pub struct ShardCli {
    /// The shared run directory (first positional argument).
    pub dir: PathBuf,
    /// Worker id (`--worker`, default `w<pid>`).
    pub worker: String,
    /// Lease TTL (`--ttl-ms`).
    pub ttl: Duration,
    /// Everything else: selection, scale, pipeline, fleet flags.
    pub cli: CliArgs,
}

impl ShardCli {
    /// Parses `repro_bench shard <dir> [--worker <id>] [--ttl-ms <n>]
    /// [<experiment>...] [standard flags]`.
    ///
    /// # Errors
    ///
    /// [`CliError`] for malformed flags or a missing directory operand.
    pub fn parse(args: &[String]) -> Result<ShardCli, CliError> {
        let mut rest: Vec<String> = Vec::new();
        let mut dir: Option<PathBuf> = None;
        let mut worker: Option<String> = None;
        let mut ttl = DEFAULT_TTL;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--worker" => {
                    let raw = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue("--worker".to_string()))?;
                    if !valid_owner(raw) {
                        return Err(CliError::InvalidValue("--worker".to_string(), raw.clone()));
                    }
                    worker = Some(raw.clone());
                }
                "--ttl-ms" => {
                    let raw = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue("--ttl-ms".to_string()))?;
                    let ms: u64 = raw.parse().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                        CliError::InvalidValue("--ttl-ms".to_string(), raw.clone())
                    })?;
                    ttl = Duration::from_millis(ms);
                }
                other if dir.is_none() && !other.starts_with("--") => {
                    dir = Some(PathBuf::from(other));
                }
                other => rest.push(other.to_string()),
            }
        }
        let dir = dir.ok_or_else(|| CliError::MissingValue("shard <dir>".to_string()))?;
        let mut cli = CliArgs::parse(&rest)?;
        if !cli.selects_anything() {
            cli.all = true;
        }
        Ok(ShardCli {
            dir,
            worker: worker.unwrap_or_else(|| format!("w{}", std::process::id())),
            ttl,
            cli,
        })
    }
}

/// Entry point for the `repro_bench shard` subcommand: parse, prepare
/// artifacts, publish/verify the shared header, then run every selected
/// experiment under the lease protocol (discarding experiment output —
/// `repro_bench merge` assembles the artifacts).
pub fn main(args: &[String]) -> i32 {
    let parsed = match ShardCli::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return crate::cli::exit_code(&e);
        }
    };
    let experiments = match parsed.cli.select() {
        Ok(experiments) => experiments,
        Err(e) => {
            eprintln!("error: {e}");
            return crate::cli::exit_code(&e);
        }
    };
    match run_worker(&parsed, &experiments) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            crate::cli::exit_code(&e)
        }
    }
}

/// Runs one worker over `experiments` (see [`main`]).
///
/// # Errors
///
/// [`CliError::Resume`] for header conflicts and shard I/O failures,
/// [`CliError::Interrupted`] after a graceful SIGTERM/Ctrl-C drain.
pub fn run_worker(
    parsed: &ShardCli,
    experiments: &[&'static dyn Experiment],
) -> Result<(), CliError> {
    let config = parsed.cli.pipeline_config();
    let scale = parsed.cli.scale;
    eprintln!(
        "[shard] worker {} joining {} ({} experiment(s), ttl {:?})",
        parsed.worker,
        parsed.dir.display(),
        experiments.len(),
        parsed.ttl
    );
    let artifacts = attack_core::pipeline::prepare(&config);
    let header = ShardHeader {
        run: RunHeader::for_run(&config, scale),
        selection: experiments.iter().map(|e| e.name().to_string()).collect(),
    };
    let journal = Arc::new(
        JournalHandle::join(&parsed.dir, &header, &parsed.worker, parsed.ttl)
            .map_err(|e| CliError::Resume(e.to_string()))?,
    );

    // Pass 1 — opportunistic: claim-or-skip divides the grid between
    // workers near-evenly, which is where the multi-process scaling comes
    // from. The pass's aggregate output is discarded (placeholders stand
    // in for busy cells), so even a panic in some experiment's
    // aggregation over placeholder data costs nothing: everything this
    // worker computed is already published, and pass 2 fills the rest.
    // Pass 2 — completing: every cell loads, computes, or block-waits;
    // afterwards this worker has seen a complete, real result set.
    for (pass, opportunistic) in [(1, true), (2, false)] {
        journal.set_opportunistic(opportunistic);
        for exp in experiments {
            let mut ctx = RunContext::new(&artifacts, &config, scale);
            ctx.journal = Some(Arc::clone(&journal));
            parsed.cli.apply_fleet(&mut ctx);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(&ctx)));
            match outcome {
                Ok(_) => eprintln!(
                    "[shard] worker {} pass {pass} finished {}",
                    parsed.worker,
                    exp.name()
                ),
                Err(payload) => {
                    if payload.is::<shutdown::ShutdownRequested>() {
                        journal.release_all();
                        return Err(CliError::Interrupted(Some(parsed.dir.clone())));
                    }
                    if opportunistic {
                        eprintln!(
                            "[shard] worker {} pass 1 aggregation of {} panicked over \
                             placeholder cells (harmless; pass 2 completes it)",
                            parsed.worker,
                            exp.name()
                        );
                    } else {
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }
    journal.release_all();
    eprintln!(
        "[shard] worker {} done: {}",
        parsed.worker,
        journal.summary()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_cli_parses_dir_worker_and_forwards_flags() {
        let args: Vec<String> = [
            "/tmp/shared",
            "fig4",
            "--worker",
            "w1",
            "--ttl-ms",
            "2000",
            "--quick",
            "--scale",
            "smoke",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = ShardCli::parse(&args).unwrap();
        assert_eq!(parsed.dir, PathBuf::from("/tmp/shared"));
        assert_eq!(parsed.worker, "w1");
        assert_eq!(parsed.ttl, Duration::from_millis(2000));
        assert_eq!(parsed.cli.names, ["fig4"]);
        assert!(parsed.cli.quick && parsed.cli.scale == crate::harness::Scale::smoke());

        // No selection → --all; no dir → usage error; bad ids rejected.
        let bare: Vec<String> = vec!["/tmp/shared".into()];
        assert!(ShardCli::parse(&bare).unwrap().cli.all);
        assert!(matches!(
            ShardCli::parse(&[]),
            Err(CliError::MissingValue(_))
        ));
        let bad: Vec<String> = vec!["/tmp/x".into(), "--worker".into(), "a/b".into()];
        assert!(matches!(
            ShardCli::parse(&bad),
            Err(CliError::InvalidValue(..))
        ));
    }
}
