//! Crash-safety integration tests: a `repro_bench` run SIGKILLed at
//! arbitrary points and restarted with `--resume` must complete with
//! byte-identical outputs to an uninterrupted run.
//!
//! The subprocess test drives the real binary (`CARGO_BIN_EXE_repro_bench`)
//! against pre-trained quick artifacts, kills it mid-flight at three or
//! more randomized points, resumes each time, and compares every CSV/SVG
//! and manifest output list against a golden un-journaled run. The
//! in-process tests exercise the engine-level skip and cell-replay paths
//! directly.

use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use repro_bench::engine::{self, Registry, RunContext};
use repro_bench::harness::Scale;
use repro_bench::journal::{scan_frames, JournalHandle, MAGIC, SOLO_WORKER};
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};

mod common;
use common::assert_outputs_match;
#[path = "../src/test_dir.rs"]
mod test_dir;
use test_dir::TestDir;

/// One quick-trained artifact cache shared by every test in this file and
/// by every subprocess (they load it instead of retraining).
fn setup() -> (&'static Artifacts, &'static PipelineConfig) {
    static SETUP: OnceLock<(Artifacts, PipelineConfig)> = OnceLock::new();
    let (a, c) = SETUP.get_or_init(|| {
        // Subprocesses load it, so it outlives every test: one per
        // process, left in cargo's scratch for integration tests (under
        // `target/`, which `cargo clean` removes).
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("resume-artifacts-{}", std::process::id()));
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    });
    (a, c)
}

fn out_dir(name: &str) -> TestDir {
    TestDir::new(&format!("repro-bench-resume-{name}"))
}

/// The full `--all` run against the shared artifacts. Paper evaluation
/// scale (the default): a multi-second window, so randomized kills land
/// mid-evaluation.
fn run_cmd(run_dir: &Path, resume: bool) -> Command {
    let (_, config) = setup();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro_bench"));
    cmd.arg("--quick").arg("--all");
    if resume {
        cmd.arg("--resume").arg(run_dir);
    } else {
        cmd.arg("--csv").arg(run_dir);
    }
    cmd.arg("--svg").arg(run_dir);
    cmd.arg("--artifacts").arg(&config.dir);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

#[test]
fn killed_and_resumed_run_matches_golden_byte_for_byte() {
    setup(); // train the shared artifacts before any subprocess starts

    // Golden: one uninterrupted run WITHOUT the journal, the ground truth
    // the journaled runs must reproduce.
    let golden = out_dir("golden");
    let status = run_cmd(&golden, false)
        .arg("--no-journal")
        .status()
        .expect("spawn golden run");
    assert!(status.success(), "golden run failed: {status}");

    // Sanity: a clean journaled run is byte-identical to the un-journaled
    // golden — journaling must never change results.
    let clean = out_dir("clean");
    let status = run_cmd(&clean, false).status().expect("spawn clean run");
    assert!(status.success(), "clean journaled run failed: {status}");
    assert_outputs_match(&golden, &clean);

    // Kill loop: SIGKILL the run once it has journaled a randomized
    // number (1..=3) of new cells since spawn, resuming each time. Kills
    // trigger on progress, not on timers, so each one lands mid-flight
    // however fast the host runs the grid.
    let killed = out_dir("killed");
    let journal = killed.join("journal");
    let mut kills = 0;
    let mut attempts = 0;
    let mut lcg: u64 = 0x5eed_cafe_f00d_beef;
    while kills < 3 {
        attempts += 1;
        assert!(
            attempts <= 12,
            "needed more than 12 attempts to land 3 kills"
        );
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let target = common::cell_count(&journal) + 1 + (lcg >> 33) as usize % 3;
        let mut child = [run_cmd(&killed, attempts > 1).spawn().expect("spawn")];
        let progressed = common::await_cells(&mut child, &journal, target).is_ok();
        // Finishing before the kill is only acceptable once three genuine
        // kills have already happened.
        if progressed && common::kill_and_reap(&mut child[0]) {
            kills += 1;
            assert_journaled_cells_are_in_the_log(&journal);
        } else {
            let status = child[0].wait().expect("reap");
            assert!(status.success(), "early completion failed: {status}");
            assert!(
                kills >= 3,
                "run completed on attempt {attempts} with only {kills} kill(s)"
            );
        }
    }

    // Final resume: run to completion and compare everything.
    let output = run_cmd(&killed, true).output().expect("final resume");
    assert!(output.status.success(), "final resume failed");
    assert_outputs_match(&golden, &killed);

    // The journal did its job: the WAL and flush-per-row progress log are
    // in place, with the experiment completions recorded.
    let worker = killed.join("journal").join("workers").join(SOLO_WORKER);
    assert!(worker.join("wal.bin").exists());
    let progress = fs::read_to_string(worker.join("progress.csv")).unwrap();
    assert!(
        progress.lines().any(|l| l.starts_with("experiment,")),
        "progress.csv records experiment completions:\n{progress}"
    );
}

/// The durability order a SIGKILL must not break: every `cell` record in
/// the killed worker's WAL (`cell <key> <digest> <episodes> <offset>
/// <len> <label>`) points at bytes of its `cells.log` that end with a
/// `checksum` line, hash to the record's digest and decode to its episode
/// count, because the log is synced before the record is written. (A torn
/// final frame is no record: the scan stops there.)
fn assert_journaled_cells_are_in_the_log(journal: &Path) {
    let worker = journal.join("workers").join(SOLO_WORKER);
    let wal = fs::read(worker.join("wal.bin")).unwrap();
    let log = fs::read(worker.join("cells.log")).unwrap();
    assert!(wal.starts_with(MAGIC), "the WAL keeps its magic");
    let (records, _) = scan_frames(&wal[MAGIC.len()..]);
    for record in &records[1..] {
        let parts: Vec<&str> = record.split_whitespace().collect();
        if parts[0] != "cell" {
            continue;
        }
        let offset: usize = parts[4].parse().unwrap();
        let len: usize = parts[5].parse().unwrap();
        let bytes = log
            .get(offset..offset + len)
            .unwrap_or_else(|| panic!("journaled cell {}: past the end of the log", parts[1]));
        let text = std::str::from_utf8(bytes).unwrap();
        let body = text
            .strip_suffix(&format!("checksum {}\n", parts[2]))
            .unwrap_or_else(|| panic!("journaled cell {}: no checksum line", parts[1]));
        assert_eq!(
            format!("{:016x}", drive_seed::fnv1a_64(body.as_bytes())),
            parts[2],
            "journaled cell {}: the log bytes hash to the WAL digest",
            parts[1]
        );
        let episodes: usize = parts[3].parse().unwrap();
        let decoded = drive_sim::record::decode_records(body).unwrap();
        assert_eq!(decoded.len(), episodes, "journaled cell {}", parts[1]);
    }
}

/// Sends a real SIGTERM (std's `Child::kill` is SIGKILL on unix).
#[cfg(unix)]
fn sigterm(child: &std::process::Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let rc = unsafe { kill(child.id() as i32, 15) };
    assert_eq!(rc, 0, "kill(pid, SIGTERM) failed");
}

/// A polite SIGTERM mid-run must exit 130 with a `--resume` hint (and no
/// panic messages) after draining at a cell boundary, and the resumed run
/// must finish
/// byte-identical to an uninterrupted golden run.
#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_resume_completes_byte_identical() {
    setup();
    let golden = out_dir("term-golden");
    let status = run_cmd(&golden, false)
        .arg("--no-journal")
        .status()
        .expect("spawn golden run");
    assert!(status.success(), "golden run failed: {status}");

    // SIGTERM once the run has journaled a new cell since spawn.
    let interrupted = out_dir("term-interrupted");
    let journal = interrupted.join("journal");
    let mut landed = false;
    let mut attempts = 0;
    while !landed {
        attempts += 1;
        assert!(attempts <= 8, "could not land a mid-run SIGTERM in 8 tries");
        let target = common::cell_count(&journal) + 1;
        let mut cmd = run_cmd(&interrupted, attempts > 1);
        cmd.stderr(Stdio::piped());
        let mut child = [cmd.spawn().expect("spawn")];
        let progressed = common::await_cells(&mut child, &journal, target).is_ok();
        let [child] = child;
        if progressed {
            sigterm(&child);
            let output = child.wait_with_output().expect("reap");
            assert_eq!(
                output.status.code(),
                Some(130),
                "graceful interruption exits 130 (status: {})",
                output.status
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("--resume"),
                "stderr hints at resumption:\n{stderr}"
            );
            // The drain unwinds quietly: no panic message per cell buries
            // the hint.
            assert!(
                !stderr.contains("panicked at"),
                "the drain printed panic messages:\n{stderr}"
            );
            landed = true;
        } else {
            let status = child.wait_with_output().expect("reap").status;
            assert!(status.success(), "early completion failed: {status}");
        }
    }

    let output = run_cmd(&interrupted, true).output().expect("final resume");
    assert!(output.status.success(), "final resume failed");
    assert_outputs_match(&golden, &interrupted);
}

#[test]
fn engine_skips_verified_experiments_and_replays_cells_on_resume() {
    let (artifacts, config) = setup();
    let dir = out_dir("engine");
    let journal_dir = dir.join("journal");

    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());
    let header = ctx.run_header();
    ctx.journal = Some(Arc::new(
        JournalHandle::create(&journal_dir, header).unwrap(),
    ));
    let fig4 = Registry::find("fig4").unwrap();
    let first = engine::execute(fig4, &ctx).expect("first run");
    assert!(!first.written.is_empty());
    let csv_path = dir.join("fig4.csv");
    let first_bytes = fs::read(&csv_path).unwrap();
    assert!(
        ctx.journal.as_ref().unwrap().cell_count() > 0,
        "fig4 journals its grid cells"
    );
    drop(ctx);

    // Resume 1: the experiment is journaled and its manifest verifies, so
    // the engine skips it without touching the outputs.
    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());
    ctx.journal = Some(Arc::new(
        JournalHandle::resume(&journal_dir, header).unwrap(),
    ));
    let skipped = engine::execute(fig4, &ctx).expect("skipped run");
    assert!(
        skipped.report.contains("[resume]"),
        "skip reported: {}",
        skipped.report
    );
    assert!(skipped.written.is_empty(), "a skipped run writes nothing");
    drop(ctx);

    // Resume 2: delete the CSV — manifest verification fails, the
    // experiment re-runs, but every cell replays from the journal, and
    // the regenerated CSV is byte-identical.
    fs::remove_file(&csv_path).unwrap();
    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());
    let journal = Arc::new(JournalHandle::resume(&journal_dir, header).unwrap());
    let cells_before = journal.cell_count();
    ctx.journal = Some(journal.clone());
    let rerun = engine::execute(fig4, &ctx).expect("rerun");
    assert!(!rerun.written.is_empty(), "re-run rewrites the outputs");
    assert_eq!(
        fs::read(&csv_path).unwrap(),
        first_bytes,
        "replayed cells regenerate byte-identical CSVs"
    );
    assert_eq!(
        journal.cell_count(),
        cells_before,
        "replay loads cells instead of recomputing and re-journaling"
    );
}

#[test]
fn incompatible_resume_is_refused_by_the_cli_binary() {
    let (_, config) = setup();
    let dir = out_dir("incompatible");
    // Seed a journal pinned to different run parameters.
    let header = repro_bench::journal::RunHeader {
        seed: 1,
        config_hash: 2,
        box_episodes: 3,
        scatter_rounds: 4,
    };
    JournalHandle::create(dir.join("journal"), header).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_repro_bench"))
        .arg("--quick")
        .arg("baseline")
        .arg("--resume")
        .arg(&dir)
        .arg("--artifacts")
        .arg(&config.dir)
        .output()
        .expect("spawn");
    assert_eq!(
        output.status.code(),
        Some(1),
        "incompatible --resume exits 1"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cannot resume") && stderr.contains("different run"),
        "stderr explains the refusal:\n{stderr}"
    );
}
