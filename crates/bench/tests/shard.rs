//! Sharded multi-process integration tests: the kill matrix.
//!
//! Four `repro_bench shard` worker processes race the scenario-matrix
//! grid in one shared directory while SIGKILLs land at randomized
//! points; killed workers are replaced, stale leases are stolen, and
//! `repro_bench merge` must assemble CSVs/manifests byte-identical to an
//! uninterrupted single-process golden run. The merge must also exit
//! nonzero on a forged worker whose copy of a cell differs (naming that
//! owner) and on a cell no WAL journals (missing). A two-worker fig4 run checks that the merge
//! rebuilds figure SVGs byte-identical too, and a single-process
//! journaled fig4 run merges the same way. A separate test covers the
//! polite path: SIGTERM drains a worker at a cell boundary, exits 130,
//! and releases every held lease.

#![cfg(unix)]

use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use repro_bench::journal::{encode_frame, scan_frames, MAGIC, SOLO_WORKER};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

mod common;
use common::assert_outputs_match;
#[path = "../src/test_dir.rs"]
mod test_dir;
use test_dir::TestDir;

/// One quick-trained artifact cache shared by every test in this file and
/// by every worker subprocess (they load it instead of retraining).
fn setup() -> (&'static Artifacts, &'static PipelineConfig) {
    static SETUP: OnceLock<(Artifacts, PipelineConfig)> = OnceLock::new();
    let (a, c) = SETUP.get_or_init(|| {
        // Subprocesses load it, so it outlives every test: one per
        // process, left in cargo's scratch for integration tests (under
        // `target/`, which `cargo clean` removes).
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("shard-artifacts-{}", std::process::id()));
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    });
    (a, c)
}

fn out_dir(name: &str) -> TestDir {
    TestDir::new(&format!("repro-bench-shard-{name}"))
}

fn base_cmd() -> Command {
    let (_, config) = setup();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro_bench"));
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    // Every subcommand below shares the pipeline flags; paper evaluation
    // scale over quick artifacts gives a multi-second window for kills.
    let _ = config;
    cmd
}

/// A worker process joining `dir`. Short TTL so survivors steal a killed
/// worker's leases within the test's patience.
fn worker_cmd(dir: &Path, worker: &str) -> Command {
    let (_, config) = setup();
    let mut cmd = base_cmd();
    cmd.arg("shard")
        .arg(dir)
        .arg("scenario-matrix")
        .arg("--quick")
        .arg("--ttl-ms")
        .arg("1000")
        .arg("--worker")
        .arg(worker)
        .arg("--artifacts")
        .arg(&config.dir);
    cmd
}

fn merge_cmd(dir: &Path, out: &Path) -> Command {
    let (_, config) = setup();
    let mut cmd = base_cmd();
    cmd.arg("merge")
        .arg(dir)
        .arg("--out")
        .arg(out)
        .arg("--quick")
        .arg("--artifacts")
        .arg(&config.dir);
    cmd
}

#[test]
fn kill_matrix_four_workers_merge_matches_single_process_golden() {
    setup();

    // Golden: one uninterrupted single-process run, journal disabled.
    let golden = out_dir("km-golden");
    let (_, config) = setup();
    let status = base_cmd()
        .arg("scenario-matrix")
        .arg("--quick")
        .arg("--csv")
        .arg(&golden)
        .arg("--svg")
        .arg(&golden)
        .arg("--no-journal")
        .arg("--artifacts")
        .arg(&config.dir)
        .status()
        .expect("spawn golden run");
    assert!(status.success(), "golden run failed: {status}");

    // Kill matrix: keep a fleet of 4 workers on the shared directory,
    // SIGKILL randomly chosen workers (respawning replacements) once the
    // fleet has published a randomized number (1..=3) of new cells since
    // the last spawn, until at least 3 genuine kills have landed. Kills
    // trigger on progress, not on timers, so they land mid-flight however
    // fast the host runs the grid.
    let shared = out_dir("km-shared");
    let mut fleet: Vec<Child> = Vec::new();
    let mut spawned = 0usize;
    let mut kills = 0usize;
    let mut attempts = 0usize;
    let mut completed_ok = false;
    let mut lcg: u64 = 0x0dd5_eed5_0fac_e011 ^ 0x5eed;
    while kills < 3 {
        attempts += 1;
        assert!(
            attempts <= 16,
            "needed more than 16 attempts to land 3 kills"
        );
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let target = common::cell_count(&shared) + 1 + (lcg >> 33) as usize % 3;
        while fleet.len() < 4 {
            spawned += 1;
            fleet.push(
                worker_cmd(&shared, &format!("w{spawned}"))
                    .spawn()
                    .expect("spawn worker"),
            );
        }
        let _ = common::await_cells(&mut fleet, &shared, target);
        // Reap finished workers first: an exit 0 proves its completing
        // pass saw every cell published.
        let mut alive = Vec::new();
        for mut child in fleet.drain(..) {
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "worker failed: {status}");
                    completed_ok = true;
                }
                None => alive.push(child),
            }
        }
        fleet = alive;
        if fleet.is_empty() {
            continue; // everyone finished before this kill; respawn and retry
        }
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let victim = (lcg >> 33) as usize % fleet.len();
        let mut child = fleet.swap_remove(victim);
        if common::kill_and_reap(&mut child) {
            kills += 1;
        } else {
            completed_ok = true;
        }
    }
    // Let the survivors finish, then guarantee completion with one final
    // worker: it steals any stale leases the kills left behind, computes
    // whatever is still unpublished, and exits 0 only once the whole
    // grid is on disk.
    for mut child in fleet.drain(..) {
        let status = child.wait().expect("reap survivor");
        assert!(status.success(), "surviving worker failed: {status}");
        completed_ok = true;
    }
    if !completed_ok {
        // every worker was killed before any completed
        let status = worker_cmd(&shared, "w-final")
            .status()
            .expect("spawn finisher");
        assert!(status.success(), "finisher worker failed: {status}");
    }

    // Merge and compare byte-for-byte against the golden run.
    let merged = out_dir("km-merged");
    let status = merge_cmd(&shared, &merged).status().expect("spawn merge");
    assert!(status.success(), "merge failed: {status}");
    assert_outputs_match(&golden, &merged);

    // The shard bookkeeping is in place: a header, no leaked leases
    // (completion releases them; stolen ones were consumed), per-worker
    // WALs and progress logs.
    assert!(shared.join("shard.header").exists());
    let leases: Vec<_> = fs::read_dir(shared.join("leases"))
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "lease"))
                .collect()
        })
        .unwrap_or_default();
    assert!(leases.is_empty(), "no leases survive a completed run");
    assert!(shared.join("workers").join("w1").join("wal.bin").exists());
    assert!(shared
        .join("workers")
        .join("w1")
        .join("progress.csv")
        .exists());

    // Injected conflict: a forged worker `evil` whose WAL journals an
    // existing cell with another cell's (valid, checksummed) text. The
    // merge must refuse, naming the forged owner.
    let workers = shared.join("workers");
    let (source, records) = fs::read_dir(&workers)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .map(|owner| {
            let records = wal_records(&workers.join(&owner));
            (owner, records)
        })
        .filter(|(_, records)| records.iter().filter(|r| r.starts_with("cell ")).count() >= 2)
        .min_by(|a, b| a.0.cmp(&b.0))
        .expect("a worker that journaled two cells");
    let cell_records: Vec<Vec<&str>> = records
        .iter()
        .filter(|r| r.starts_with("cell "))
        .map(|r| r.splitn(7, ' ').collect())
        .collect();
    let victim = &cell_records[0];
    let victim_key = victim[1].to_string();
    let donor = cell_records
        .iter()
        .find(|r| r[1] != victim[1])
        .expect("a record of a different cell");
    assert_ne!(donor[2], victim[2], "two cells with one digest");
    let evil = workers.join("evil");
    fs::create_dir_all(&evil).unwrap();
    fs::copy(
        workers.join(&source).join("cells.log"),
        evil.join("cells.log"),
    )
    .unwrap();
    let forged = [
        records[0].clone(),
        [&["cell", victim[1]][..], &donor[2..6], &victim[6..]]
            .concat()
            .join(" "),
    ];
    write_wal(&evil, forged.iter().map(String::as_str));
    let conflict_out = out_dir("km-conflict-merged");
    let output = merge_cmd(&shared, &conflict_out)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn conflict merge");
    assert!(
        !output.status.success(),
        "merge must fail on a conflicting copy"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("conflicting") && stderr.contains("evil"),
        "conflict report names the injected owner:\n{stderr}"
    );
    assert!(
        stderr.contains(&victim_key),
        "conflict report names the cell key:\n{stderr}"
    );

    // Remove the forged worker AND every record of the victim's cell from
    // every WAL: now the cell is missing entirely, and the merge must say
    // which one. A cell can be journaled by two workers with one digest
    // (a worker that lost its lease renewal, and the thief that
    // recomputed the cell), which the merge accepts, so dropping one
    // record is not enough.
    fs::remove_dir_all(&evil).unwrap();
    let mut dropped = Vec::new();
    for entry in fs::read_dir(&workers).unwrap().flatten() {
        let records = wal_records(&entry.path());
        let victim_prefix = format!("cell {victim_key} ");
        let kept: Vec<&str> = records
            .iter()
            .map(String::as_str)
            .filter(|r| !r.starts_with(&victim_prefix))
            .collect();
        if kept.len() < records.len() {
            dropped.push(entry.file_name().to_string_lossy().into_owned());
            write_wal(&entry.path(), kept);
        }
    }
    let missing_out = out_dir("km-missing-merged");
    let output = merge_cmd(&shared, &missing_out)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn missing merge");
    if output.status.success() {
        eprintln!("dropped the records of cell {victim_key} from {dropped:?}");
    }
    assert!(
        !output.status.success(),
        "merge must fail on a missing cell"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("never published"),
        "missing-cell report:\n{stderr}"
    );
}

/// Every record of the WAL in `worker` (the run header first); none when
/// the worker was killed before its WAL was in place.
fn wal_records(worker: &Path) -> Vec<String> {
    let Ok(bytes) = fs::read(worker.join("wal.bin")) else {
        return Vec::new();
    };
    assert!(
        bytes.starts_with(MAGIC),
        "{}: no WAL magic",
        worker.display()
    );
    scan_frames(&bytes[MAGIC.len()..]).0
}

/// Writes `records` as the WAL in `worker`.
fn write_wal<'a>(worker: &Path, records: impl IntoIterator<Item = &'a str>) {
    let mut bytes = MAGIC.to_vec();
    for record in records {
        bytes.extend_from_slice(&encode_frame(record));
    }
    fs::write(worker.join("wal.bin"), bytes).unwrap();
}

/// `merge` rebuilds figure SVGs, not just CSVs, byte-identical to a
/// single-process run: two workers split the fig4 smoke grid (the
/// scenario matrix above writes no SVGs).
#[test]
fn merged_fig4_svgs_match_single_process_golden() {
    let (_, config) = setup();
    let fig4 = |cmd: &mut Command| {
        cmd.arg("fig4")
            .arg("--quick")
            .arg("--scale")
            .arg("smoke")
            .arg("--artifacts")
            .arg(&config.dir);
    };
    let golden = out_dir("fig4-golden");
    let mut cmd = base_cmd();
    fig4(&mut cmd);
    let status = cmd
        .arg("--csv")
        .arg(&golden)
        .arg("--svg")
        .arg(&golden)
        .arg("--no-journal")
        .status()
        .expect("spawn golden run");
    assert!(status.success(), "golden run failed: {status}");
    let svgs = fs::read_dir(&golden)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "svg"))
        .count();
    assert!(svgs > 0, "fig4 golden run wrote no SVGs");

    let shared = out_dir("fig4-shared");
    let workers: Vec<Child> = ["w1", "w2"]
        .iter()
        .map(|w| {
            let mut cmd = base_cmd();
            cmd.arg("shard").arg(&shared);
            fig4(&mut cmd);
            cmd.arg("--worker").arg(w).spawn().expect("spawn worker")
        })
        .collect();
    for mut child in workers {
        let status = child.wait().expect("reap worker");
        assert!(status.success(), "worker failed: {status}");
    }
    let merged = out_dir("fig4-merged");
    let status = base_cmd()
        .arg("merge")
        .arg(&shared)
        .arg("--out")
        .arg(&merged)
        .arg("--quick")
        .arg("--scale")
        .arg("smoke")
        .arg("--artifacts")
        .arg(&config.dir)
        .status()
        .expect("spawn merge");
    assert!(status.success(), "merge failed: {status}");
    assert_outputs_match(&golden, &merged);
}

/// One layout serves both run modes: a single-process journaled run's
/// `<dir>/journal/` is a one-worker run directory, so `merge` assembles
/// it into outputs byte-identical to the ones the run itself wrote.
#[test]
fn single_process_journal_merges_like_a_shard() {
    let (_, config) = setup();
    let fig4 = |cmd: &mut Command| {
        cmd.arg("fig4")
            .arg("--quick")
            .arg("--scale")
            .arg("smoke")
            .arg("--artifacts")
            .arg(&config.dir);
    };
    let run = out_dir("solo-run");
    let mut cmd = base_cmd();
    fig4(&mut cmd);
    let status = cmd
        .arg("--csv")
        .arg(&run)
        .arg("--svg")
        .arg(&run)
        .status()
        .expect("spawn journaled run");
    assert!(status.success(), "journaled run failed: {status}");

    let merged = out_dir("solo-merged");
    let mut cmd = base_cmd();
    cmd.arg("merge")
        .arg(run.join("journal"))
        .arg("--out")
        .arg(&merged);
    fig4(&mut cmd);
    let status = cmd.status().expect("spawn merge");
    assert!(
        status.success(),
        "merge of a single-process journal: {status}"
    );
    assert_outputs_match(&run, &merged);

    // The run left no file per cell: no lease, and the worker directory
    // holds its log, WAL, progress log and claim file only.
    let names = |dir: PathBuf| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let journal = run.join("journal");
    assert_eq!(names(journal.join("leases")), Vec::<String>::new());
    assert_eq!(
        names(journal.join("workers").join(SOLO_WORKER)),
        ["cells.log", "claim", "progress.csv", "wal.bin"]
    );
}

/// Sends a real SIGTERM (std's `Child::kill` is SIGKILL on unix).
fn sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let rc = unsafe { kill(child.id() as i32, 15) };
    assert_eq!(rc, 0, "kill(pid, SIGTERM) failed");
}

/// A polite SIGTERM mid-run must exit 130 after draining: the worker
/// unwinds at the next safe point and its drain hook releases every held
/// lease, so no `.lease` files survive and a successor worker never
/// waits out the TTL. The successor then completes the run.
#[test]
fn sigterm_drains_shard_worker_and_releases_leases() {
    setup();
    let shared = out_dir("term-shared");
    let mut landed = false;
    let mut attempts = 0;
    while !landed {
        attempts += 1;
        assert!(attempts <= 8, "could not land a mid-run SIGTERM in 8 tries");
        // SIGTERM once the worker has published a new cell since spawn.
        let target = common::cell_count(&shared) + 1;
        // Long TTL: released leases must come from the drain hook, not
        // from TTL expiry.
        let (_, config) = setup();
        let mut cmd = base_cmd();
        cmd.arg("shard")
            .arg(&shared)
            .arg("scenario-matrix")
            .arg("--quick")
            .arg("--ttl-ms")
            .arg("60000")
            .arg("--worker")
            .arg(format!("term{attempts}"))
            .arg("--artifacts")
            .arg(&config.dir)
            .stderr(Stdio::piped());
        let mut child = [cmd.spawn().expect("spawn worker")];
        let progressed = common::await_cells(&mut child, &shared, target).is_ok();
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
            landed = true;
        } else {
            let status = child.wait_with_output().expect("reap").status;
            assert!(status.success(), "early completion failed: {status}");
        }
    }
    let leases: Vec<_> = fs::read_dir(shared.join("leases"))
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "lease"))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leases.is_empty(),
        "drain hook releases every held lease on SIGTERM: {leases:?}"
    );

    // A successor worker completes the run from the published cells.
    let status = worker_cmd(&shared, "w-successor")
        .status()
        .expect("spawn successor");
    assert!(status.success(), "successor worker failed: {status}");
    let merged = out_dir("term-merged");
    let status = merge_cmd(&shared, &merged).status().expect("spawn merge");
    assert!(status.success(), "merge after SIGTERM recovery: {status}");
}
