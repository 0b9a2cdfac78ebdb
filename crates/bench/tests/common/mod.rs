//! Helpers shared by the subprocess crash-safety tests (`resume.rs`,
//! `shard.rs`): comparing finished run directories, and SIGKILLing a run
//! only once it has made observable progress, so every kill lands
//! mid-flight no matter how fast the host runs the grid.

use repro_bench::journal::{scan_frames, MAGIC};
use repro_bench::manifest::Manifest;
use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ExitStatus};
use std::time::Duration;

/// Compares two finished run directories: the same set of CSV/SVG files
/// with byte-identical contents, and manifests listing identical outputs
/// (sizes + checksums). Wall-clock manifest fields are run-dependent and
/// excluded; bookkeeping subdirectories are not outputs.
pub fn assert_outputs_match(golden: &Path, other: &Path) {
    let mut names: Vec<String> = fs::read_dir(golden)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".csv") || n.ends_with(".svg") || n.ends_with(".manifest.json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "golden run produced no outputs");
    for name in &names {
        let g = golden.join(name);
        let o = other.join(name);
        if name.ends_with(".manifest.json") {
            let gm = Manifest::load(&g).unwrap();
            let om = Manifest::load(&o).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(gm.outputs, om.outputs, "{name}: output lists differ");
            assert_eq!(gm.seed_root, om.seed_root, "{name}");
        } else {
            let gb = fs::read(&g).unwrap();
            let ob = fs::read(&o).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(gb, ob, "{name}: bytes differ from the golden run");
        }
    }
}

/// Number of `cell` records in the WALs of every worker of the run
/// directory `dir` (a journal's `<csv-dir>/journal/` or a shard's shared
/// directory): the cells journaled so far, duplicates across workers
/// included. Zero before the run has created a WAL; a torn final frame is
/// no record.
pub fn cell_count(dir: &Path) -> usize {
    let Ok(workers) = fs::read_dir(dir.join("workers")) else {
        return 0;
    };
    workers
        .flatten()
        .filter_map(|worker| fs::read(worker.path().join("wal.bin")).ok())
        .filter_map(|wal| {
            let body = wal.strip_prefix(MAGIC)?;
            let (records, _) = scan_frames(body);
            Some(records.iter().filter(|r| r.starts_with("cell ")).count())
        })
        .sum()
}

/// Polls until the run directory `dir` has journaled at least `target`
/// cells (`Ok`) or every process in `children` has exited (`Err`, with
/// the last exit status). Finished processes stay in `children` for the
/// caller to reap.
pub fn await_cells(children: &mut [Child], dir: &Path, target: usize) -> Result<(), ExitStatus> {
    loop {
        let mut last = None;
        let mut running = false;
        for child in children.iter_mut() {
            match child.try_wait().expect("try_wait") {
                Some(status) => last = Some(status),
                None => running = true,
            }
        }
        if !running {
            return Err(last.expect("at least one child"));
        }
        if cell_count(dir) >= target {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SIGKILLs `child` and reaps it. `true` when the signal landed on a live
/// process; `false` when it had exited on its own first (its status must
/// then be a success).
pub fn kill_and_reap(child: &mut Child) -> bool {
    let _ = child.kill();
    let status = child.wait().expect("reap");
    if status.signal() == Some(9) {
        return true;
    }
    assert!(status.success(), "process failed before the kill: {status}");
    false
}
