//! `repro_bench merge`: verify and assemble a run directory.
//!
//! The merge is the read side of [`crate::journal`]: it never simulates.
//! It (1) loads the run header and re-derives the run parameters, (2)
//! reads **every** cell each worker's WAL journals from that worker's
//! cell log and verifies it (inside the log, hashing to its `checksum`
//! line and to the journaled digest, decoding to the journaled episode
//! count; a failure is an error naming the worker), (3) groups the cells
//! by key — two copies of one key with the same record digest are a
//! benign duplicate (cells are deterministic; a stalled worker and its
//! thief both finishing is expected), while *different* digests are a
//! hard error naming both owners, (4) replays the real experiment grid
//! straight from the verified cells in a strict probe pass that
//! enumerates any cell no worker published (nonzero exit, every gap
//! listed), and (5) replays once more with output
//! sinks attached, producing CSVs, SVGs, and manifests **byte-identical**
//! to an uninterrupted single-process run — cell ordering is defined by
//! the grid and the seed namespace, not by which worker finished first.
//! A single-process run's `<dir>/journal/` is a one-worker run directory,
//! so it merges the same way.

use crate::cli::{CliArgs, CliError};
use crate::engine::{self, Registry, RunContext};
use crate::harness::Scale;
use crate::journal::{
    parse_cell, read_cell, scan_frames, wal_body, JournalError, RunHeader, ShardHeader,
};
use drive_sim::record::EpisodeRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One worker's verified, decoded copy of a cell.
#[derive(Debug)]
struct Published {
    owner: String,
    digest: u64,
    records: Vec<EpisodeRecord>,
}

/// Everything scanned out of a run directory.
#[derive(Debug, Default)]
struct ShardScan {
    /// Verified copies grouped by cell key (in worker-id order, so
    /// reports are deterministic).
    cells: BTreeMap<u64, Vec<Published>>,
    /// Cell labels recovered from the per-worker WALs.
    labels: BTreeMap<u64, String>,
    /// Worker ids that journaled at least one cell.
    workers: Vec<String>,
}

/// The merge's load-only replay source: the records of every verified
/// cell, by cell key. Installed as
/// [`RunContext::replay`](crate::engine::RunContext), it serves every
/// cell of the grid without simulating, and records the cells it cannot
/// serve, so one cheap pass over the real experiment grid enumerates
/// exactly which cells a run is still missing.
#[derive(Debug)]
pub struct Replay {
    cells: BTreeMap<u64, Vec<EpisodeRecord>>,
    missing: Mutex<Vec<String>>,
}

impl Replay {
    /// The published records of cell `key`. A cell nobody published (or
    /// published with a different episode count) has its `label` recorded as
    /// missing and replays as default-filled episodes, which keeps
    /// downstream aggregation well-formed.
    pub fn load(&self, key: u64, label: &str, episodes: usize) -> Vec<EpisodeRecord> {
        match self.cells.get(&key) {
            Some(records) if records.len() == episodes => records.clone(),
            _ => {
                self.missing
                    .lock()
                    .expect("missing-cells lock")
                    .push(label.to_string());
                vec![EpisodeRecord::default(); episodes]
            }
        }
    }
}

/// Parsed `repro_bench merge` command line.
#[derive(Debug)]
pub struct MergeCli {
    /// The shared shard directory (first positional argument).
    pub dir: PathBuf,
    /// Where merged outputs land (`--out`, default `<dir>/merged`).
    pub out: PathBuf,
    /// Standard pipeline flags (`--quick`, `--artifacts`, `--fleet`);
    /// these must reproduce the workers' configuration and are verified
    /// against the shard header.
    pub cli: CliArgs,
}

impl MergeCli {
    /// Parses `repro_bench merge <dir> [--out <dir>] [standard flags]`.
    ///
    /// # Errors
    ///
    /// [`CliError`] for malformed flags or a missing directory operand.
    pub fn parse(args: &[String]) -> Result<MergeCli, CliError> {
        let mut rest: Vec<String> = Vec::new();
        let mut dir: Option<PathBuf> = None;
        let mut out: Option<PathBuf> = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => {
                    out =
                        Some(PathBuf::from(it.next().ok_or_else(|| {
                            CliError::MissingValue("--out".to_string())
                        })?));
                }
                other if dir.is_none() && !other.starts_with("--") => {
                    dir = Some(PathBuf::from(other));
                }
                other => rest.push(other.to_string()),
            }
        }
        let dir = dir.ok_or_else(|| CliError::MissingValue("merge <dir>".to_string()))?;
        let out = out.unwrap_or_else(|| dir.join("merged"));
        Ok(MergeCli {
            dir,
            out,
            cli: CliArgs::parse(&rest)?,
        })
    }
}

/// Entry point for the `repro_bench merge` subcommand.
pub fn main(args: &[String]) -> i32 {
    let parsed = match MergeCli::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return crate::cli::exit_code(&e);
        }
    };
    match run_merge(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            crate::cli::exit_code(&e)
        }
    }
}

/// Runs the full merge (see the module docs for the five stages).
///
/// # Errors
///
/// [`CliError::Resume`] for every integrity failure — unreadable,
/// mismatching or older-layout header, a journaled cell whose text is
/// missing or corrupt, conflicting copies of a cell, missing cells — and [`CliError::Io`] for output-sink failures. All exit
/// nonzero through [`crate::cli::exit_code`].
pub fn run_merge(parsed: &MergeCli) -> Result<(), CliError> {
    let header = ShardHeader::load(&parsed.dir).map_err(|e| CliError::Resume(e.to_string()))?;
    let config = parsed.cli.pipeline_config();
    let scale = Scale {
        box_episodes: header.run.box_episodes,
        scatter_rounds: header.run.scatter_rounds,
        seed: header.run.seed,
    };
    let expected = RunHeader::for_run(&config, scale);
    if expected != header.run {
        return Err(CliError::Resume(format!(
            "shard header pins config {:016x} but these flags derive {:016x} — \
             pass the same --quick/--artifacts the workers used",
            header.run.config_hash, expected.config_hash
        )));
    }
    let experiments: Vec<_> = header
        .selection
        .iter()
        .map(|name| {
            Registry::find(name).ok_or_else(|| {
                CliError::Resume(format!("shard header names unknown experiment '{name}'"))
            })
        })
        .collect::<Result<_, _>>()?;

    let scan = scan_shard(&parsed.dir).map_err(|e| CliError::Resume(e.to_string()))?;
    let conflicts = find_conflicts(&scan);
    if !conflicts.is_empty() {
        return Err(CliError::Resume(format!(
            "{} conflicting cell(s):\n{}",
            conflicts.len(),
            conflicts.join("\n")
        )));
    }
    let duplicates: usize = scan.cells.values().map(|s| s.len() - 1).sum();
    eprintln!(
        "[merge] {} verified cell(s) from {} worker(s) ({} benign duplicate(s))",
        scan.cells.len(),
        scan.workers.len(),
        duplicates
    );
    let cells = scan.cells.len();
    let replay = Arc::new(Replay {
        cells: scan
            .cells
            .into_iter()
            .map(|(key, mut copies)| (key, copies.swap_remove(0).records))
            .collect(),
        missing: Mutex::new(Vec::new()),
    });

    // Probe pass: replay the real grid with no sinks. Any cell the
    // published cells cannot serve is a gap some worker still owes the
    // run.
    let artifacts = attack_core::pipeline::prepare(&config);
    let mut probe = RunContext::new(&artifacts, &config, scale);
    probe.replay = Some(Arc::clone(&replay));
    parsed.cli.apply_fleet(&mut probe);
    for exp in &experiments {
        let _ = exp.run(&probe);
    }
    drop(probe);
    let missing = std::mem::take(&mut *replay.missing.lock().expect("missing-cells lock"));
    if !missing.is_empty() {
        return Err(CliError::Resume(format!(
            "{} cell(s) were never published — the shard is incomplete:\n  {}",
            missing.len(),
            missing.join("\n  ")
        )));
    }

    // Final pass: replay once more with sinks attached. Fresh context
    // (fresh memo), same cells; every cell loads, so the outputs are
    // byte-identical to a single-process run.
    std::fs::create_dir_all(&parsed.out)?;
    let mut ctx = RunContext::new(&artifacts, &config, scale);
    ctx.replay = Some(replay);
    ctx.csv_dir = Some(parsed.out.clone());
    ctx.svg_dir = Some(parsed.out.clone());
    parsed.cli.apply_fleet(&mut ctx);
    for exp in &experiments {
        let outcome = engine::execute(*exp, &ctx)?;
        println!("{}", outcome.report);
        for path in &outcome.written {
            eprintln!("[out] wrote {}", path.display());
        }
    }
    eprintln!(
        "[merge] assembled {} experiment(s) from {} cell(s) into {}",
        experiments.len(),
        cells,
        parsed.out.display()
    );
    Ok(())
}

/// Scans, verifies, and conflict-checks a shard directory, returning the
/// number of distinct cells found. This is the pure verification half of
/// [`run_merge`] — no experiments are replayed — exposed for the
/// `shard_merge_432cells` bench pseudo-row, which gates the per-cell
/// verification cost at merge scale.
///
/// # Errors
///
/// As [`scan_shard`], and [`JournalError::Corrupt`] listing every cell
/// whose copies disagree.
pub fn verify_shard(dir: &Path) -> Result<usize, JournalError> {
    let scan = scan_shard(dir)?;
    let conflicts = find_conflicts(&scan);
    if !conflicts.is_empty() {
        return Err(JournalError::Corrupt(format!(
            "{} conflicting cell(s):\n{}",
            conflicts.len(),
            conflicts.join("\n")
        )));
    }
    Ok(scan.cells.len())
}

/// Scans and verifies a run directory: every cell each worker's WAL
/// journals is read from the worker's `cells.log` and verified. When a
/// WAL journals one key twice (a cell whose first copy failed to load and
/// was recomputed), the later record counts, as it does on resume.
///
/// # Errors
///
/// [`JournalError::Incompatible`] for a WAL of the older layout,
/// [`JournalError::Corrupt`] for a WAL without the journal magic, or
/// naming the worker for a journaled cell that fails verification, and when no
/// worker published anything; [`JournalError::Io`] when a WAL cannot be
/// read.
fn scan_shard(dir: &Path) -> Result<ShardScan, JournalError> {
    let mut scan = ShardScan::default();
    let workers_dir = dir.join("workers");
    let mut worker_dirs: Vec<PathBuf> = match std::fs::read_dir(&workers_dir) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    worker_dirs.sort();
    for worker_dir in worker_dirs {
        let owner = worker_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let wal_path = worker_dir.join("wal.bin");
        let bytes = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        let (records, _) = scan_frames(wal_body(&bytes, &wal_path)?);
        let mut index = BTreeMap::new();
        for record in &records {
            if let Some((key, at, label)) = parse_cell(record) {
                index.insert(key, (at, label.to_string()));
            }
        }
        if index.is_empty() {
            continue;
        }
        let log_path = worker_dir.join("cells.log");
        let log = std::fs::File::open(&log_path).map_err(|e| {
            JournalError::Corrupt(format!(
                "worker {owner}: cannot open {}: {e}",
                log_path.display()
            ))
        })?;
        for (key, (at, label)) in index {
            let records = read_cell(&log, &at).map_err(|e| {
                JournalError::Corrupt(format!(
                    "worker {owner}: cell {key:016x} [{label}] fails verification: {e}"
                ))
            })?;
            scan.labels.entry(key).or_insert(label);
            scan.cells.entry(key).or_default().push(Published {
                owner: owner.clone(),
                digest: at.digest,
                records,
            });
        }
        scan.workers.push(owner);
    }
    if scan.cells.is_empty() {
        return Err(JournalError::Corrupt(format!(
            "no published cells under {}",
            workers_dir.display()
        )));
    }
    Ok(scan)
}

/// Conflict report: for every key whose copies disagree on the record
/// digest, one line naming each owner and digest.
fn find_conflicts(scan: &ShardScan) -> Vec<String> {
    let mut out = Vec::new();
    for (key, copies) in &scan.cells {
        let first = copies[0].digest;
        if copies.iter().any(|c| c.digest != first) {
            let detail: Vec<String> = copies
                .iter()
                .map(|c| format!("owner {} (digest {:016x})", c.owner, c.digest))
                .collect();
            let label = scan
                .labels
                .get(key)
                .map(String::as_str)
                .unwrap_or("(unlabeled)");
            out.push(format!(
                "cell {key:016x} [{label}]: {}",
                detail.join(" vs ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalHandle, DEFAULT_TTL};
    use crate::test_dir::TestDir;

    fn temp(name: &str) -> TestDir {
        let dir = TestDir::new(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> RunHeader {
        RunHeader {
            seed: 77,
            config_hash: 0xabcd,
            box_episodes: 3,
            scatter_rounds: 2,
        }
    }

    fn records(tag: usize) -> Vec<EpisodeRecord> {
        (0..3)
            .map(|i| EpisodeRecord {
                steps: tag * 10 + i,
                dt: 0.05,
                ..EpisodeRecord::default()
            })
            .collect()
    }

    fn publish(dir: &Path, owner: &str, key: u64, recs: &[EpisodeRecord]) {
        let header = ShardHeader {
            run: header(),
            selection: Vec::new(),
        };
        let worker = JournalHandle::join(dir, &header, owner, DEFAULT_TTL).unwrap();
        let recs = recs.to_vec();
        let n = recs.len();
        let _cells = crate::test_latch::run_cells();
        let got = worker.run_cell(key, &format!("cell-{key}"), n, move || (recs, true));
        assert_eq!(got.len(), n);
    }

    /// Journals `recs` as cell `key` of worker `owner` directly, as a
    /// worker that computed it without loading a peer's copy would.
    fn store(dir: &Path, owner: &str, key: u64, recs: &[EpisodeRecord]) {
        let header = ShardHeader {
            run: header(),
            selection: Vec::new(),
        };
        JournalHandle::join(dir, &header, owner, DEFAULT_TTL)
            .unwrap()
            .store_cell(key, &format!("cell-{key}"), recs.len(), recs)
            .unwrap();
    }

    #[test]
    fn scan_collects_labels_and_verified_cells() {
        let dir = temp("repro-merge-scan");
        publish(&dir, "w1", 1, &records(1));
        publish(&dir, "w2", 2, &records(2));
        // A stalled w2 that finished cell 1 after w1's thief did would
        // publish an identical copy: benign duplicate. (Through
        // `run_cell` it would just load w1's result, so store it
        // directly, as the slow worker's publish path does.)
        store(&dir, "w2", 1, &records(1));

        let scan = scan_shard(&dir).unwrap();
        assert_eq!(scan.cells.len(), 2);
        assert_eq!(scan.cells[&1].len(), 2, "duplicate kept for audit");
        assert_eq!(scan.cells[&1][0].digest, scan.cells[&1][1].digest);
        assert_eq!(scan.cells[&2][0].records, records(2));
        assert_eq!(scan.workers, ["w1", "w2"]);
        assert_eq!(scan.labels[&1], "cell-1");
        assert!(find_conflicts(&scan).is_empty());
        assert_eq!(verify_shard(&dir).unwrap(), 2);
    }

    #[test]
    fn conflicting_copies_name_both_owners() {
        let dir = temp("repro-merge-conflict");
        publish(&dir, "w1", 5, &records(1));
        // A copy with different records for the same key — exactly what
        // a nondeterminism bug (or tampering) would produce.
        store(&dir, "evil", 5, &records(9));

        let scan = scan_shard(&dir).unwrap();
        let conflicts = find_conflicts(&scan);
        assert_eq!(conflicts.len(), 1);
        assert!(conflicts[0].contains("owner w1"), "{}", conflicts[0]);
        assert!(conflicts[0].contains("owner evil"), "{}", conflicts[0]);
        assert!(
            conflicts[0].contains("cell-5"),
            "label from WAL: {}",
            conflicts[0]
        );
        let err = verify_shard(&dir).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("conflicting"), "{err}");
    }

    /// A journaled cell whose bytes were altered, or whose record points
    /// past the end of the log, is a typed error naming the worker.
    #[test]
    fn corrupt_cell_fails_the_scan_naming_the_worker() {
        let dir = temp("repro-merge-corrupt");
        publish(&dir, "w1", 3, &records(1));
        publish(&dir, "w2", 4, &records(2));
        let log = dir.join("workers").join("w2").join("cells.log");
        let original = std::fs::read(&log).unwrap();
        let mut bytes = original.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&log, &bytes).unwrap();
        let err = scan_shard(&dir).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("worker w2") && msg.contains("fails verification"),
            "{msg}"
        );

        std::fs::write(&log, &original[..original.len() - 1]).unwrap();
        let msg = scan_shard(&dir).unwrap_err().to_string();
        assert!(
            msg.contains("worker w2") && msg.contains("past the end"),
            "{msg}"
        );
        std::fs::write(&log, &original).unwrap();
        assert_eq!(verify_shard(&dir).unwrap(), 2);
    }

    /// A run directory of the older file-per-cell layout is refused as
    /// incompatible.
    #[test]
    fn older_layout_is_incompatible() {
        let dir = temp("repro-merge-old-layout");
        publish(&dir, "w1", 3, &records(1));
        let wal = dir.join("workers").join("w1").join("wal.bin");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[..8].copy_from_slice(b"RBJRNL1\n");
        std::fs::write(&wal, bytes).unwrap();
        assert!(matches!(
            scan_shard(&dir),
            Err(JournalError::Incompatible(_))
        ));
    }

    #[test]
    fn merge_cli_parses_dir_out_and_forwards_flags() {
        let args: Vec<String> = ["/tmp/sh", "--out", "/tmp/m", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = MergeCli::parse(&args).unwrap();
        assert_eq!(parsed.dir, PathBuf::from("/tmp/sh"));
        assert_eq!(parsed.out, PathBuf::from("/tmp/m"));
        assert!(parsed.cli.quick);
        // Default out dir nests under the shard dir.
        let bare: Vec<String> = vec!["/tmp/sh".into()];
        assert_eq!(
            MergeCli::parse(&bare).unwrap().out,
            PathBuf::from("/tmp/sh/merged")
        );
        assert!(matches!(
            MergeCli::parse(&[]),
            Err(CliError::MissingValue(_))
        ));
    }
}
