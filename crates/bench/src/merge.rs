//! `repro_bench merge`: verify and assemble a run directory.
//!
//! The merge is the read side of [`crate::journal`]: it never simulates.
//! It (1) loads the run header and re-derives the run parameters, (2)
//! verifies the checkpoint checksum of **every** published sidecar, (3)
//! groups sidecars by cell key — two sidecars for one key with the same
//! record digest are a benign duplicate (cells are deterministic; a
//! stalled worker and its thief both finishing is expected), while
//! *different* digests are a hard error naming both owners, (4) replays
//! the real experiment grid straight from the verified sidecars in a
//! strict probe pass that enumerates any cell no worker published
//! (nonzero exit, every gap listed), and (5) replays once more with output
//! sinks attached, producing CSVs, SVGs, and manifests **byte-identical**
//! to an uninterrupted single-process run — cell ordering is defined by
//! the grid and the seed namespace, not by which worker finished first.
//! A single-process run's `<dir>/journal/` is a one-worker run directory,
//! so it merges the same way.

use crate::cli::{CliArgs, CliError};
use crate::engine::{self, Registry, RunContext};
use crate::harness::Scale;
use crate::journal::{scan_frames, RunHeader, ShardHeader, MAGIC};
use drive_seed::fnv1a_64;
use drive_sim::record::{decode_records, EpisodeRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One verified, decoded sidecar from the run directory's `cells/` area.
#[derive(Debug)]
struct Sidecar {
    owner: String,
    file: String,
    digest: u64,
    records: Vec<EpisodeRecord>,
}

/// Everything scanned out of a run directory.
#[derive(Debug, Default)]
struct ShardScan {
    /// Verified sidecars grouped by cell key (insertion order: sorted
    /// directory listing, so reports are deterministic).
    cells: BTreeMap<u64, Vec<Sidecar>>,
    /// Cell labels/episode counts recovered from the per-worker WALs.
    labels: BTreeMap<u64, (String, usize)>,
    /// Worker ids that contributed a WAL.
    workers: Vec<String>,
}

/// The merge's load-only replay source: the records of every verified
/// sidecar, by cell key. Installed as
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
    /// The published records of cell `key`. A cell with no sidecar (or
    /// one of a different episode count) has its `label` recorded as
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
/// [`CliError::Resume`] for every integrity failure — unreadable or
/// mismatching header, corrupt sidecar, conflicting sidecars, missing
/// cells — and [`CliError::Io`] for output-sink failures. All exit
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

    let scan = scan_shard(&parsed.dir).map_err(CliError::Resume)?;
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
        "[merge] {} verified sidecar cell(s) from {} worker(s) ({} benign duplicate(s))",
        scan.cells.len(),
        scan.workers.len(),
        duplicates
    );
    let cells = scan.cells.len();
    let replay = Arc::new(Replay {
        cells: scan
            .cells
            .into_iter()
            .map(|(key, mut sidecars)| (key, sidecars.swap_remove(0).records))
            .collect(),
        missing: Mutex::new(Vec::new()),
    });

    // Probe pass: replay the real grid with no sinks. Any cell the
    // sidecars cannot serve is a gap some worker still owes the run.
    let artifacts = attack_core::pipeline::prepare(&config);
    let mut probe = RunContext::new(&artifacts, &config, scale);
    probe.replay = Some(Arc::clone(&replay));
    probe.fleet = parsed.cli.fleet;
    for exp in &experiments {
        let _ = exp.run(&probe);
    }
    drop(probe);
    let missing = std::mem::take(&mut *replay.missing.lock().expect("missing-cells lock"));
    if !missing.is_empty() {
        return Err(CliError::Resume(format!(
            "{} cell(s) have no published sidecar — the shard is incomplete:\n  {}",
            missing.len(),
            missing.join("\n  ")
        )));
    }

    // Final pass: replay once more with sinks attached. Fresh context
    // (fresh memo), same sidecars; every cell loads, so the outputs are
    // byte-identical to a single-process run.
    std::fs::create_dir_all(&parsed.out)?;
    let mut ctx = RunContext::new(&artifacts, &config, scale);
    ctx.replay = Some(replay);
    ctx.csv_dir = Some(parsed.out.clone());
    ctx.svg_dir = Some(parsed.out.clone());
    ctx.fleet = parsed.cli.fleet;
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

/// Scans, checksum-verifies, and conflict-checks a shard directory,
/// returning the number of distinct cells found. This is the pure
/// verification half of [`run_merge`] — no experiments are replayed —
/// exposed for the `shard_merge_432cells` bench pseudo-row, which gates
/// the per-sidecar verification cost at merge scale.
pub fn verify_shard(dir: &Path) -> Result<usize, String> {
    let scan = scan_shard(dir)?;
    let conflicts = find_conflicts(&scan);
    if !conflicts.is_empty() {
        return Err(conflicts.join("\n"));
    }
    Ok(scan.cells.len())
}

/// Scans and verifies a shard directory: every sidecar's checkpoint
/// checksum and record encoding, plus the per-worker WAL metadata.
fn scan_shard(dir: &Path) -> Result<ShardScan, String> {
    let mut scan = ShardScan::default();

    // Per-worker WALs: cell labels for conflict reports. A missing or torn
    // WAL only loses labels, never results — the sidecars are the ground
    // truth.
    let workers_dir = dir.join("workers");
    let mut worker_dirs: Vec<PathBuf> = match std::fs::read_dir(&workers_dir) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    worker_dirs.sort();
    for worker_dir in worker_dirs {
        let Ok(bytes) = std::fs::read(worker_dir.join("wal.bin")) else {
            continue;
        };
        if !bytes.starts_with(MAGIC) {
            continue;
        }
        let (records, _) = scan_frames(&bytes[MAGIC.len()..]);
        for line in records.iter().skip(1) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() >= 5 && parts[0] == "cell" {
                let (Ok(key), Ok(episodes)) =
                    (u64::from_str_radix(parts[1], 16), parts[3].parse::<usize>())
                else {
                    continue;
                };
                scan.labels
                    .entry(key)
                    .or_insert_with(|| (parts[4..].join(" "), episodes));
            }
        }
        if let Some(name) = worker_dir.file_name() {
            scan.workers.push(name.to_string_lossy().into_owned());
        }
    }

    let cells_dir = dir.join("cells");
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(&cells_dir) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(e) => return Err(format!("cannot read {}: {e}", cells_dir.display())),
    };
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        // `save_to_file` temporaries and stray files are not sidecars.
        let Some(stem) = name
            .strip_prefix("cell-")
            .and_then(|s| s.strip_suffix(".ckpt"))
        else {
            continue;
        };
        let Some((key_hex, owner)) = stem.split_once('-') else {
            continue;
        };
        let Ok(key) = u64::from_str_radix(key_hex, 16) else {
            continue;
        };
        // Every sidecar must verify: its own checkpoint checksum first,
        // then a well-formed record encoding. An atomic-rename publish
        // never leaves partials, so failures here mean real corruption.
        let text = drive_nn::checkpoint::load_from_file(&path)
            .map_err(|e| format!("sidecar {} fails verification: {e}", path.display()))?;
        let records = decode_records(&text)
            .map_err(|e| format!("sidecar {} does not decode: {e}", path.display()))?;
        // The digest the publisher journals: the hash of the sidecar's
        // text, which `records v2` makes a function of the records' bits.
        let digest = fnv1a_64(text.as_bytes());
        scan.cells.entry(key).or_default().push(Sidecar {
            owner: owner.to_string(),
            file: name,
            digest,
            records,
        });
    }
    if scan.cells.is_empty() {
        return Err(format!("no published sidecars in {}", cells_dir.display()));
    }
    Ok(scan)
}

/// Conflict report: for every key whose sidecars disagree on the record
/// digest, one line naming each owner and digest.
fn find_conflicts(scan: &ShardScan) -> Vec<String> {
    let mut out = Vec::new();
    for (key, sidecars) in &scan.cells {
        let first = sidecars[0].digest;
        if sidecars.iter().any(|s| s.digest != first) {
            let detail: Vec<String> = sidecars
                .iter()
                .map(|s| format!("{} (owner {}, digest {:016x})", s.file, s.owner, s.digest))
                .collect();
            let label = scan
                .labels
                .get(key)
                .map(|(label, _)| label.as_str())
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
    use drive_sim::record::encode_records;

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
        let got = worker.run_cell(key, &format!("cell-{key}"), n, move || (recs, true));
        assert_eq!(got.len(), n);
    }

    #[test]
    fn scan_collects_labels_and_verified_sidecars() {
        let dir = temp("repro-merge-scan");
        publish(&dir, "w1", 1, &records(1));
        publish(&dir, "w2", 2, &records(2));
        // A stalled w2 that finished cell 1 after w1's thief did would
        // publish an identical sidecar: benign duplicate. (Through
        // `run_cell` it would just load w1's result, so write the
        // sidecar directly, as the slow worker's publish path does.)
        drive_nn::checkpoint::save_to_file(
            dir.join("cells")
                .join(format!("cell-{:016x}-w2.ckpt", 1u64)),
            &encode_records(&records(1)),
        )
        .unwrap();

        let scan = scan_shard(&dir).unwrap();
        assert_eq!(scan.cells.len(), 2);
        assert_eq!(scan.cells[&1].len(), 2, "duplicate kept for audit");
        assert_eq!(scan.cells[&1][0].digest, scan.cells[&1][1].digest);
        assert_eq!(scan.workers, ["w1", "w2"]);
        assert_eq!(scan.labels[&1].0, "cell-1");
        assert!(find_conflicts(&scan).is_empty());
    }

    #[test]
    fn conflicting_sidecars_name_both_owners() {
        let dir = temp("repro-merge-conflict");
        publish(&dir, "w1", 5, &records(1));
        // An injected sidecar with different records for the same key —
        // exactly what a nondeterminism bug (or tampering) would produce.
        let evil = encode_records(&records(9));
        drive_nn::checkpoint::save_to_file(
            dir.join("cells")
                .join(format!("cell-{:016x}-evil.ckpt", 5u64)),
            &evil,
        )
        .unwrap();

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
    }

    #[test]
    fn corrupt_sidecar_fails_the_scan() {
        let dir = temp("repro-merge-corrupt");
        publish(&dir, "w1", 3, &records(1));
        let path = dir
            .join("cells")
            .join(format!("cell-{:016x}-w1.ckpt", 3u64));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&path, bytes).unwrap();
        let err = scan_shard(&dir).unwrap_err();
        assert!(err.contains("fails verification"), "{err}");
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
