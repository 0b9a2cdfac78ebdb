//! Crash-safe run directory: every journaled run, single-process or
//! sharded, is a set of workers sharing one directory.
//!
//! A `repro_bench` run with a CSV or SVG directory joins `<dir>/journal/`
//! as the one worker [`SOLO_WORKER`], and `--resume <dir>` rejoins as that
//! same worker. Any number of `repro_bench shard <dir>` processes join
//! one directory under distinct worker ids ([`crate::shard`]), and
//! `repro_bench merge` ([`crate::merge`]) assembles their results. All of
//! them share one layout:
//!
//! * `shard.header` — the immutable run header ([`ShardHeader`]: seed,
//!   config hash, scale, experiment selection), written once via atomic
//!   rename. Every worker verifies it before touching anything else, so
//!   two differently configured runs can never interleave in one
//!   directory.
//! * `leases/cell-<key>.lease` — one claim per in-flight cell, taken by
//!   atomically and exclusively creating the file (a hard link that fails
//!   if the lease exists). The body carries the owner id and an FNV
//!   checksum; the file mtime is the owner's heartbeat, renewed by the
//!   worker's background thread while the worker runs.
//! * `cells/cell-<key>-<owner>.ckpt` — completed, checksummed episode
//!   sidecars (`records v2` text, every float as its bit pattern in hex,
//!   then a `checksum` line), owner-tagged so the merge can attribute
//!   (and cross-check) every result.
//! * `workers/<owner>/wal.bin` — the worker's write-ahead log of completed
//!   cells and experiments (format below); `workers/<owner>/progress.csv`
//!   — its flush-per-row event log for humans watching a long run.
//!
//! Every grid cell goes through [`JournalHandle::run_cell`]: load a
//! published sidecar if any worker already finished the cell, otherwise
//! claim its lease and compute and publish it, otherwise wait for the
//! current owner. Because every cell is a pure function of its seed
//! namespace, a resumed or sharded run produces byte-identical outputs to
//! an uninterrupted one.
//!
//! ## Crash safety and work stealing
//!
//! Sidecars are written via atomic rename, so there are no partials on
//! disk, and a WAL record is appended only after its sidecar is durable
//! (see *Publishing*).
//! On (re)joining, the worker's WAL is scanned and a torn or corrupt tail
//! (the record being appended when the process was killed) is truncated
//! away. A worker that reaches a cell someone else holds waits on a
//! seeded, jittered backoff ([`RetryPolicy::lease_contention`]); once the
//! lease's heartbeat is older than the TTL, the waiter *steals* it: the
//! lease is atomically renamed to a per-taker tombstone (of two racing
//! takers, one `rename` wins), removed, and re-claimed exclusively. A
//! lease that carries this worker's own id but is not held by this
//! process belongs to a dead incarnation of the worker, and is reclaimed
//! at once. A SIGKILL therefore costs latency, never correctness. If a
//! slow owner was merely stalled and publishes too, both sidecars carry
//! the same checksum (cells are deterministic); differing checksums are a
//! hard merge error naming both owners.
//!
//! ## Publishing
//!
//! A compute thread never waits on the disk for a clean cell: `run_cell`
//! encodes the records, writes them (with their one FNV hash as the
//! `checksum` line) to the sidecar's temporary without syncing, queues
//! the cell for the worker's one background thread (the same thread that
//! renews the leases) and returns the records at once. The cell's lease
//! stays held until the cell is durable. The thread group-commits
//! whatever is queued, in this order:
//!
//! 1. each sidecar temporary `fdatasync`ed;
//! 2. every temporary renamed into place, then one `cells/` fsync;
//! 3. one WAL write carrying every record's frame (the sidecar's hash is
//!    the record's digest), then one `fdatasync`;
//! 4. the progress rows, then the lease releases.
//!
//! So "sidecar durable → WAL record → lease released" holds per cell,
//! and a batch of *n* cells costs *n* + 2 syncs instead of 3*n*. Renewals
//! run between sidecar writes, so a large batch never outlasts a
//! heartbeat period. At most `MAX_QUEUED` (32) cells wait; a compute thread
//! that finds the queue full waits for room. The queue holds file handles,
//! not record text, so publishing off the compute threads costs no memory.
//! A key requested again while it is queued or being committed waits for
//! that publish in process and then loads, never recomputes.
//!
//! Everything that reports or builds on the journal's contents first
//! waits for the queue to drain (a *flush*): [`JournalHandle::record_experiment`]
//! (an `exp` record never precedes its cells), [`JournalHandle::cell_count`],
//! [`JournalHandle::summary`], [`JournalHandle::release_all`] (the
//! shard's end-of-run and SIGTERM drain), `run_cell`'s graceful-shutdown
//! safe point, and dropping the handle, which publishes what is still
//! queued before it stops the thread. [`JournalHandle::store_cell`]
//! publishes one cell synchronously through the same commit.
//!
//! ## WAL format
//!
//! The file starts with the magic bytes [`MAGIC`]. Each record is framed as
//! `[u32 le payload length][u64 le FNV-1a of payload][payload]`; payloads
//! are single-line UTF-8:
//!
//! * `run <seed:016x> <config:016x> <box> <scatter>` — the run header
//!   (always the first record).
//! * `cell <key:016x> <digest:016x> <episodes> <label>` — one published
//!   cell; `digest` is the FNV-1a of the sidecar's record text, the value
//!   its `checksum` line records.
//! * `exp <manifest_fnv:016x> <name>` — one completed experiment.

use drive_core::retry::RetryPolicy;
use drive_core::shutdown;
use drive_metrics::export::CsvSink;
use drive_nn::checkpoint::Staged;
use drive_seed::fnv1a_64;
use drive_sim::record::{decode_records, encode_records, EpisodeRecord};
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Magic bytes at the start of every WAL file.
pub const MAGIC: &[u8] = b"RBJRNL1\n";

/// Bytes of frame overhead per record (length prefix + checksum).
const FRAME_HEADER: usize = 4 + 8;

/// Default lease TTL: a heartbeat older than this is stealable.
pub const DEFAULT_TTL: Duration = Duration::from_secs(30);

/// The worker id a single-process run joins its run directory under.
pub const SOLO_WORKER: &str = "solo";

/// First line of the shared `shard.header` file.
const HEADER_MAGIC: &str = "shard-v1";

/// Errors from joining a run directory or appending to a worker's WAL.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem failure.
    Io(std::io::Error),
    /// The run directory belongs to a run with different parameters
    /// (seed, scale, pipeline configuration or experiment selection).
    Incompatible(String),
    /// The run directory is structurally broken beyond tail truncation
    /// (bad magic, missing or malformed header).
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Incompatible(msg) => write!(f, "journal incompatible: {msg}"),
            JournalError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The parameters a run directory is pinned to: joining with a different
/// header is refused rather than silently mixing two runs' results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHeader {
    /// Root evaluation seed ([`Scale::seed`](crate::harness::Scale)).
    pub seed: u64,
    /// FNV-1a hash of the pipeline configuration's debug rendering (the
    /// same hash the manifests record).
    pub config_hash: u64,
    /// Episodes per box cell.
    pub box_episodes: usize,
    /// Rounds per scatter budget.
    pub scatter_rounds: usize,
}

impl RunHeader {
    /// The header for a run over `config` at `scale` — the same
    /// `config_hash` formula the manifests use, so one hash identifies the
    /// run everywhere.
    pub fn for_run(
        config: &attack_core::pipeline::PipelineConfig,
        scale: crate::harness::Scale,
    ) -> RunHeader {
        RunHeader {
            seed: scale.seed,
            config_hash: fnv1a_64(format!("{config:?}").as_bytes()),
            box_episodes: scale.box_episodes,
            scatter_rounds: scale.scatter_rounds,
        }
    }

    /// Renders the header as its single-line WAL record (also the run line
    /// of `shard.header`).
    pub fn encode(&self) -> String {
        format!(
            "run {:016x} {:016x} {} {}",
            self.seed, self.config_hash, self.box_episodes, self.scatter_rounds
        )
    }

    /// Parses a header line produced by [`RunHeader::encode`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] for anything that is not a well-formed
    /// `run ...` record.
    pub fn decode(line: &str) -> Result<RunHeader, JournalError> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 5 || parts[0] != "run" {
            return Err(JournalError::Corrupt(format!(
                "bad run header record '{line}'"
            )));
        }
        let bad = |what: &str| JournalError::Corrupt(format!("bad {what} in run header '{line}'"));
        Ok(RunHeader {
            seed: u64::from_str_radix(parts[1], 16).map_err(|_| bad("seed"))?,
            config_hash: u64::from_str_radix(parts[2], 16).map_err(|_| bad("config hash"))?,
            box_episodes: parts[3].parse().map_err(|_| bad("box episodes"))?,
            scatter_rounds: parts[4].parse().map_err(|_| bad("scatter rounds"))?,
        })
    }
}

/// The immutable header of a run directory: the [`RunHeader`] plus the
/// experiment selection, so every worker provably runs the same grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHeader {
    /// Seed / config-hash / scale pinning.
    pub run: RunHeader,
    /// Registry names of the experiments in the run, in order (empty when
    /// the run was opened without a selection).
    pub selection: Vec<String>,
}

impl ShardHeader {
    fn encode(&self) -> String {
        let mut body = format!("{HEADER_MAGIC}\n{}\nsel", self.run.encode());
        for name in &self.selection {
            body.push(' ');
            body.push_str(name);
        }
        body.push('\n');
        let sum = fnv1a_64(body.as_bytes());
        format!("{body}sum {sum:016x}\n")
    }

    fn decode(text: &str) -> Result<ShardHeader, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER_MAGIC) {
            return Err(format!("not a {HEADER_MAGIC} header"));
        }
        let run_line = lines.next().ok_or("missing run line")?;
        let run = RunHeader::decode(run_line).map_err(|e| e.to_string())?;
        let sel_line = lines.next().ok_or("missing sel line")?;
        let selection: Vec<String> = sel_line
            .strip_prefix("sel")
            .ok_or("missing sel line")?
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let sum_line = lines.next().ok_or("missing sum line")?;
        let recorded = sum_line
            .strip_prefix("sum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("bad sum line")?;
        let body_len = text.rfind("sum ").ok_or("bad sum line")?;
        if fnv1a_64(&text.as_bytes()[..body_len]) != recorded {
            return Err("header checksum mismatch".to_string());
        }
        Ok(ShardHeader { run, selection })
    }

    /// Publishes this header at `<dir>/shard.header` (atomic rename), or
    /// verifies the one already there. The first worker to arrive writes
    /// it; every later worker — and the merge — must match it exactly.
    ///
    /// # Errors
    ///
    /// [`JournalError::Incompatible`] when the directory already belongs to
    /// a differently configured run, [`JournalError::Corrupt`] for an
    /// unreadable header, [`JournalError::Io`] on I/O failure.
    pub fn write_or_verify(&self, dir: &Path) -> Result<(), JournalError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = dir.join("shard.header");
        if !path.exists() {
            std::fs::create_dir_all(dir)?;
            // Unique per writer: racing first writers (processes or threads)
            // never share a temporary.
            let tmp = dir.join(format!(
                "shard.header.tmp-{}-{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&tmp, self.encode())?;
            std::fs::rename(&tmp, &path)?;
        }
        // Read back what actually landed: under a racing first write the
        // rename winner is arbitrary, but all correctly configured workers
        // write identical bytes, so any mismatch is a real conflict.
        let on_disk = ShardHeader::load(dir)?;
        if &on_disk != self {
            return Err(JournalError::Incompatible(format!(
                "{} belongs to a different run (on disk: seed {:016x}, config {:016x}, \
                 scale {}x{}, sel [{}]; this run: seed {:016x}, config {:016x}, \
                 scale {}x{}, sel [{}])",
                path.display(),
                on_disk.run.seed,
                on_disk.run.config_hash,
                on_disk.run.box_episodes,
                on_disk.run.scatter_rounds,
                on_disk.selection.join(" "),
                self.run.seed,
                self.run.config_hash,
                self.run.box_episodes,
                self.run.scatter_rounds,
                self.selection.join(" "),
            )));
        }
        Ok(())
    }

    /// Loads and verifies the header of an existing run directory.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the header is absent or unreadable,
    /// [`JournalError::Corrupt`] when it fails to decode or verify.
    pub fn load(dir: &Path) -> Result<ShardHeader, JournalError> {
        let path = dir.join("shard.header");
        let text = std::fs::read_to_string(&path).map_err(|e| {
            JournalError::Io(std::io::Error::new(
                e.kind(),
                format!("cannot read {}: {e}", path.display()),
            ))
        })?;
        ShardHeader::decode(&text)
            .map_err(|e| JournalError::Corrupt(format!("{}: {e}", path.display())))
    }
}

/// Frames one payload for the WAL: length prefix, FNV-1a checksum, bytes.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a_64(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Scans a WAL body (everything after [`MAGIC`]) and returns the decoded
/// payloads of every intact frame plus the byte length of that valid
/// prefix. Scanning stops — without failing — at the first torn frame
/// (incomplete length/checksum/payload), checksum mismatch, or non-UTF-8
/// payload: exactly the states an append interrupted by SIGKILL can leave.
pub fn scan_frames(body: &[u8]) -> (Vec<String>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while body.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(body[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= body.len()) else {
            break; // torn: payload shorter than the length prefix claims
        };
        let payload = &body[start..end];
        if fnv1a_64(payload) != sum {
            break; // torn or corrupted mid-append
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        records.push(text.to_string());
        pos = end;
    }
    (records, pos)
}

/// Whether `owner` is safe to embed in file names.
pub fn valid_owner(owner: &str) -> bool {
    !owner.is_empty()
        && owner.len() <= 64
        && owner
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// One worker's lease table: the `leases/` directory and the claims this
/// process holds in it. Every claim, renewal and release happens under the
/// `held` lock, so "this worker's id but not in `held`" reliably means a
/// dead incarnation's lease.
struct Leases {
    dir: PathBuf,
    owner: String,
    held: Mutex<HashSet<u64>>,
}

impl Leases {
    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("cell-{key:016x}.lease"))
    }

    /// The owner id recorded in a lease file (`None` when it is gone or
    /// unreadable).
    fn owner_of(path: &Path) -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .next()?
            .split_whitespace()
            .nth(2)
            .map(str::to_string)
    }

    fn is_ours(&self, key: u64) -> bool {
        Self::owner_of(&self.path(key)).as_deref() == Some(self.owner.as_str())
    }

    /// Atomically creates `key`'s lease; `false` when it exists. The body is
    /// written to this worker's private claim file and hard-linked into
    /// place: `link(2)` fails if the lease exists (the exclusive arbiter),
    /// and a lease never appears without its owner id, even when the
    /// claimant is killed mid-claim — so a restarted worker always
    /// recognises its own dead leases. A lease is not synced to disk: it
    /// only coordinates live processes, and after a host crash every lease
    /// is abandoned anyway.
    fn create(&self, key: u64) -> bool {
        let body = format!("lease {key:016x} {}\n", self.owner);
        let sum = fnv1a_64(body.as_bytes());
        let claim = self
            .dir
            .join(format!("cell-{key:016x}.claim-{}", self.owner));
        let linked = std::fs::write(&claim, format!("{body}sum {sum:016x}\n"))
            .and_then(|()| std::fs::hard_link(&claim, self.path(key)));
        let _ = std::fs::remove_file(&claim);
        match linked {
            Ok(()) => true,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::AlreadyExists {
                    eprintln!(
                        "warning: worker {} lease create failed for {key:016x}: {e}",
                        self.owner
                    );
                }
                false
            }
        }
    }

    /// One heartbeat pass: bump the mtime of every held lease. A lease
    /// stolen out from under us belongs to the thief now: stop renewing
    /// it, and never unlink it.
    fn renew(&self) {
        self.held.lock().expect("held lock").retain(|&key| {
            let ours = self.is_ours(key);
            if ours {
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(self.path(key)) {
                    let _ = file.set_modified(std::time::SystemTime::now());
                }
            }
            ours
        });
    }

    /// Releases `key` if this worker still owns it (a thief may have
    /// taken a stalled lease; unlinking someone else's claim would let a
    /// third worker double-acquire).
    fn release(&self, key: u64) {
        let mut held = self.held.lock().expect("held lock");
        held.remove(&key);
        if self.is_ours(key) {
            let _ = std::fs::remove_file(self.path(key));
        }
    }
}

const PROGRESS_HEADERS: [&str; 4] = ["event", "cell", "episodes", "detail"];

/// A worker's index recovered from its WAL, and its progress log.
struct WorkerLog {
    cells: HashSet<u64>,
    experiments: HashSet<String>,
    progress: CsvSink,
    counts: BTreeMap<&'static str, u64>,
}

impl WorkerLog {
    /// Opens the WAL in `worker_dir` (creating it if absent), recovers its
    /// records, truncates a torn tail, and rebuilds `progress.csv` from
    /// the recovered records. Returns the WAL, positioned for appends, and
    /// the log.
    fn open(
        worker_dir: &Path,
        header: &RunHeader,
    ) -> Result<(std::fs::File, WorkerLog), JournalError> {
        let path = worker_dir.join("wal.bin");
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Written whole and renamed into place, so a WAL on disk
                // always carries its header record.
                let mut fresh = MAGIC.to_vec();
                fresh.extend_from_slice(&encode_frame(&header.encode()));
                let tmp = worker_dir.join("wal.bin.tmp");
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(&fresh)?;
                file.sync_data()?;
                std::fs::rename(&tmp, &path)?;
                std::fs::File::open(worker_dir)?.sync_all()?;
                fresh
            }
            Err(e) => return Err(e.into()),
        };
        if !bytes.starts_with(MAGIC) {
            return Err(JournalError::Corrupt(format!(
                "{} does not start with the journal magic",
                path.display()
            )));
        }
        let (records, valid_len) = scan_frames(&bytes[MAGIC.len()..]);
        let Some(header_line) = records.first() else {
            return Err(JournalError::Corrupt(format!(
                "{} has no run header record",
                path.display()
            )));
        };
        if RunHeader::decode(header_line)? != *header {
            return Err(JournalError::Incompatible(format!(
                "{} was written by a different run",
                path.display()
            )));
        }
        // The WAL is the source of truth; `progress.csv` is a flush-per-row
        // human log. A kill can leave the two out of step — a torn final
        // CSV row, or a journaled cell whose row never flushed — so the
        // log restarts from the recovered WAL records rather than
        // appending after whatever tail the kill left behind.
        let mut progress = CsvSink::create(worker_dir.join("progress.csv"), PROGRESS_HEADERS)?;
        let mut cells = HashSet::new();
        let mut experiments = HashSet::new();
        for line in &records[1..] {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.first() {
                Some(&"cell") if parts.len() >= 4 => {
                    let Ok(key) = u64::from_str_radix(parts[1], 16) else {
                        continue; // checksummed but unparseable: skip
                    };
                    cells.insert(key);
                    let label = parts[4..].join(" ");
                    let _ = progress.row(["cell", &label, parts[3], parts[2]]);
                }
                Some(&"exp") if parts.len() >= 3 => {
                    let name = parts[2..].join(" ");
                    let _ = progress.row(["experiment", &name, "-", parts[1]]);
                    experiments.insert(name);
                }
                _ => {} // unknown record kind: forward compatibility
            }
        }
        // Truncate the torn tail so appends start on a frame boundary.
        let keep = MAGIC.len() + valid_len;
        if keep < bytes.len() {
            eprintln!(
                "[resume] truncating {} torn byte(s) from {}",
                bytes.len() - keep,
                path.display()
            );
        }
        let wal = std::fs::OpenOptions::new().append(true).open(&path)?;
        wal.set_len(keep as u64)?;
        let log = WorkerLog {
            cells,
            experiments,
            progress,
            counts: BTreeMap::new(),
        };
        Ok((wal, log))
    }

    /// One progress row, counted. A lost row costs observability, never
    /// correctness, so write failures are ignored.
    fn row(&mut self, event: &'static str, cell: &str, episodes: &str, detail: &str) {
        *self.counts.entry(event).or_insert(0) += 1;
        let _ = self.progress.row([event, cell, episodes, detail]);
    }
}

/// Appends `payloads` to the WAL as one write of all their frames, then
/// one `fdatasync`.
fn append_frames<'a>(
    wal: &Mutex<std::fs::File>,
    payloads: impl IntoIterator<Item = &'a str>,
) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    for payload in payloads {
        bytes.extend_from_slice(&encode_frame(payload));
    }
    let mut wal = wal.lock().expect("wal lock");
    wal.write_all(&bytes)?;
    wal.sync_data()
}

/// Most cells one worker queues for publication before
/// [`JournalHandle::run_cell`] waits for the publisher. A queued cell is
/// its written, unsynced sidecar temporary and that file's open handle,
/// so the bound limits open files and unsynced data, not memory.
const MAX_QUEUED: usize = 32;

/// One completed cell on its way to disk: its sidecar is written to the
/// temporary, not yet synced or renamed into place.
struct Publication {
    key: u64,
    label: String,
    episodes: usize,
    sidecar: Staged,
    /// Whether this worker holds the cell's lease, to be released once the
    /// cell is durable.
    release: bool,
}

/// The cells handed from the compute threads to the publisher.
#[derive(Default)]
struct Outbox {
    /// Waiting for the publisher, oldest first.
    queued: Vec<Publication>,
    /// Keys of the batch the publisher is committing.
    publishing: Vec<u64>,
    /// Set when the handle drops: publish what is queued, then exit.
    stop: bool,
    /// Holds queued cells back until unset or `stop`; only tests set it,
    /// to observe cells pending.
    paused: bool,
}

impl Outbox {
    /// Whether `key` is queued or being committed.
    fn pending(&self, key: u64) -> bool {
        self.publishing.contains(&key) || self.queued.iter().any(|p| p.key == key)
    }

    fn idle(&self) -> bool {
        self.queued.is_empty() && self.publishing.is_empty()
    }

    /// Whether the publisher should take the queue now.
    fn ready(&self) -> bool {
        !self.queued.is_empty() && (!self.paused || self.stop)
    }
}

/// The state a [`JournalHandle`] shares with its background thread.
struct Shared {
    dir: PathBuf,
    leases: Leases,
    /// The WAL, positioned at its end. Appends serialize here, so an
    /// `fdatasync` never holds up the progress log.
    wal: Mutex<std::fs::File>,
    log: Mutex<WorkerLog>,
    outbox: Mutex<Outbox>,
    /// Signalled on every change to `outbox`.
    changed: Condvar,
}

impl Shared {
    fn sidecar_path(&self, key: u64, owner: &str) -> PathBuf {
        self.dir
            .join("cells")
            .join(format!("cell-{key:016x}-{owner}.ckpt"))
    }

    /// Publishes `batch` as one group commit, then releases the leases it
    /// carries (published or not: a failed publish costs a recomputation,
    /// never correctness). `between_writes` runs after each sidecar sync.
    fn publish(
        &self,
        batch: &[Publication],
        between_writes: &mut dyn FnMut(),
    ) -> std::io::Result<()> {
        let committed = self.commit(batch, between_writes);
        for p in batch.iter().filter(|p| p.release) {
            self.leases.release(p.key);
        }
        committed
    }

    /// Makes `batch` durable in crash-safe order: each sidecar temporary
    /// synced, all renamed into place, one `cells/` fsync; then one WAL
    /// append carrying every record; then the progress rows. A crash
    /// anywhere leaves each cell either journaled with its sidecar on
    /// disk, or not journaled at all.
    fn commit(
        &self,
        batch: &[Publication],
        between_writes: &mut dyn FnMut(),
    ) -> std::io::Result<()> {
        let mut sidecars = || -> std::io::Result<()> {
            for p in batch {
                p.sidecar.file.sync_data()?;
                between_writes();
            }
            for p in batch {
                let path = self.sidecar_path(p.key, &self.leases.owner);
                std::fs::rename(&p.sidecar.path, path)?;
            }
            drive_nn::checkpoint::sync_dir(self.dir.join("cells"))
        };
        if let Err(e) = sidecars() {
            for p in batch {
                let _ = std::fs::remove_file(&p.sidecar.path);
            }
            return Err(e);
        }
        let records: Vec<String> = batch
            .iter()
            .map(|p| {
                format!(
                    "cell {:016x} {:016x} {} {}",
                    p.key, p.sidecar.checksum, p.episodes, p.label
                )
            })
            .collect();
        append_frames(&self.wal, records.iter().map(String::as_str))?;
        let mut log = self.log.lock().expect("journal lock");
        for p in batch {
            log.cells.insert(p.key);
            let digest = format!("{:016x}", p.sidecar.checksum);
            log.row("cell", &p.label, &p.episodes.to_string(), &digest);
        }
        Ok(())
    }

    /// Blocks until the publisher has a batch for this worker (`Some`, empty
    /// when only a lease renewal is due at `renew_at`), or has been stopped
    /// with nothing left to publish (`None`).
    fn next_batch(&self, renew_at: Instant) -> Option<Vec<Publication>> {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        loop {
            if outbox.ready() {
                let batch = std::mem::take(&mut outbox.queued);
                outbox.publishing = batch.iter().map(|p| p.key).collect();
                self.changed.notify_all(); // the queue has room again
                return Some(batch);
            }
            if outbox.stop {
                return None;
            }
            let now = Instant::now();
            if now >= renew_at {
                return Some(Vec::new());
            }
            outbox = self
                .changed
                .wait_timeout(outbox, renew_at - now)
                .expect("outbox lock")
                .0;
        }
    }

    /// The background thread's loop: renews the held leases every `period`
    /// and group-commits whatever the compute threads queued, renewing
    /// between sidecar writes so a large batch never starves the
    /// heartbeat.
    fn run_publisher(&self, period: Duration) {
        let renew_at = std::cell::Cell::new(Instant::now() + period);
        let mut renew_if_due = || {
            if Instant::now() >= renew_at.get() {
                self.leases.renew();
                renew_at.set(Instant::now() + period);
            }
        };
        while let Some(batch) = self.next_batch(renew_at.get()) {
            renew_if_due();
            if batch.is_empty() {
                continue;
            }
            if let Err(e) = self.publish(&batch, &mut renew_if_due) {
                let labels: Vec<&str> = batch.iter().map(|p| p.label.as_str()).collect();
                eprintln!(
                    "warning: worker {} could not publish cell(s) {}: {e}",
                    self.leases.owner,
                    labels.join(", ")
                );
            }
            let mut outbox = self.outbox.lock().expect("outbox lock");
            outbox.publishing.clear();
            self.changed.notify_all();
        }
    }
}

/// One worker's membership in a run directory (see the module docs):
/// its WAL and progress log, its leases, the background thread that
/// renews them and publishes cells, and the load → claim → compute →
/// publish → release path every journaled cell takes. Shared via `Arc` in
/// the [`RunContext`](crate::engine::RunContext); all state sits behind
/// internal locks, so cells can run on worker threads.
pub struct JournalHandle {
    ttl: Duration,
    backoff: RetryPolicy,
    /// Seed of this worker's contention-backoff jitter stream (derived
    /// from the run's `SeedTree`, so waits are deterministic per worker
    /// yet decorrelated across workers).
    backoff_seed: u64,
    opportunistic: AtomicBool,
    shared: Arc<Shared>,
    /// The background thread: renews the held leases and publishes
    /// completed cells ([`Shared::run_publisher`]).
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl Drop for JournalHandle {
    /// Publishes whatever is still queued, then stops and joins the
    /// background thread.
    fn drop(&mut self) {
        self.outbox().stop = true;
        self.shared.changed.notify_all();
        if let Some(thread) = self.publisher.take() {
            let _ = thread.join();
        }
    }
}

/// A held lease, released on drop (so an unwinding cell — panic or
/// graceful shutdown — frees its claim immediately).
struct LeaseGuard<'a> {
    journal: &'a JournalHandle,
    key: u64,
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        self.journal.release(self.key);
    }
}

impl JournalHandle {
    /// Joins the run directory `dir` as worker `worker`: publishes or
    /// verifies `header`, re-opens the worker's WAL (torn tail truncated)
    /// and starts the background thread.
    ///
    /// # Errors
    ///
    /// [`JournalError::Incompatible`] when the directory belongs to a
    /// different run, [`JournalError::Corrupt`] for a bad header or WAL
    /// magic, [`JournalError::Io`] for filesystem failures and invalid
    /// worker ids.
    pub fn join(
        dir: impl Into<PathBuf>,
        header: &ShardHeader,
        worker: &str,
        ttl: Duration,
    ) -> Result<Self, JournalError> {
        if !valid_owner(worker) {
            return Err(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid worker id '{worker}' (use [A-Za-z0-9._-], max 64 chars)"),
            )));
        }
        let dir = dir.into();
        header.write_or_verify(&dir)?;
        std::fs::create_dir_all(dir.join("leases"))?;
        std::fs::create_dir_all(dir.join("cells"))?;
        let worker_dir = dir.join("workers").join(worker);
        std::fs::create_dir_all(&worker_dir)?;
        let (wal, log) = WorkerLog::open(&worker_dir, &header.run)?;
        let shared = Arc::new(Shared {
            leases: Leases {
                dir: dir.join("leases"),
                owner: worker.to_string(),
                held: Mutex::new(HashSet::new()),
            },
            wal: Mutex::new(wal),
            log: Mutex::new(log),
            outbox: Mutex::new(Outbox::default()),
            changed: Condvar::new(),
            dir,
        });
        Ok(JournalHandle {
            ttl,
            backoff: RetryPolicy::lease_contention(),
            backoff_seed: drive_seed::SeedTree::root(header.run.seed)
                .child("shard")
                .child(worker)
                .seed(),
            opportunistic: AtomicBool::new(false),
            publisher: Some({
                let shared = Arc::clone(&shared);
                // A tenth of the TTL, floored at 50 ms, so several
                // renewals fit inside any steal window.
                let period = (ttl / 10).max(Duration::from_millis(50));
                std::thread::spawn(move || shared.run_publisher(period))
            }),
            shared,
        })
    }

    /// Starts a fresh single-process run directory in `<dir>`, discarding
    /// any previous one.
    ///
    /// # Errors
    ///
    /// See [`JournalHandle::join`].
    pub fn create(dir: impl Into<PathBuf>, header: RunHeader) -> Result<Self, JournalError> {
        let dir = dir.into();
        let _ = std::fs::remove_dir_all(&dir);
        Self::resume(dir, header)
    }

    /// Rejoins a single-process run directory as [`SOLO_WORKER`] (a fresh
    /// one when `<dir>` is empty or absent), truncating any torn WAL tail.
    ///
    /// # Errors
    ///
    /// See [`JournalHandle::join`].
    pub fn resume(dir: impl Into<PathBuf>, header: RunHeader) -> Result<Self, JournalError> {
        let header = ShardHeader {
            run: header,
            selection: Vec::new(),
        };
        Self::join(dir, &header, SOLO_WORKER, DEFAULT_TTL)
    }

    /// This worker's id.
    fn owner(&self) -> &str {
        &self.shared.leases.owner
    }

    fn log(&self) -> std::sync::MutexGuard<'_, WorkerLog> {
        self.shared.log.lock().expect("journal lock")
    }

    fn outbox(&self) -> std::sync::MutexGuard<'_, Outbox> {
        self.shared.outbox.lock().expect("outbox lock")
    }

    /// Blocks until every cell handed to the publisher is durable and its
    /// lease released: the barrier before anything that reports or builds
    /// on the journal's contents.
    fn flush(&self) {
        let mut outbox = self.outbox();
        while !outbox.idle() {
            outbox = self.shared.changed.wait(outbox).expect("outbox lock");
        }
    }

    /// Number of cells in this worker's WAL, once every pending cell is
    /// published (test/observability hook).
    pub fn cell_count(&self) -> usize {
        self.flush();
        self.log().cells.len()
    }

    /// Whether `name` completed (manifest written) in this worker's WAL.
    pub fn experiment_done(&self, name: &str) -> bool {
        self.log().experiments.contains(name)
    }

    /// Journals a completed experiment (its manifest checksum and name),
    /// after every pending cell is published: an `exp` record never
    /// precedes its cells' records.
    ///
    /// # Errors
    ///
    /// Propagates WAL append failures; the caller warns and continues (a
    /// failed journal append costs recomputation on resume, not
    /// correctness).
    pub fn record_experiment(&self, name: &str, manifest_fnv: u64) -> std::io::Result<()> {
        self.flush();
        let fnv = format!("{manifest_fnv:016x}");
        append_frames(&self.shared.wal, [format!("exp {fnv} {name}").as_str()])?;
        let mut log = self.log();
        log.experiments.insert(name.to_string());
        log.row("experiment", name, "-", &fnv);
        Ok(())
    }

    /// Switches between the two sweep modes. Every worker traverses the
    /// grid in the same order, so a worker that *waited* on every busy
    /// cell would stay in lockstep behind whoever claimed the first cell
    /// — N processes, single-process wall clock. Instead a `shard` worker
    /// runs each experiment twice: an **opportunistic** pass (busy cells
    /// are skipped with placeholder records, so workers divide the grid
    /// ~evenly and compute in parallel; the pass's aggregate output is
    /// discarded), then a **completing** pass in which every cell loads
    /// from a published sidecar, is computed under a fresh claim, or is
    /// block-waited on (steals included) until its owner publishes. A
    /// single-process run is only the completing pass.
    pub fn set_opportunistic(&self, on: bool) {
        self.opportunistic.store(on, Ordering::SeqCst);
    }

    /// The `event=count` summary of this process's progress events, in
    /// alphabetical order, once every pending cell is published.
    pub fn summary(&self) -> String {
        self.flush();
        let log = self.log();
        let parts: Vec<String> = log.counts.iter().map(|(e, n)| format!("{e}={n}")).collect();
        parts.join(" ")
    }

    /// Count of one progress event kind, once every pending cell is
    /// published.
    #[cfg(test)]
    fn event_count(&self, event: &str) -> u64 {
        self.flush();
        self.log().counts.get(event).copied().unwrap_or(0)
    }

    /// Number of leases currently held, once every pending cell is
    /// published.
    #[cfg(test)]
    fn held_count(&self) -> usize {
        self.flush();
        self.shared.leases.held.lock().expect("held lock").len()
    }

    fn event(&self, event: &'static str, cell: &str, detail: &str) {
        self.log().row(event, cell, "-", detail);
    }

    /// Runs one grid cell under the lease protocol: load a published
    /// sidecar if any worker already finished it, otherwise claim the
    /// cell (stealing an abandoned claim if needed) and compute it,
    /// otherwise wait out the current owner on the jittered backoff — or,
    /// in an opportunistic sweep (see
    /// [`JournalHandle::set_opportunistic`]), return placeholder records
    /// immediately so the worker moves on to unclaimed work. `compute`
    /// returns the records plus a clean flag; only clean, complete cells
    /// publish (a cell with retried-out episodes is partial and must be
    /// recomputed), so placeholders can never leak into a sidecar. A
    /// clean cell is handed to the background thread, which publishes it
    /// and then releases its lease; the records return at once.
    pub fn run_cell(
        &self,
        key: u64,
        label: &str,
        episodes: usize,
        compute: impl FnOnce() -> (Vec<EpisodeRecord>, bool),
    ) -> Vec<EpisodeRecord> {
        let mut attempt = 0usize;
        loop {
            if let Some(records) = self.load_cell(key, episodes) {
                if attempt > 0 {
                    self.event("waited", label, &format!("{attempt} poll(s)"));
                }
                self.reap_lease(key, label);
                self.event("loaded", label, "");
                return records;
            }
            // Graceful-shutdown safe point: between cells (and between
            // polls of a contended cell) nothing is held, and once the
            // publisher drains, every completed cell is published.
            if shutdown::requested() {
                self.flush();
                std::panic::panic_any(shutdown::ShutdownRequested);
            }
            if self.try_acquire(key, label) {
                let guard = LeaseGuard { journal: self, key };
                let (records, clean) = compute();
                if clean && records.len() == episodes {
                    match self.stage(key, &records) {
                        Ok(sidecar) => {
                            // The publisher owns the lease from here and
                            // releases it once the cell is durable.
                            std::mem::forget(guard);
                            self.enqueue(Publication {
                                key,
                                label: label.to_string(),
                                episodes,
                                sidecar,
                                release: true,
                            });
                        }
                        // A failed publish costs a recomputation later,
                        // never correctness.
                        Err(e) => eprintln!(
                            "warning: worker {} could not publish cell {label}: {e}",
                            self.owner()
                        ),
                    }
                } else {
                    eprintln!(
                        "warning: worker {} leaves cell {label} unpublished \
                         ({} of {episodes} episode(s), clean={clean})",
                        self.owner(),
                        records.len()
                    );
                    drop(guard);
                }
                return records;
            }
            // Contended. Opportunistic sweep: skip it — another worker
            // owns it, our aggregate is discarded anyway, and there is
            // unclaimed work further along the grid.
            if self.opportunistic.load(Ordering::SeqCst) {
                self.event("deferred", label, "");
                return vec![EpisodeRecord::default(); episodes];
            }
            // Completing sweep: wait on this worker's deterministic jitter
            // stream, decorrelated per cell so parked workers do not
            // re-poll in lockstep.
            std::thread::sleep(self.pause(attempt, key));
            attempt += 1;
        }
    }

    /// Writes `records`' sidecar text to its temporary, unsynced.
    fn stage(&self, key: u64, records: &[EpisodeRecord]) -> std::io::Result<Staged> {
        let path = self.shared.sidecar_path(key, self.owner());
        drive_nn::checkpoint::stage(&path, &encode_records(records))
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Queues `p` for the publisher, waiting while the queue is full.
    fn enqueue(&self, p: Publication) {
        let mut outbox = self.outbox();
        while outbox.queued.len() >= MAX_QUEUED {
            outbox = self.shared.changed.wait(outbox).expect("outbox lock");
        }
        outbox.queued.push(p);
        self.shared.changed.notify_all();
    }

    /// Blocks while `key` is queued or being committed by this process.
    fn await_published(&self, key: u64) {
        let mut outbox = self.outbox();
        while outbox.pending(key) {
            outbox = self.shared.changed.wait(outbox).expect("outbox lock");
        }
    }

    fn pause(&self, attempt: usize, key: u64) -> Duration {
        self.backoff
            .backoff_for(
                attempt.min(self.backoff.max_attempts),
                self.backoff_seed ^ key,
            )
            .max(Duration::from_millis(1))
    }

    /// Clears the lease of a published cell. An owner killed between
    /// publishing and releasing leaves its lease behind, and nobody would
    /// ever steal it: every later visitor loads the sidecar instead. An
    /// abandoned lease is taken through the tombstone arbiter (see
    /// [`JournalHandle::take_abandoned`]), never unlinked outright. A live
    /// one is left alone in an opportunistic sweep; the completing sweep
    /// waits it out like a busy cell, on the same backoff, until its owner
    /// releases it or its heartbeat stops and it goes stale.
    fn reap_lease(&self, key: u64, label: &str) {
        let leases = &self.shared.leases;
        for attempt in 0.. {
            let taken = {
                let held = leases.held.lock().expect("held lock");
                self.take_abandoned(key, &held)
            };
            if let Some(prev_owner) = taken {
                self.event("reaped", label, &format!("from {prev_owner}"));
                return;
            }
            if self.opportunistic.load(Ordering::SeqCst)
                || shutdown::requested()
                || !leases.path(key).exists()
            {
                return;
            }
            std::thread::sleep(self.pause(attempt, key));
        }
    }

    /// Loads a published sidecar for `key`, whoever computed it, by exact
    /// path: this worker's own first, then each worker's under `workers/`
    /// (re-listed on every call, so workers that joined later count).
    /// The checkpoint checksum is verified, the records decoded, and the
    /// episode count checked; every failure — absent, corrupt, another
    /// record format version, or a different cell shape — degrades to
    /// `None`, i.e. recomputing. A cell this process is still publishing
    /// is waited for, so it loads as soon as its batch lands.
    pub fn load_cell(&self, key: u64, episodes: usize) -> Option<Vec<EpisodeRecord>> {
        self.await_published(key);
        let load = |owner: &str| {
            let path = self.shared.sidecar_path(key, owner);
            let text = drive_nn::checkpoint::load_from_file(path).ok()?;
            decode_records(&text)
                .ok()
                .filter(|records| records.len() == episodes)
        };
        if let Some(records) = load(self.owner()) {
            return Some(records);
        }
        std::fs::read_dir(self.shared.dir.join("workers"))
            .ok()?
            .flatten()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|owner| owner != self.owner())
            .find_map(|owner| load(&owner))
    }

    /// Tries to claim `key`: exclusive create first, then taking an
    /// abandoned lease (through the tombstone arbiter). A cell that
    /// another thread of this process holds is contended, never taken.
    /// Public for the `lease_claim_ns` micro-bench; experiments go through
    /// [`JournalHandle::run_cell`], which drives this internally.
    pub fn try_acquire(&self, key: u64, label: &str) -> bool {
        let leases = &self.shared.leases;
        let mut held = leases.held.lock().expect("held lock");
        if held.contains(&key) {
            return false;
        }
        if !leases.create(key) {
            let Some(prev_owner) = self.take_abandoned(key, &held) else {
                return false;
            };
            let event = if prev_owner == self.owner() {
                "reclaimed"
            } else {
                "stolen"
            };
            self.event(event, label, &format!("from {prev_owner}"));
            // The slot is free now, but a third worker may legitimately
            // take it first — stealing guarantees progress, not that *we*
            // win.
            if !leases.create(key) {
                return false;
            }
        }
        held.insert(key);
        self.event("claimed", label, "");
        true
    }

    /// Removes `key`'s lease if its owner is gone and returns that owner.
    /// A lease is abandoned when its heartbeat is older than the TTL, or
    /// when it carries this worker's id but is not in `held` (a dead
    /// incarnation of this worker: ids are unique among live workers). The
    /// rename-to-tombstone is the atomic arbiter: of two racing takers
    /// exactly one `rename` succeeds.
    fn take_abandoned(&self, key: u64, held: &HashSet<u64>) -> Option<String> {
        let leases = &self.shared.leases;
        let path = leases.path(key);
        let dead_incarnation = !held.contains(&key) && leases.is_ours(key);
        if !dead_incarnation {
            // A lease that vanished meanwhile was released by its owner.
            let age = std::fs::metadata(&path)
                .ok()?
                .modified()
                .ok()?
                .elapsed()
                .ok()?;
            if age <= self.ttl {
                return None;
            }
        }
        let tomb = leases
            .dir
            .join(format!("cell-{key:016x}.steal-{}", self.owner()));
        // Failure means another taker won the rename.
        std::fs::rename(&path, &tomb).ok()?;
        let prev_owner = Leases::owner_of(&tomb).unwrap_or_else(|| "(unreadable)".to_string());
        let _ = std::fs::remove_file(&tomb);
        Some(prev_owner)
    }

    /// Journals a completed cell synchronously, as a one-cell batch
    /// through the publisher's commit: the owner-tagged sidecar durably,
    /// then the WAL record (sidecar-first ordering, so a journaled cell
    /// always has its data), then a progress row. A lease on the cell is
    /// left as it is.
    ///
    /// # Errors
    ///
    /// Propagates sidecar/WAL write failures; the caller warns and
    /// continues.
    pub fn store_cell(
        &self,
        key: u64,
        label: &str,
        episodes: usize,
        records: &[EpisodeRecord],
    ) -> std::io::Result<()> {
        let cell = Publication {
            key,
            label: label.to_string(),
            episodes,
            sidecar: self.stage(key, records)?,
            release: false,
        };
        self.shared.publish(&[cell], &mut || {})
    }

    /// Releases `key` if this worker still owns it (a thief may have
    /// taken a stalled lease; unlinking someone else's claim would let a
    /// third worker double-acquire).
    pub fn release(&self, key: u64) {
        self.shared.leases.release(key);
    }

    /// Publishes every pending cell, then releases every lease still held
    /// (graceful-shutdown drain and end-of-run cleanup).
    pub fn release_all(&self) {
        self.flush();
        let keys: Vec<u64> = self
            .shared
            .leases
            .held
            .lock()
            .expect("held lock")
            .iter()
            .copied()
            .collect();
        for key in keys {
            self.release(key);
            self.event("released", &format!("{key:016x}"), "drain");
        }
    }

    /// One heartbeat pass, as the background thread runs every TTL/10.
    #[cfg(test)]
    fn renew_held(&self) {
        self.shared.leases.renew();
    }
}

impl std::fmt::Debug for JournalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalHandle")
            .field("dir", &self.shared.dir)
            .field("owner", &self.owner())
            .field("ttl", &self.ttl)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            seed: 10_000,
            config_hash: 0xabcd_ef01_2345_6789,
            box_episodes: 4,
            scatter_rounds: 2,
        }
    }

    fn records(n: usize) -> Vec<EpisodeRecord> {
        (0..n)
            .map(|i| EpisodeRecord {
                steps: 10 + i,
                dt: 0.1,
                deviation: vec![0.1 * i as f64; 3],
                ..EpisodeRecord::default()
            })
            .collect()
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn solo(dir: &Path) -> PathBuf {
        dir.join("workers").join(SOLO_WORKER)
    }

    /// Worker `owner` joining `dir` with the given lease TTL.
    fn worker(dir: &Path, owner: &str, ttl: Duration) -> JournalHandle {
        let header = ShardHeader {
            run: header(),
            selection: Vec::new(),
        };
        JournalHandle::join(dir, &header, owner, ttl).unwrap()
    }

    fn lease(dir: &Path, key: u64) -> PathBuf {
        dir.join("leases").join(format!("cell-{key:016x}.lease"))
    }

    #[test]
    fn frames_round_trip_and_stop_at_torn_tail() {
        let payloads = ["run 1 2 3 4", "cell a b 4 fig5/x", "exp ff baseline"];
        let mut body = Vec::new();
        for p in &payloads {
            body.extend_from_slice(&encode_frame(p));
        }
        let (all, len) = scan_frames(&body);
        assert_eq!(all, payloads);
        assert_eq!(len, body.len());
        // Truncating anywhere inside the last frame drops exactly it.
        let cut = body.len() - 1;
        let (partial, plen) = scan_frames(&body[..cut]);
        assert_eq!(partial, payloads[..2]);
        assert!(plen <= cut);
        // A flipped payload byte stops the scan at the corrupt frame.
        let mut corrupt = body.clone();
        let second_payload_start = encode_frame(payloads[0]).len() + FRAME_HEADER;
        corrupt[second_payload_start] ^= 0xff;
        let (recovered, _) = scan_frames(&corrupt);
        assert_eq!(recovered, payloads[..1]);
    }

    #[test]
    fn create_resume_round_trips_cells_and_experiments() {
        let dir = temp("repro-bench-journal-roundtrip");
        let j = JournalHandle::create(&dir, header()).unwrap();
        let recs = records(4);
        j.store_cell(42, "fig5/pi_ori/camera/0.5", 4, &recs)
            .unwrap();
        j.record_experiment("baseline", 0xdead_beef).unwrap();
        assert_eq!(j.load_cell(42, 4).unwrap(), recs);
        assert!(j.load_cell(43, 4).is_none(), "unknown key");
        assert!(j.load_cell(42, 5).is_none(), "episode-count mismatch");
        drop(j);

        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 1);
        assert!(j.experiment_done("baseline"));
        assert!(!j.experiment_done("fig4"));
        assert_eq!(j.load_cell(42, 4).unwrap(), recs);
        // Appending after a resume works (the WAL cursor is at the end).
        j.store_cell(77, "fig5/pi_ori/camera/1.0", 4, &recs)
            .unwrap();
        drop(j);
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 2);
        // progress.csv survives with one row per event plus the header.
        let progress = std::fs::read_to_string(solo(&dir).join("progress.csv")).unwrap();
        assert_eq!(progress.lines().count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_truncates_torn_tail_and_recovers_the_prefix() {
        let dir = temp("repro-bench-journal-torn");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(1, "a", 4, &records(4)).unwrap();
        j.store_cell(2, "b", 4, &records(4)).unwrap();
        drop(j);
        // Simulate a kill mid-append: chop bytes off the WAL tail.
        let wal = solo(&dir).join("wal.bin");
        let mut bytes = std::fs::read(&wal).unwrap();
        let full = bytes.len();
        bytes.truncate(full - 5);
        bytes.extend_from_slice(&encode_frame("cell 000000000000000")[..7]);
        std::fs::write(&wal, &bytes).unwrap();

        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 1, "torn second cell is dropped");
        assert!(j.load_cell(1, 4).is_some());
        // The tail was truncated: a fresh append lands on a frame boundary
        // and survives the next resume.
        j.store_cell(3, "c", 4, &records(4)).unwrap();
        drop(j);
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reconciles_progress_csv_against_the_wal() {
        let dir = temp("repro-bench-journal-reconcile");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(1, "cell-a", 4, &records(4)).unwrap();
        j.store_cell(2, "cell-b", 4, &records(4)).unwrap();
        j.record_experiment("fig4", 0xfeed).unwrap();
        drop(j);

        // A kill mid-flush can tear the final CSV row while the WAL record
        // survived (WAL is appended first). Simulate the torn row, plus an
        // extra garbage row the WAL knows nothing about.
        let progress_path = solo(&dir).join("progress.csv");
        let full = std::fs::read_to_string(&progress_path).unwrap();
        let torn = format!("{}cell,cell-c,4,deadbe", full.trim_end_matches('\n'));
        std::fs::write(&progress_path, torn).unwrap();

        let j = JournalHandle::resume(&dir, header()).unwrap();
        let rebuilt = std::fs::read_to_string(&progress_path).unwrap();
        let lines: Vec<&str> = rebuilt.lines().collect();
        // Header + exactly one row per WAL record: the torn row is gone
        // and every journaled cell/experiment is restored (WAL preferred).
        assert_eq!(lines.len(), 4, "rebuilt rows:\n{rebuilt}");
        assert!(lines[1].starts_with("cell,cell-a,4,"));
        assert!(lines[2].starts_with("cell,cell-b,4,"));
        assert!(lines[3].starts_with("experiment,fig4,-,"));
        assert!(!rebuilt.contains("cell-c"), "torn row must not survive");
        assert_eq!(j.cell_count(), 2);
        // Post-resume appends land on a clean tail.
        j.store_cell(3, "cell-d", 4, &records(4)).unwrap();
        let appended = std::fs::read_to_string(&progress_path).unwrap();
        assert_eq!(appended.lines().count(), 5);
        assert!(appended.lines().last().unwrap().starts_with("cell,cell-d"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_different_run_and_bad_magic() {
        let dir = temp("repro-bench-journal-incompat");
        let j = JournalHandle::create(&dir, header()).unwrap();
        drop(j);
        let other = RunHeader {
            seed: 9,
            ..header()
        };
        match JournalHandle::resume(&dir, other) {
            Err(JournalError::Incompatible(msg)) => {
                assert!(msg.contains("different run"), "{msg}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        std::fs::write(solo(&dir).join("wal.bin"), b"not a journal at all").unwrap();
        assert!(matches!(
            JournalHandle::resume(&dir, header()),
            Err(JournalError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_on_an_empty_dir_is_a_fresh_journal() {
        let dir = temp("repro-bench-journal-fresh");
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 0);
        assert!(solo(&dir).join("wal.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_sidecar_degrades_to_recompute() {
        let dir = temp("repro-bench-journal-tamper");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(7, "x", 4, &records(4)).unwrap();
        let sidecar = dir
            .join("cells")
            .join(format!("cell-{:016x}-{SOLO_WORKER}.ckpt", 7));
        // Deleting the sidecar: journaled but unreadable -> None.
        std::fs::remove_file(&sidecar).unwrap();
        assert!(j.load_cell(7, 4).is_none());
        // A checksummed sidecar an older build wrote in `records v1`
        // does not load, and `run_cell` recomputes the cell over it.
        let v1 = "records v1 1\nrec 4 0.1 0 0 0 0\nterm none\ncoll none\n\
                  astart none\ndev 0\npert 0\n";
        drive_nn::checkpoint::save_to_file(&sidecar, v1).unwrap();
        assert!(j.load_cell(7, 1).is_none());
        let computed = std::cell::Cell::new(false);
        let got = j.run_cell(7, "x", 1, || {
            computed.set(true);
            (records(1), true)
        });
        assert!(computed.get(), "a v1 sidecar is recomputed");
        assert_eq!(got, records(1));
        assert_eq!(j.load_cell(7, 1), Some(records(1)), "republished as v2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_discards_a_previous_journal() {
        let dir = temp("repro-bench-journal-recreate");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(1, "a", 4, &records(4)).unwrap();
        drop(j);
        let j = JournalHandle::create(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 0);
        assert!(j.load_cell(1, 4).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_header_round_trips_and_rejects_tampering() {
        let h = ShardHeader {
            run: header(),
            selection: vec!["fig4".into(), "scenario-matrix".into()],
        };
        let text = h.encode();
        assert_eq!(ShardHeader::decode(&text).unwrap(), h);
        let tampered = text.replace("fig4", "fig5");
        assert!(ShardHeader::decode(&tampered)
            .unwrap_err()
            .contains("checksum"));
        assert!(ShardHeader::decode("nonsense").is_err());
    }

    #[test]
    fn shard_header_write_once_then_verify() {
        let dir = temp("repro-shard-header");
        let h = ShardHeader {
            run: header(),
            selection: vec!["fig4".into()],
        };
        h.write_or_verify(&dir).unwrap();
        h.write_or_verify(&dir).unwrap();
        assert_eq!(ShardHeader::load(&dir).unwrap(), h);
        let other = ShardHeader {
            run: RunHeader {
                seed: 9,
                ..header()
            },
            selection: vec!["fig4".into()],
        };
        let err = other.write_or_verify(&dir).unwrap_err().to_string();
        assert!(err.contains("different run"), "{err}");
    }

    #[test]
    fn first_worker_computes_second_loads() {
        let dir = temp("repro-shard-basic");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        let recs = records(4);
        let expected = recs.clone();
        let got = a.run_cell(7, "cell-7", 4, move || (recs, true));
        assert_eq!(got, expected);
        assert_eq!(a.event_count("cell"), 1);
        assert_eq!(a.held_count(), 0, "lease released after publish");
        assert!(!lease(&dir, 7).exists());

        // Worker B never computes: the published sidecar satisfies it.
        let loaded = b.run_cell(7, "cell-7", 4, || unreachable!("must load, not compute"));
        assert_eq!(loaded, expected);
        assert_eq!(b.event_count("loaded"), 1);

        // An episode-count mismatch is a different cell shape: recompute.
        let recs3 = records(3);
        let got3 = b.run_cell(7, "cell-7x3", 3, move || (recs3.clone(), true));
        assert_eq!(got3.len(), 3);
    }

    /// Lookups go by exact path over the workers listed at lookup time: a
    /// sidecar published by a worker that joined after this one opened
    /// still loads.
    #[test]
    fn sidecar_of_a_later_joiner_loads() {
        let dir = temp("repro-journal-late-joiner");
        let early = worker(&dir, "early", DEFAULT_TTL);
        assert!(early.load_cell(5, 4).is_none());
        let late = worker(&dir, "late", DEFAULT_TTL);
        late.store_cell(5, "cell-5", 4, &records(4)).unwrap();
        assert_eq!(early.load_cell(5, 4), Some(records(4)));
        assert!(early.load_cell(5, 3).is_none(), "episode-count mismatch");
    }

    /// A worker re-opened under the same id takes over the fresh lease its
    /// killed incarnation left behind at once, instead of waiting out the
    /// TTL; a lease another thread of this process holds is not taken.
    #[test]
    fn restarted_worker_reclaims_its_own_dead_lease_at_once() {
        let dir = temp("repro-journal-reclaim");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        assert!(a.try_acquire(19, "cell-19"));
        drop(a); // killed: the lease stays behind with a fresh heartbeat
        assert!(lease(&dir, 19).exists());

        let b = worker(&dir, "wa", DEFAULT_TTL);
        assert!(b.try_acquire(19, "cell-19"), "own dead lease is reclaimed");
        assert_eq!(b.event_count("reclaimed"), 1);
        assert!(!b.try_acquire(19, "cell-19"), "a held lease stays held");
        // Another worker still sees a live, fresh lease.
        let other = worker(&dir, "wb", DEFAULT_TTL);
        assert!(!other.try_acquire(19, "cell-19"));
        b.release(19);
        assert!(!lease(&dir, 19).exists());
        // A claim file left by a kill before its link never blocks a claim.
        std::fs::write(
            dir.join("leases").join("cell-000000000000001d.claim-wa"),
            "lea",
        )
        .unwrap();
        assert!(b.try_acquire(29, "cell-29"));
    }

    /// Dropping a handle stops and joins its background thread, which is
    /// the last holder of the shared state once it exits.
    #[test]
    fn dropped_handle_joins_its_background_thread() {
        let dir = temp("repro-journal-heartbeat-drop");
        let j = worker(&dir, "wa", DEFAULT_TTL);
        let shared = Arc::downgrade(&j.shared);
        assert_eq!(shared.strong_count(), 2, "handle + background thread");
        let t0 = std::time::Instant::now();
        drop(j);
        assert!(shared.upgrade().is_none(), "background thread has exited");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop wakes the thread instead of waiting out its 3 s period"
        );
    }

    impl JournalHandle {
        /// Holds queued cells back from the publisher (or lets them go).
        fn pause_publisher(&self, on: bool) {
            self.outbox().paused = on;
            self.shared.changed.notify_all();
        }
    }

    /// Every record of `owner`'s WAL, in order.
    fn wal_records(dir: &Path, owner: &str) -> Vec<String> {
        let bytes = std::fs::read(dir.join("workers").join(owner).join("wal.bin")).unwrap();
        scan_frames(&bytes[MAGIC.len()..]).0
    }

    /// The `cell` records of `owner`'s WAL, as `(key, digest)` hex pairs.
    fn wal_cells(dir: &Path, owner: &str) -> Vec<(String, String)> {
        wal_records(dir, owner)
            .iter()
            .filter_map(|line| {
                let parts: Vec<&str> = line.split_whitespace().collect();
                (parts[0] == "cell").then(|| (parts[1].to_string(), parts[2].to_string()))
            })
            .collect()
    }

    /// While a cell waits for the publisher it is invisible to every other
    /// worker: its lease is held and no sidecar exists, so a second handle
    /// on the directory can neither claim nor load it. Once the publish
    /// lands, that handle loads the very records the first one returned.
    #[test]
    fn second_handle_waits_for_the_first_handles_publish() {
        let dir = temp("repro-journal-pending-second-handle");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        a.pause_publisher(true);
        let returned = a.run_cell(41, "cell-41", 4, || (records(4), true));
        assert_eq!(returned, records(4), "records return before the publish");
        assert!(
            lease(&dir, 41).exists(),
            "the lease stays held until durable"
        );
        assert!(b.load_cell(41, 4).is_none());
        assert!(!b.try_acquire(41, "cell-41"));
        b.set_opportunistic(true);
        let deferred = b.run_cell(41, "cell-41", 4, || unreachable!("a owns the cell"));
        assert_eq!(deferred, vec![EpisodeRecord::default(); 4]);
        assert!(wal_cells(&dir, "wa").is_empty());

        a.pause_publisher(false);
        a.flush();
        assert!(!lease(&dir, 41).exists(), "released once durable");
        assert_eq!(wal_cells(&dir, "wa").len(), 1);
        assert_eq!(b.load_cell(41, 4), Some(returned.clone()));
        b.set_opportunistic(false);
        let loaded = b.run_cell(41, "cell-41", 4, || unreachable!("must load"));
        assert_eq!(loaded, returned);
    }

    /// A key requested again while its publish is pending is waited on in
    /// process, never recomputed; and dropping a handle publishes what is
    /// still queued.
    #[test]
    fn pending_cell_is_waited_on_in_process_and_drop_publishes_it() {
        let dir = temp("repro-journal-pending-reuse");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        a.pause_publisher(true);
        a.run_cell(43, "cell-43", 4, || (records(4), true));
        let again = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| a.run_cell(43, "cell-43", 4, || unreachable!("pending")));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!waiter.is_finished(), "waits while the cell is queued");
            a.pause_publisher(false);
            waiter.join().unwrap()
        });
        assert_eq!(again, records(4));
        assert_eq!(a.event_count("loaded"), 1);

        a.pause_publisher(true);
        a.run_cell(44, "cell-44", 4, || (records(4), true));
        drop(a);
        assert!(!lease(&dir, 44).exists());
        let reopened = worker(&dir, "wa", DEFAULT_TTL);
        assert_eq!(reopened.cell_count(), 2);
        assert_eq!(reopened.load_cell(44, 4), Some(records(4)));
    }

    /// `record_experiment` waits for the pending cells: an `exp` record
    /// never precedes the records of the cells computed before it.
    #[test]
    fn experiment_record_follows_its_pending_cells() {
        let dir = temp("repro-journal-exp-after-cells");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        a.pause_publisher(true);
        a.run_cell(61, "cell-61", 4, || (records(4), true));
        std::thread::scope(|scope| {
            let exp = scope.spawn(|| a.record_experiment("fig4", 0xfeed).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            assert!(!exp.is_finished(), "the exp record waits for the cell");
            a.pause_publisher(false);
            exp.join().unwrap();
        });
        let kinds: Vec<String> = wal_records(&dir, "wa")
            .iter()
            .map(|r| r.split_whitespace().next().unwrap().to_string())
            .collect();
        assert_eq!(kinds, ["run", "cell", "exp"]);
    }

    /// The drain a SIGTERM runs (`release_all`, and the flush at
    /// `run_cell`'s shutdown safe point) publishes the pending cells
    /// before it releases their leases: a lease is never gone while its
    /// cell is neither on disk nor in the WAL.
    #[test]
    fn sigterm_drain_publishes_pending_cells_before_releasing_leases() {
        let _latch = latch_lock();
        let dir = temp("repro-journal-drain-order");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        a.pause_publisher(true);
        for key in [51, 52] {
            a.run_cell(key, &format!("cell-{key}"), 4, || (records(4), true));
        }
        let held = || lease(&dir, 51).exists() && lease(&dir, 52).exists();
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| a.release_all());
            std::thread::sleep(Duration::from_millis(50));
            assert!(!drain.is_finished(), "the drain waits for the publish");
            assert!(held());
            assert!(wal_cells(&dir, "wa").is_empty());
            // Hold the WAL append back: the sidecars land first, and the
            // leases stay held until the WAL records land too. (Observed
            // with the lock held, asserted once it is released, so a
            // failure cannot strand the drain.)
            let wal = a.shared.wal.lock().unwrap();
            a.pause_publisher(false);
            let sidecars = [51, 52].map(|key| a.shared.sidecar_path(key, "wa"));
            let landed = || sidecars.iter().all(|p| p.exists());
            let t0 = std::time::Instant::now();
            while !landed() && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let observed = (landed(), held(), wal_cells(&dir, "wa").is_empty());
            drop(wal);
            drain.join().unwrap();
            assert_eq!(
                observed,
                (true, true, true),
                "(sidecars landed, leases held, no WAL record) while the WAL append waits"
            );
        });
        let journaled = wal_cells(&dir, "wa");
        assert_eq!(journaled.len(), 2);
        for (key, digest) in &journaled {
            let key = u64::from_str_radix(key, 16).unwrap();
            assert!(!lease(&dir, key).exists());
            let sidecar = a.shared.sidecar_path(key, "wa");
            let text = drive_nn::checkpoint::load_from_file(sidecar).unwrap();
            assert_eq!(&format!("{:016x}", fnv1a_64(text.as_bytes())), digest);
        }

        // The shutdown safe point flushes before it unwinds.
        a.run_cell(53, "cell-53", 4, || (records(4), true));
        shutdown::trigger();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run_cell(54, "cell-54", 4, || unreachable!("shutdown requested"))
        }));
        shutdown::clear_for_test();
        assert!(unwound.is_err());
        assert_eq!(wal_cells(&dir, "wa").len(), 3, "cell 53 published first");
        assert!(!lease(&dir, 53).exists());
    }

    /// Crash point between publish and the lease release: the sidecar is
    /// on disk but the dead owner's lease is not. A loader reaps that lease
    /// once its heartbeat is stale, and an opportunistic loader leaves a
    /// fresh one (a live owner about to release it) alone.
    #[test]
    fn loader_reaps_stale_lease_of_published_cell() {
        let dir = temp("repro-shard-reap");
        let dead = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        b.set_opportunistic(true);
        for (key, age, reaped) in [(21, 2 * DEFAULT_TTL, true), (23, Duration::ZERO, false)] {
            let label = format!("cell-{key}");
            assert!(dead.try_acquire(key, &label));
            dead.store_cell(key, &label, 4, &records(4)).unwrap();
            std::fs::OpenOptions::new()
                .write(true)
                .open(lease(&dir, key))
                .unwrap()
                .set_modified(std::time::SystemTime::now() - age)
                .unwrap();

            let got = b.run_cell(key, &label, 4, || unreachable!("must load, not compute"));
            assert_eq!(got, records(4));
            assert_eq!(!lease(&dir, key).exists(), reaped, "{label}: age {age:?}");
        }
        assert_eq!(b.event_count("loaded"), 2);
        assert_eq!(b.event_count("reaped"), 1);
    }

    /// The completing sweep does not leave a dead owner's fresh lease
    /// behind: it waits until the heartbeat goes stale, then reaps it.
    #[test]
    fn completing_loader_waits_out_fresh_lease_of_published_cell() {
        let dir = temp("repro-shard-reap-wait");
        let ttl = Duration::from_millis(100);
        let dead = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", ttl);
        assert!(dead.try_acquire(25, "cell-25"));
        dead.store_cell(25, "cell-25", 4, &records(4)).unwrap();

        let got = b.run_cell(25, "cell-25", 4, || unreachable!("must load, not compute"));
        assert_eq!(got, records(4));
        assert!(!lease(&dir, 25).exists());
        assert_eq!(b.event_count("reaped"), 1);
    }

    #[test]
    fn unclean_cells_do_not_publish() {
        let dir = temp("repro-shard-unclean");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let recs = records(4);
        let _ = a.run_cell(9, "cell-9", 4, move || (recs, false));
        assert_eq!(a.event_count("cell"), 0);
        assert!(a.load_cell(9, 4).is_none());
        // The lease was still released, so another worker can claim it.
        let b = worker(&dir, "wb", DEFAULT_TTL);
        let recs = records(4);
        let got = b.run_cell(9, "cell-9", 4, move || (recs, true));
        assert_eq!(got.len(), 4);
        assert_eq!(b.event_count("cell"), 1);
    }

    #[test]
    fn stale_heartbeat_is_stolen_fresh_is_not() {
        let dir = temp("repro-shard-steal");
        let ttl = Duration::from_millis(100);
        // A's own heartbeat period (TTL/10 = 3 s) outlasts the test: to B,
        // whose TTL is 100 ms, A is a stalled owner.
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", ttl);
        // A claims and then "dies" (no heartbeat, never releases).
        assert!(a.try_acquire(11, "cell-11"));
        // Fresh heartbeat: B cannot steal yet.
        assert!(!b.try_acquire(11, "cell-11"));
        // Age the heartbeat past the TTL and B steals.
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            b.try_acquire(11, "cell-11"),
            "stale lease must be stealable"
        );
        assert_eq!(b.event_count("stolen"), 1);
        // The lease now belongs to B: A's owner-checked release must not
        // unlink it.
        a.release(11);
        assert!(lease(&dir, 11).exists());
        // And A's heartbeat must not resurrect it as A's.
        a.renew_held();
        assert_eq!(a.held_count(), 0);
        b.release(11);
        assert!(!lease(&dir, 11).exists());
    }

    #[test]
    fn heartbeat_renewal_prevents_stealing() {
        let dir = temp("repro-shard-heartbeat");
        let ttl = Duration::from_millis(120);
        let a = worker(&dir, "wa", ttl);
        let b = worker(&dir, "wb", ttl);
        assert!(a.try_acquire(13, "cell-13"));
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(60));
            a.renew_held();
            assert!(
                !b.try_acquire(13, "cell-13"),
                "a renewed lease must never be stolen"
            );
        }
    }

    #[test]
    fn steal_race_has_exactly_one_winner() {
        let dir = temp("repro-shard-steal-race");
        // A's heartbeat period (3 s) outlasts the test; the thieves' TTL
        // is 50 ms.
        let a = worker(&dir, "wa", DEFAULT_TTL);
        assert!(a.try_acquire(17, "cell-17"));
        std::thread::sleep(Duration::from_millis(80));
        // Two stealers race the same stale lease; the exclusive link + the tombstone
        // rename guarantee exactly one winner per round.
        let dir2 = dir.clone();
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let dir = dir2.clone();
                    scope.spawn(move || {
                        let s = worker(&dir, &format!("thief{i}"), Duration::from_millis(50));
                        s.try_acquire(17, "cell-17")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            winners.iter().filter(|&&w| w).count(),
            1,
            "exactly one stealer must win: {winners:?}"
        );
    }

    /// N contending workers never double-acquire. Every round, all workers
    /// race for the same fresh key; exactly one may hold it — counted over
    /// many seeded rounds.
    #[test]
    fn contending_workers_never_double_acquire() {
        let dir = temp("repro-shard-contention-prop");
        const WORKERS: usize = 6;
        const ROUNDS: u64 = 25;
        for round in 0..ROUNDS {
            let key = 1000 + round;
            let acquired: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|i| {
                        let dir = dir.clone();
                        scope.spawn(move || {
                            let s = worker(&dir, &format!("w{i}"), DEFAULT_TTL);
                            s.try_acquire(key, "prop-cell")
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                acquired.iter().filter(|&&a| a).count(),
                1,
                "round {round}: exactly one winner, got {acquired:?}"
            );
        }
    }

    #[test]
    fn opportunistic_sweep_defers_busy_cells_and_computes_free_ones() {
        let dir = temp("repro-shard-opportunistic");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        assert!(a.try_acquire(31, "cell-31"));
        b.set_opportunistic(true);
        // Busy cell: skipped with placeholders instead of waiting.
        let got = b.run_cell(31, "cell-31", 4, || unreachable!("busy cell must defer"));
        assert_eq!(got, vec![EpisodeRecord::default(); 4]);
        assert_eq!(b.event_count("deferred"), 1);
        assert_eq!(b.event_count("cell"), 0, "placeholders never publish");
        // Unclaimed cell: computed and published as normal.
        let recs = records(4);
        let expected = recs.clone();
        let got = b.run_cell(32, "cell-32", 4, move || (recs, true));
        assert_eq!(got, expected);
        assert_eq!(b.event_count("cell"), 1);
        // Completing mode sees the published result, not the placeholder.
        b.set_opportunistic(false);
        let reloaded = b.run_cell(32, "cell-32", 4, || unreachable!("must load"));
        assert_eq!(reloaded, expected);
        a.release(31);
    }

    /// Serializes the tests that set the process-wide shutdown latch, so
    /// one never unwinds the other's cells.
    fn latch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LATCH: Mutex<()> = Mutex::new(());
        LATCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn shutdown_latch_releases_held_leases_via_run_cell() {
        let _latch = latch_lock();
        let dir = temp("repro-shard-shutdown");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        // A cell whose compute latches shutdown mid-flight: the unwind
        // must release the lease on the way out.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run_cell(21, "cell-21", 4, || {
                shutdown::trigger();
                std::panic::panic_any(shutdown::ShutdownRequested)
            })
        }));
        shutdown::clear_for_test();
        assert!(result.is_err());
        assert_eq!(a.held_count(), 0, "unwinding compute releases the lease");
        assert!(!lease(&dir, 21).exists(), "lease file removed on unwind");
        // And a latched shutdown observed while *waiting* unwinds too.
        let b = worker(&dir, "wb", DEFAULT_TTL);
        assert!(b.try_acquire(22, "cell-22"));
        shutdown::trigger();
        let waiting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run_cell(22, "cell-22", 4, || (records(4), true))
        }));
        shutdown::clear_for_test();
        assert!(waiting.is_err(), "waiter must honor the shutdown latch");
        // Drain path: release_all frees everything still held.
        assert!(a.try_acquire(23, "cell-23"));
        a.release_all();
        assert_eq!(a.held_count(), 0);
        assert!(!lease(&dir, 23).exists());
    }
}
