//! Crash-safe run directory: every journaled run, single-process or
//! sharded, is a set of workers sharing one directory.
//!
//! A `repro_bench` run with a CSV or SVG directory joins `<dir>/journal/`
//! as the one worker [`SOLO_WORKER`], and `--resume <dir>` rejoins as that
//! same worker. Any number of `repro_bench shard <dir>` processes join
//! one directory under distinct worker ids ([`crate::shard`]), and
//! `repro_bench merge` ([`crate::merge`]) assembles their results. All of
//! them share one layout, with no file per cell:
//!
//! * `shard.header` — the immutable run header ([`ShardHeader`]: seed,
//!   config hash, scale, experiment selection), written once via atomic
//!   rename. Every worker verifies it before touching anything else, so
//!   two differently configured runs can never interleave in one
//!   directory.
//! * `leases/cell-<key>.lease` — one claim per in-flight cell: a hard link
//!   to the claiming worker's claim file, which `link(2)` creates only if
//!   the lease does not exist.
//! * `workers/<owner>/cells.log` — the worker's append-only cell log:
//!   every cell it computed, back to back, each as its `records v2` text
//!   (every float as its bit pattern in hex) followed by a `checksum`
//!   line, the FNV-1a of that text.
//! * `workers/<owner>/wal.bin` — the worker's write-ahead log of published
//!   cells (with each one's place in `cells.log`) and completed
//!   experiments (format below).
//! * `workers/<owner>/claim` — the body every lease of the worker shares
//!   (`lease - <owner>` and a `sum` line, its FNV-1a). Its mtime is the
//!   heartbeat of all the worker's leases, renewed by the worker's
//!   background thread while it holds any.
//! * `workers/<owner>/progress.csv` — the worker's flush-per-row event log
//!   for humans watching a long run.
//!
//! Every grid cell goes through [`JournalHandle::run_cell`]: load the
//! published cell if any worker already finished it, otherwise claim its
//! lease and compute and publish it, otherwise wait for the current
//! owner. Because every cell is a pure function of its seed namespace, a
//! resumed or sharded run produces byte-identical outputs to an
//! uninterrupted one.
//!
//! A worker finds its own cells through an in-memory index of its WAL,
//! rebuilt on (re)joining. It finds a peer's by reading the part of the
//! peer's WAL it has not read yet; either way the text is read at its
//! recorded place in the owner's `cells.log` and must hash to the
//! recorded digest, or the cell is recomputed. A directory written by the
//! older layout (one file per cell, WAL magic `RBJRNL1`, header
//! `shard-v1`) is refused with [`JournalError::Incompatible`].
//!
//! ## Crash safety and work stealing
//!
//! A WAL record is appended only after its cell's text is durable (see
//! *Publishing*), so a journaled cell always has its bytes. On
//! (re)joining, the worker's WAL is scanned and a torn or corrupt tail
//! (the record being appended when the process was killed) is truncated
//! away, and so is the part of `cells.log` after the last journaled cell:
//! cells a kill left without their WAL records are recomputed. A worker
//! that reaches a cell someone else holds waits on a seeded, jittered
//! backoff ([`RetryPolicy::lease_contention`]); once the lease's
//! heartbeat is older than the TTL, the waiter *steals* it: the lease is
//! atomically renamed to a per-taker tombstone (of two racing takers, one
//! `rename` wins), removed, and re-claimed exclusively. A lease that
//! carries this worker's own id but is not held by this process belongs
//! to a dead incarnation of the worker, and is reclaimed at once. Each
//! incarnation writes a new claim file, so its claims never renew the
//! leases of a dead one. A SIGKILL therefore costs latency, never
//! correctness. If a slow owner was merely stalled and publishes too,
//! both copies carry the same digest (cells are deterministic); differing
//! digests are a hard merge error naming both owners.
//!
//! ## Publishing
//!
//! A compute thread never waits on the disk for a clean cell: `run_cell`
//! streams the records' text and its `checksum` line to the end of the
//! worker's cell log under the log's lock, through the checkpoint writer's
//! 8 KiB hashing buffer ([`drive_nn::checkpoint::write_checksummed`]), so
//! no cell's text is ever held whole. It queues the cell's place in the
//! log for the worker's one background thread (the same thread that
//! renews the leases) and returns the records at once. The cell's lease
//! stays held until the cell is durable. The thread group-commits
//! whatever is queued, in this order:
//!
//! 1. one `fdatasync` of `cells.log`;
//! 2. one WAL write carrying every cell's record, then one `fdatasync`;
//! 3. the in-memory index and the progress rows, then the lease releases.
//!
//! So "cell text durable → WAL record → lease released" holds per cell,
//! and a batch of any size costs two syncs. At most `MAX_QUEUED` (32)
//! cells wait; a compute thread that finds the queue full waits for
//! room. The queue holds places in the log, not record text, so
//! publishing off the compute threads costs no memory. A key requested
//! again while it is queued or being committed waits for that publish in
//! process and then loads, never recomputes.
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
//! * `cell <key:016x> <digest:016x> <episodes> <offset> <len> <label>` —
//!   one published cell: its text is the `len` bytes at byte `offset` of
//!   the worker's `cells.log`, `checksum` line included, and `digest` is
//!   the FNV-1a of the record text, the value that line records. When a
//!   key has two records (a copy that failed to load, recomputed), the
//!   later one counts.
//! * `exp <manifest_fnv:016x> <name>` — one completed experiment.

use drive_core::retry::RetryPolicy;
use drive_core::shutdown;
use drive_metrics::export::CsvSink;
use drive_seed::fnv1a_64;
use drive_sim::record::{decode_records, write_records, EpisodeRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Magic bytes at the start of every WAL file.
pub const MAGIC: &[u8] = b"RBJRNL2\n";

/// The WAL magic of the older layout, one file per cell: such a
/// directory is refused as incompatible, never misread.
const OLD_MAGIC: &[u8] = b"RBJRNL1\n";

/// Bytes of frame overhead per record (length prefix + checksum).
const FRAME_HEADER: usize = 4 + 8;

/// Default lease TTL: a heartbeat older than this is stealable.
pub const DEFAULT_TTL: Duration = Duration::from_secs(30);

/// The worker id a single-process run joins its run directory under.
pub const SOLO_WORKER: &str = "solo";

/// First line of the shared `shard.header` file.
const HEADER_MAGIC: &str = "shard-v2";

/// First line of the `shard.header` of the older, file-per-cell layout.
const OLD_HEADER_MAGIC: &str = "shard-v1";

/// The error for a run directory (or one of its files at `path`) that the
/// older, file-per-cell layout wrote.
fn older_layout(path: &Path) -> JournalError {
    JournalError::Incompatible(format!(
        "{} was written by an older build (one file per cell); \
         start a fresh run directory",
        path.display()
    ))
}

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
        if text.lines().next() == Some(OLD_HEADER_MAGIC) {
            return Err(older_layout(&path));
        }
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

/// The frames of the WAL at `path`, whose bytes are `bytes`: everything
/// after [`MAGIC`].
///
/// # Errors
///
/// [`JournalError::Incompatible`] for a WAL of the older layout,
/// [`JournalError::Corrupt`] for any other file without the magic.
pub(crate) fn wal_body<'a>(bytes: &'a [u8], path: &Path) -> Result<&'a [u8], JournalError> {
    if bytes.starts_with(OLD_MAGIC) {
        return Err(older_layout(path));
    }
    bytes.strip_prefix(MAGIC).ok_or_else(|| {
        JournalError::Corrupt(format!(
            "{} does not start with the journal magic",
            path.display()
        ))
    })
}

/// Whether `owner` is safe to embed in file names.
pub fn valid_owner(owner: &str) -> bool {
    !owner.is_empty()
        && owner.len() <= 64
        && owner
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// One worker's lease table: the `leases/` directory, this worker's claim
/// file and the claims this process holds. Every claim, renewal and
/// release happens under the `held` lock, so "this worker's id but not in
/// `held`" reliably means a dead incarnation's lease.
struct Leases {
    dir: PathBuf,
    owner: String,
    /// `workers/<owner>/claim`, the body of every lease this process
    /// takes: each lease is a hard link to it, so its mtime is the
    /// heartbeat of all of them.
    claim: PathBuf,
    /// The claim file, open to set its mtime.
    claim_file: std::fs::File,
    held: Mutex<HashSet<u64>>,
}

impl Leases {
    /// Writes this process's claim file into `worker_dir` as a new file
    /// (temporary + rename), so the leases a dead incarnation linked to
    /// the old one keep their own, aging heartbeat.
    fn open(dir: PathBuf, worker_dir: &Path, owner: &str) -> std::io::Result<Leases> {
        let body = format!("lease - {owner}\n");
        let sum = fnv1a_64(body.as_bytes());
        let claim = worker_dir.join("claim");
        let tmp = worker_dir.join("claim.tmp");
        let mut claim_file = std::fs::File::create(&tmp)?;
        claim_file.write_all(format!("{body}sum {sum:016x}\n").as_bytes())?;
        std::fs::rename(&tmp, &claim)?;
        Ok(Leases {
            dir,
            owner: owner.to_string(),
            claim,
            claim_file,
            held: Mutex::new(HashSet::new()),
        })
    }

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

    /// Sets the heartbeat of every lease this process holds to now.
    fn touch(&self) {
        let _ = self.claim_file.set_modified(std::time::SystemTime::now());
    }

    /// Atomically creates `key`'s lease; `false` when it exists. The lease
    /// is a hard link to this worker's claim file: `link(2)` fails if the
    /// lease exists (the exclusive arbiter), and a lease never appears
    /// without its owner id, so a restarted worker always recognises its
    /// own dead leases. The claim file is touched first: after a spell of
    /// holding no lease (no renewals) its mtime is old, and a lease linked
    /// to it would read as stale the moment it appeared. A lease is not
    /// synced to disk: it only coordinates live processes, and after a
    /// host crash every lease is abandoned anyway.
    fn create(&self, key: u64) -> bool {
        self.touch();
        match std::fs::hard_link(&self.claim, self.path(key)) {
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

    /// One heartbeat pass: forget the leases stolen out from under us
    /// (they belong to the thief now, and are never unlinked by us), then
    /// renew the rest with one touch of the claim file they all link to.
    fn renew(&self) {
        let mut held = self.held.lock().expect("held lock");
        held.retain(|&key| self.is_ours(key));
        if !held.is_empty() {
            self.touch();
        }
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

/// Where one published cell's text sits in its worker's `cells.log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellRef {
    /// Byte offset of the text in the log.
    pub(crate) offset: u64,
    /// Bytes of the text, its `checksum` line included.
    pub(crate) len: u64,
    /// FNV-1a of the record text: the value its `checksum` line records.
    pub(crate) digest: u64,
    /// Episodes the text holds.
    pub(crate) episodes: usize,
}

/// The WAL payload of a published cell (see *WAL format*).
fn cell_payload(key: u64, at: &CellRef, label: &str) -> String {
    format!(
        "cell {key:016x} {:016x} {} {} {} {label}",
        at.digest, at.episodes, at.offset, at.len
    )
}

/// Parses a WAL payload written by [`cell_payload`] into its key, place
/// and label; `None` for every other record.
pub(crate) fn parse_cell(payload: &str) -> Option<(u64, CellRef, &str)> {
    let mut parts = payload.splitn(7, ' ');
    if parts.next()? != "cell" {
        return None;
    }
    let key = u64::from_str_radix(parts.next()?, 16).ok()?;
    let at = CellRef {
        digest: u64::from_str_radix(parts.next()?, 16).ok()?,
        episodes: parts.next()?.parse().ok()?,
        offset: parts.next()?.parse().ok()?,
        len: parts.next()?.parse().ok()?,
    };
    Some((key, at, parts.next().unwrap_or("")))
}

/// Reads the cell at `at` from a worker's cell log and verifies it: the
/// bytes lie inside the log, end with a `checksum` line they hash to, that
/// checksum is the journaled digest, and they decode to the journaled
/// number of episodes. The reader must have `log` to itself (it seeks).
pub(crate) fn read_cell(
    mut log: &std::fs::File,
    at: &CellRef,
) -> Result<Vec<EpisodeRecord>, String> {
    let size = log.metadata().map_err(|e| e.to_string())?.len();
    if at.offset.checked_add(at.len).is_none_or(|end| end > size) {
        return Err(format!(
            "bytes {}..+{} lie past the end of the {size}-byte log",
            at.offset, at.len
        ));
    }
    let mut bytes = vec![0u8; at.len as usize];
    log.seek(SeekFrom::Start(at.offset))
        .and_then(|_| log.read_exact(&mut bytes))
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8(bytes).map_err(|_| "the text is not UTF-8".to_string())?;
    let (text, checksum) =
        drive_nn::checkpoint::verify_checksummed(text).map_err(|e| e.to_string())?;
    if checksum != at.digest {
        return Err(format!(
            "the text hashes to {checksum:016x}, the WAL records {:016x}",
            at.digest
        ));
    }
    let records = decode_records(&text).map_err(|e| e.to_string())?;
    if records.len() != at.episodes {
        return Err(format!(
            "{} episode(s), the WAL records {}",
            records.len(),
            at.episodes
        ));
    }
    Ok(records)
}

/// A worker's index recovered from its WAL, and its progress log.
struct WorkerLog {
    /// Every cell in the WAL, by key; a later record of a key replaces an
    /// earlier one.
    cells: HashMap<u64, CellRef>,
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
        let (records, valid_len) = scan_frames(wal_body(&bytes, &path)?);
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
        let mut cells = HashMap::new();
        let mut experiments = HashSet::new();
        for line in &records[1..] {
            if let Some((key, at, label)) = parse_cell(line) {
                cells.insert(key, at);
                let digest = format!("{:016x}", at.digest);
                let _ = progress.row(["cell", label, &at.episodes.to_string(), &digest]);
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.first() == Some(&"exp") && parts.len() >= 3 {
                let name = parts[2..].join(" ");
                let _ = progress.row(["experiment", &name, "-", parts[1]]);
                experiments.insert(name);
            }
            // Anything else: an unknown record kind, kept for forward
            // compatibility.
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

/// A worker's append-only `cells.log`: every cell it computed, each one's
/// record text followed by its `checksum` line, back to back.
struct CellLog {
    /// Open for reading and appending: an append lands at the end
    /// wherever a read left the cursor.
    file: std::fs::File,
    /// Where the next cell's text starts.
    end: u64,
}

impl CellLog {
    /// Opens `worker_dir`'s cell log (creating it if absent) and truncates
    /// it after the last journaled cell of `cells`: what follows is cells
    /// a kill left without their WAL records, which a resume recomputes.
    fn open(worker_dir: &Path, cells: &HashMap<u64, CellRef>) -> std::io::Result<CellLog> {
        let path = worker_dir.join("cells.log");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let journaled = cells
            .values()
            .map(|at| at.offset.saturating_add(at.len))
            .max();
        let size = file.metadata()?.len();
        let end = journaled.unwrap_or(0).min(size);
        if end < size {
            eprintln!(
                "[resume] truncating {} unjournaled byte(s) from {}",
                size - end,
                path.display()
            );
            file.set_len(end)?;
        }
        Ok(CellLog { file, end })
    }

    /// Streams `records`' text and its `checksum` line to the end of the
    /// log, unsynced, and returns where they landed.
    fn append(&mut self, records: &[EpisodeRecord]) -> std::io::Result<CellRef> {
        let offset = self.end;
        match drive_nn::checkpoint::write_checksummed(&self.file, |out| write_records(out, records))
        {
            Ok(written) => {
                self.end += written.len;
                Ok(CellRef {
                    offset,
                    len: written.len,
                    digest: written.checksum,
                    episodes: records.len(),
                })
            }
            Err(e) => {
                // Cut the partial text away so the next cell starts at
                // `end`. Should that fail too, the next cell's bytes are
                // not where its record says, and loading it recomputes.
                let _ = self.file.set_len(offset);
                Err(e)
            }
        }
    }
}

/// What this worker has read of a peer's WAL: the bytes consumed so far
/// and the cells they index, so each lookup reads only what the peer
/// appended since the last one.
#[derive(Default)]
struct PeerLog {
    wal: Option<std::fs::File>,
    log: Option<std::fs::File>,
    /// Bytes of the WAL consumed, its magic included: always a frame
    /// boundary.
    read: u64,
    cells: HashMap<u64, CellRef>,
}

impl PeerLog {
    /// Indexes the frames appended to the peer's WAL in `dir` since the
    /// last call. A missing WAL, or one of another layout, indexes nothing.
    fn refresh(&mut self, dir: &Path) {
        if self.wal.is_none() {
            self.wal = std::fs::File::open(dir.join("wal.bin")).ok();
        }
        let Some(mut wal) = self.wal.as_ref() else {
            return;
        };
        let mut tail = Vec::new();
        if wal.seek(SeekFrom::Start(self.read)).is_err() || wal.read_to_end(&mut tail).is_err() {
            return;
        }
        let mut body = tail.as_slice();
        if self.read == 0 {
            let Some(rest) = body.strip_prefix(MAGIC) else {
                return;
            };
            body = rest;
            self.read = MAGIC.len() as u64;
        }
        let (records, valid) = scan_frames(body);
        for record in &records {
            if let Some((key, at, _)) = parse_cell(record) {
                self.cells.insert(key, at);
            }
        }
        self.read += valid as u64;
    }

    /// The peer's published records of `key`, verified, when it has them.
    fn load(&mut self, dir: &Path, key: u64, episodes: usize) -> Option<Vec<EpisodeRecord>> {
        self.refresh(dir);
        let at = *self.cells.get(&key).filter(|at| at.episodes == episodes)?;
        if self.log.is_none() {
            self.log = std::fs::File::open(dir.join("cells.log")).ok();
        }
        read_cell(self.log.as_ref()?, &at).ok()
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
/// [`JournalHandle::run_cell`] waits for the publisher: the bound on cell
/// text written to the log but not yet synced.
const MAX_QUEUED: usize = 32;

/// One completed cell on its way to disk: its text is in the cell log,
/// not yet synced or journaled.
struct Publication {
    key: u64,
    label: String,
    at: CellRef,
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
    /// This worker's cell log. Appends and reads of its cells serialize
    /// here.
    cells: Mutex<CellLog>,
    /// The cell log once more, for the publisher's `fdatasync`, which so
    /// never holds up an append.
    cells_sync: std::fs::File,
    log: Mutex<WorkerLog>,
    /// The peers' WALs read so far, by worker id.
    peers: Mutex<BTreeMap<String, PeerLog>>,
    outbox: Mutex<Outbox>,
    /// Signalled on every change to `outbox`.
    changed: Condvar,
}

impl Shared {
    /// Publishes `batch` as one group commit, then releases the leases it
    /// carries (published or not: a failed publish costs a recomputation,
    /// never correctness).
    fn publish(&self, batch: &[Publication]) -> std::io::Result<()> {
        let committed = self.commit(batch);
        for p in batch.iter().filter(|p| p.release) {
            self.leases.release(p.key);
        }
        committed
    }

    /// Makes `batch` durable in crash-safe order: one `fdatasync` of the
    /// cell log, then one WAL append carrying every record, then the
    /// index and the progress rows. A crash anywhere leaves each cell
    /// either journaled with its text on disk, or not journaled at all.
    fn commit(&self, batch: &[Publication]) -> std::io::Result<()> {
        self.cells_sync.sync_data()?;
        let records: Vec<String> = batch
            .iter()
            .map(|p| cell_payload(p.key, &p.at, &p.label))
            .collect();
        append_frames(&self.wal, records.iter().map(String::as_str))?;
        let mut log = self.log.lock().expect("journal lock");
        for p in batch {
            log.cells.insert(p.key, p.at);
            let digest = format!("{:016x}", p.at.digest);
            log.row("cell", &p.label, &p.at.episodes.to_string(), &digest);
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
    /// and group-commits whatever the compute threads queued.
    fn run_publisher(&self, period: Duration) {
        let mut renew_at = Instant::now() + period;
        while let Some(batch) = self.next_batch(renew_at) {
            if Instant::now() >= renew_at {
                self.leases.renew();
                renew_at = Instant::now() + period;
            }
            if batch.is_empty() {
                continue;
            }
            if let Err(e) = self.publish(&batch) {
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
    /// and cell log (cut after the last journaled cell), writes its claim
    /// file and starts the background thread.
    ///
    /// # Errors
    ///
    /// [`JournalError::Incompatible`] when the directory belongs to a
    /// different run or was written in the older file-per-cell layout,
    /// [`JournalError::Corrupt`] for a bad header or WAL magic, [`JournalError::Io`] for filesystem failures and invalid
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
        let worker_dir = dir.join("workers").join(worker);
        std::fs::create_dir_all(&worker_dir)?;
        let (wal, log) = WorkerLog::open(&worker_dir, &header.run)?;
        let cells = CellLog::open(&worker_dir, &log.cells)?;
        let shared = Arc::new(Shared {
            leases: Leases::open(dir.join("leases"), &worker_dir, worker)?,
            wal: Mutex::new(wal),
            cells_sync: cells.file.try_clone()?,
            cells: Mutex::new(cells),
            log: Mutex::new(log),
            peers: Mutex::new(BTreeMap::new()),
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
    /// from a published cell, is computed under a fresh claim, or is
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

    /// Runs one grid cell under the lease protocol: load the published
    /// cell if any worker already finished it, otherwise claim the
    /// cell (stealing an abandoned claim if needed) and compute it,
    /// otherwise wait out the current owner on the jittered backoff — or,
    /// in an opportunistic sweep (see
    /// [`JournalHandle::set_opportunistic`]), return placeholder records
    /// immediately so the worker moves on to unclaimed work. `compute`
    /// returns the records plus a clean flag; only clean, complete cells
    /// publish (a cell with retried-out episodes is partial and must be
    /// recomputed), so placeholders can never leak into the journal. A
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
                std::panic::resume_unwind(Box::new(shutdown::ShutdownRequested));
            }
            if self.try_acquire(key, label) {
                let guard = LeaseGuard { journal: self, key };
                let (records, clean) = compute();
                if clean && records.len() == episodes {
                    match self.append(&records) {
                        Ok(at) => {
                            // The publisher owns the lease from here and
                            // releases it once the cell is durable.
                            std::mem::forget(guard);
                            self.enqueue(Publication {
                                key,
                                label: label.to_string(),
                                at,
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

    /// Appends `records`' text to this worker's cell log, unsynced.
    fn append(&self, records: &[EpisodeRecord]) -> std::io::Result<CellRef> {
        self.shared
            .cells
            .lock()
            .expect("cell log lock")
            .append(records)
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
    /// ever steal it: every later visitor loads the cell instead. An
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

    /// Loads the published records of `key`, whoever computed them: this
    /// worker's own from its in-memory index, then each peer's under
    /// `workers/` (re-listed on every call, so workers that joined later
    /// count) from the part of its WAL not read before. The text is read
    /// at its recorded place in the worker's cell log and verified against
    /// the journaled digest and episode count; every failure — absent,
    /// corrupt, another record format version, or a different cell shape
    /// — degrades to `None`, i.e. recomputing. A cell this process is
    /// still publishing is waited for, so it loads as soon as its batch
    /// lands.
    pub fn load_cell(&self, key: u64, episodes: usize) -> Option<Vec<EpisodeRecord>> {
        self.await_published(key);
        let own = self.log().cells.get(&key).copied();
        if let Some(at) = own.filter(|at| at.episodes == episodes) {
            let cells = self.shared.cells.lock().expect("cell log lock");
            if let Ok(records) = read_cell(&cells.file, &at) {
                return Some(records);
            }
        }
        let workers = self.shared.dir.join("workers");
        let peers: Vec<String> = std::fs::read_dir(&workers)
            .ok()?
            .flatten()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|owner| owner != self.owner())
            .collect();
        let mut logs = self.shared.peers.lock().expect("peers lock");
        peers.into_iter().find_map(|owner| {
            let dir = workers.join(&owner);
            logs.entry(owner).or_default().load(&dir, key, episodes)
        })
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
        let stale = |lease: &Path| {
            let modified = std::fs::metadata(lease).and_then(|m| m.modified());
            let age = modified.ok().and_then(|t| t.elapsed().ok());
            age.is_some_and(|age| age > self.ttl)
        };
        // A lease that vanished meanwhile was released by its owner.
        if !dead_incarnation && !stale(&path) {
            return None;
        }
        let tomb = leases
            .dir
            .join(format!("cell-{key:016x}.steal-{}", self.owner()));
        // Failure means another taker won the rename.
        std::fs::rename(&path, &tomb).ok()?;
        let prev_owner = Leases::owner_of(&tomb).unwrap_or_else(|| "(unreadable)".to_string());
        // The rename took whatever lease sits at `path` now. If a faster
        // taker already replaced the abandoned one with its own fresh
        // claim, that claim is live: put it back, heartbeat and all.
        let taken = if dead_incarnation {
            prev_owner == self.owner()
        } else {
            stale(&tomb)
        };
        if !taken {
            let _ = std::fs::hard_link(&tomb, &path);
        }
        let _ = std::fs::remove_file(&tomb);
        taken.then_some(prev_owner)
    }

    /// Journals a completed cell synchronously, as a one-cell batch
    /// through the publisher's commit: its text appended to the cell log
    /// and synced, then the WAL record (text first, so a journaled cell
    /// always has its data), then a progress row. A lease on the cell is
    /// left as it is.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `records` does not hold `episodes` episodes;
    /// propagates log/WAL write failures, on which the caller warns and
    /// continues.
    pub fn store_cell(
        &self,
        key: u64,
        label: &str,
        episodes: usize,
        records: &[EpisodeRecord],
    ) -> std::io::Result<()> {
        if records.len() != episodes {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} record(s) for a {episodes}-episode cell", records.len()),
            ));
        }
        let cell = Publication {
            key,
            label: label.to_string(),
            at: self.append(records)?,
            release: false,
        };
        self.shared.publish(&[cell])
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
    use crate::test_dir::TestDir;

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

    /// Backdates the heartbeat (mtime) of `key`'s lease by `age`, as a
    /// stalled owner's would read after that long without a renewal.
    fn age_lease(dir: &Path, key: u64, age: Duration) {
        std::fs::OpenOptions::new()
            .write(true)
            .open(lease(dir, key))
            .unwrap()
            .set_modified(std::time::SystemTime::now() - age)
            .unwrap();
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-bench-journal-roundtrip");
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
    }

    #[test]
    fn resume_truncates_torn_tail_and_recovers_the_prefix() {
        let dir = TestDir::new("repro-bench-journal-torn");
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

        let log = solo(&dir).join("cells.log");
        let two_cells = std::fs::metadata(&log).unwrap().len();
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 1, "torn second cell is dropped");
        assert!(j.load_cell(1, 4).is_some());
        assert!(j.load_cell(2, 4).is_none());
        assert_eq!(
            std::fs::metadata(&log).unwrap().len(),
            two_cells / 2,
            "the log is cut after the last journaled cell"
        );
        // The tail was truncated: a fresh append lands on a frame boundary
        // and survives the next resume.
        j.store_cell(3, "c", 4, &records(4)).unwrap();
        drop(j);
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 2);
    }

    #[test]
    fn resume_reconciles_progress_csv_against_the_wal() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-bench-journal-reconcile");
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
    }

    #[test]
    fn resume_refuses_a_different_run_and_bad_magic() {
        let dir = TestDir::new("repro-bench-journal-incompat");
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
    }

    #[test]
    fn resume_on_an_empty_dir_is_a_fresh_journal() {
        let dir = TestDir::new("repro-bench-journal-fresh");
        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 0);
        assert!(solo(&dir).join("wal.bin").exists());
    }

    /// Appends `text` and its `checksum` line to `owner`'s cell log and
    /// journals it under `key` in the WAL, as if that worker had published
    /// it: a forged cell for the crash-point tests. Returns its place.
    fn forge_cell(dir: &Path, owner: &str, key: u64, text: &str, episodes: usize) -> CellRef {
        let worker = dir.join("workers").join(owner);
        let log = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(worker.join("cells.log"))
            .unwrap();
        let offset = log.metadata().unwrap().len();
        let written =
            drive_nn::checkpoint::write_checksummed(&log, |out| out.write_str(text)).unwrap();
        let at = CellRef {
            offset,
            len: written.len,
            digest: written.checksum,
            episodes,
        };
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(worker.join("wal.bin"))
            .unwrap();
        wal.write_all(&encode_frame(&cell_payload(key, &at, "forged")))
            .unwrap();
        at
    }

    /// A WAL record whose bytes are gone or altered, or hold an older
    /// records format, loads as `None`, and `run_cell` recomputes and
    /// re-journals the cell over it.
    #[test]
    fn tampered_cell_degrades_to_recompute() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-bench-journal-tamper");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(7, "x", 4, &records(4)).unwrap();
        j.store_cell(8, "y", 4, &records(4)).unwrap();
        drop(j);
        let log = solo(&dir).join("cells.log");
        let mut bytes = std::fs::read(&log).unwrap();
        // Cell 7's text altered: its bytes no longer hash to the digest.
        bytes[20] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();
        // A record pointing past the end of the log.
        let past = CellRef {
            offset: bytes.len() as u64,
            len: 100,
            digest: 0,
            episodes: 4,
        };
        std::fs::OpenOptions::new()
            .append(true)
            .open(solo(&dir).join("wal.bin"))
            .unwrap()
            .write_all(&encode_frame(&cell_payload(9, &past, "z")))
            .unwrap();
        // A checksummed `records v1` text, as an older build wrote it.
        let v1 = "records v1 1\nrec 4 0.1 0 0 0 0\nterm none\ncoll none\n\
                  astart none\ndev 0\npert 0\n";
        forge_cell(&dir, SOLO_WORKER, 10, v1, 1);

        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert!(j.load_cell(7, 4).is_none(), "altered bytes");
        assert_eq!(j.load_cell(8, 4), Some(records(4)), "its neighbour loads");
        assert!(j.load_cell(9, 4).is_none(), "past the end of the log");
        assert!(j.load_cell(10, 1).is_none(), "records v1");
        for (key, n) in [(7, 4), (9, 4), (10, 1)] {
            let computed = std::cell::Cell::new(false);
            let got = j.run_cell(key, "again", n, || {
                computed.set(true);
                (records(n), true)
            });
            assert!(computed.get(), "cell {key} is recomputed");
            assert_eq!(got, records(n));
            assert_eq!(j.load_cell(key, n), Some(records(n)), "republished");
        }
        drop(j);
        let j = JournalHandle::resume(&dir, header()).unwrap();
        for (key, n) in [(7, 4), (8, 4), (9, 4), (10, 1)] {
            assert_eq!(
                j.load_cell(key, n),
                Some(records(n)),
                "the later record counts"
            );
        }
    }

    /// Crash point after a cell's text reached the log but before its WAL
    /// record: the resume cuts the text away and recomputes the cell.
    #[test]
    fn cell_in_the_log_without_a_wal_record_is_recomputed() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-bench-journal-unjournaled");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(1, "a", 4, &records(4)).unwrap();
        drop(j);
        let log = solo(&dir).join("cells.log");
        let journaled = std::fs::metadata(&log).unwrap().len();
        let file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        drive_nn::checkpoint::write_checksummed(&file, |out| write_records(out, &records(4)))
            .unwrap();
        drop(file);

        let j = JournalHandle::resume(&dir, header()).unwrap();
        assert_eq!(std::fs::metadata(&log).unwrap().len(), journaled);
        assert_eq!(j.cell_count(), 1);
        let computed = std::cell::Cell::new(false);
        j.run_cell(2, "b", 4, || {
            computed.set(true);
            (records(4), true)
        });
        assert!(computed.get(), "the unjournaled cell is recomputed");
        assert_eq!(j.cell_count(), 2);
        assert_eq!(j.load_cell(1, 4), Some(records(4)));
        assert_eq!(j.load_cell(2, 4), Some(records(4)));
    }

    /// A directory the older file-per-cell layout wrote is refused with
    /// the typed error, whether its header or a worker's WAL gives it away.
    #[test]
    fn older_layout_is_incompatible() {
        let dir = TestDir::new("repro-bench-journal-old-layout");
        drop(JournalHandle::create(&dir, header()).unwrap());
        let wal = solo(&dir).join("wal.bin");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[..MAGIC.len()].copy_from_slice(OLD_MAGIC);
        std::fs::write(&wal, bytes).unwrap();
        let err = JournalHandle::resume(&dir, header()).unwrap_err();
        assert!(matches!(err, JournalError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("older build"), "{err}");

        let path = dir.join("shard.header");
        let old =
            std::fs::read_to_string(&path)
                .unwrap()
                .replacen(HEADER_MAGIC, OLD_HEADER_MAGIC, 1);
        std::fs::write(&path, old).unwrap();
        let err = JournalHandle::resume(&dir, header()).unwrap_err();
        assert!(matches!(err, JournalError::Incompatible(_)), "{err}");
        assert!(matches!(
            ShardHeader::load(&dir),
            Err(JournalError::Incompatible(_))
        ));
    }

    #[test]
    fn create_discards_a_previous_journal() {
        let dir = TestDir::new("repro-bench-journal-recreate");
        let j = JournalHandle::create(&dir, header()).unwrap();
        j.store_cell(1, "a", 4, &records(4)).unwrap();
        drop(j);
        let j = JournalHandle::create(&dir, header()).unwrap();
        assert_eq!(j.cell_count(), 0);
        assert!(j.load_cell(1, 4).is_none());
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
        let dir = TestDir::new("repro-shard-header");
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-shard-basic");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        let recs = records(4);
        let expected = recs.clone();
        let got = a.run_cell(7, "cell-7", 4, move || (recs, true));
        assert_eq!(got, expected);
        assert_eq!(a.event_count("cell"), 1);
        assert_eq!(a.held_count(), 0, "lease released after publish");
        assert!(!lease(&dir, 7).exists());

        // Worker B never computes: the published cell satisfies it.
        let loaded = b.run_cell(7, "cell-7", 4, || unreachable!("must load, not compute"));
        assert_eq!(loaded, expected);
        assert_eq!(b.event_count("loaded"), 1);

        // An episode-count mismatch is a different cell shape: recompute.
        let recs3 = records(3);
        let got3 = b.run_cell(7, "cell-7x3", 3, move || (recs3.clone(), true));
        assert_eq!(got3.len(), 3);
    }

    /// Lookups go over the workers listed at lookup time: a cell published
    /// by a worker that joined after this one opened still loads, and so
    /// does one its WAL journals after this worker last read it.
    #[test]
    fn cell_of_a_later_joiner_loads() {
        let dir = TestDir::new("repro-journal-late-joiner");
        let early = worker(&dir, "early", DEFAULT_TTL);
        assert!(early.load_cell(5, 4).is_none());
        let late = worker(&dir, "late", DEFAULT_TTL);
        late.store_cell(5, "cell-5", 4, &records(4)).unwrap();
        assert_eq!(early.load_cell(5, 4), Some(records(4)));
        assert!(early.load_cell(5, 3).is_none(), "episode-count mismatch");
        assert!(early.load_cell(6, 2).is_none());
        late.store_cell(6, "cell-6", 2, &records(2)).unwrap();
        assert_eq!(early.load_cell(6, 2), Some(records(2)));
        // A peer's cell whose bytes were altered does not load.
        let log = dir.join("workers").join("late").join("cells.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let last = bytes.len() - 40;
        bytes[last] ^= 0x01;
        std::fs::write(&log, bytes).unwrap();
        assert!(early.load_cell(6, 2).is_none());
        assert_eq!(early.load_cell(5, 4), Some(records(4)));
    }

    /// A worker re-opened under the same id takes over the fresh lease its
    /// killed incarnation left behind at once, instead of waiting out the
    /// TTL; a lease another thread of this process holds is not taken.
    #[test]
    fn restarted_worker_reclaims_its_own_dead_lease_at_once() {
        let dir = TestDir::new("repro-journal-reclaim");
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
    }

    /// A restarted worker links its leases to a new claim file, so its
    /// claims do not renew the leases its dead incarnation left behind:
    /// those still go stale, and a peer steals them.
    #[test]
    fn restarted_worker_does_not_renew_its_dead_incarnations_leases() {
        let dir = TestDir::new("repro-journal-reclaim-fresh-claim");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        assert!(a.try_acquire(27, "cell-27"));
        drop(a);
        age_lease(&dir, 27, 2 * DEFAULT_TTL);
        let b = worker(&dir, "wa", DEFAULT_TTL);
        assert!(b.try_acquire(28, "cell-28"));
        b.renew_held();
        let other = worker(&dir, "wb", DEFAULT_TTL);
        assert!(!other.try_acquire(28, "cell-28"), "a live claim");
        assert!(other.try_acquire(27, "cell-27"), "the dead lease is stale");
        assert_eq!(other.event_count("stolen"), 1);
    }

    /// A worker that held no lease for longer than the TTL (so nothing
    /// renewed its claim file) still takes fresh leases: a new claim is
    /// never stealable the moment it appears.
    #[test]
    fn claim_after_an_idle_spell_is_not_stealable() {
        let dir = TestDir::new("repro-journal-idle-claim");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        assert!(a.try_acquire(33, "cell-33"));
        a.release(33);
        std::fs::File::options()
            .write(true)
            .open(dir.join("workers").join("wa").join("claim"))
            .unwrap()
            .set_modified(std::time::SystemTime::now() - 2 * DEFAULT_TTL)
            .unwrap();
        assert!(a.try_acquire(34, "cell-34"));
        assert!(!b.try_acquire(34, "cell-34"), "a fresh claim is live");
        assert_eq!(b.event_count("stolen"), 0);
    }

    /// A journaled run leaves no file per cell: `leases/` ends empty and
    /// each worker directory holds its four files and nothing else.
    #[test]
    fn journaled_cells_leave_no_per_cell_files() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-journal-layout");
        for owner in ["wa", "wb"] {
            let w = worker(&dir, owner, DEFAULT_TTL);
            for key in 0..20 {
                w.run_cell(key, &format!("cell-{key}"), 3, || (records(3), true));
            }
            w.release_all();
        }
        let names = |path: PathBuf| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(path)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(dir.join("leases")), Vec::<String>::new());
        assert_eq!(
            names(dir.to_path_buf()),
            ["leases", "shard.header", "workers"]
        );
        assert_eq!(names(dir.join("workers")), ["wa", "wb"]);
        for owner in ["wa", "wb"] {
            assert_eq!(
                names(dir.join("workers").join(owner)),
                ["cells.log", "claim", "progress.csv", "wal.bin"]
            );
        }
        assert_eq!(wal_cells(&dir, "wa").len(), 20);
        assert!(wal_cells(&dir, "wb").is_empty(), "wb loaded every cell");
    }

    /// Dropping a handle stops and joins its background thread, which is
    /// the last holder of the shared state once it exits.
    #[test]
    fn dropped_handle_joins_its_background_thread() {
        let dir = TestDir::new("repro-journal-heartbeat-drop");
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
    /// worker: its lease is held and no WAL journals it, so a second handle
    /// on the directory can neither claim nor load it. Once the publish
    /// lands, that handle loads the very records the first one returned.
    #[test]
    fn second_handle_waits_for_the_first_handles_publish() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-journal-pending-second-handle");
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-journal-pending-reuse");
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-journal-exp-after-cells");
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
        let _latch = crate::test_latch::set_latch();
        let dir = TestDir::new("repro-journal-drain-order");
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
            // Hold the WAL append back: the publisher takes the batch and
            // syncs the log, and the leases stay held until the WAL
            // records land too. (Observed with the lock held, asserted
            // once it is released, so a failure cannot strand the drain.)
            let wal = a.shared.wal.lock().unwrap();
            a.pause_publisher(false);
            let taken = || a.outbox().publishing.len() == 2;
            let t0 = std::time::Instant::now();
            while !taken() && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let observed = (taken(), held(), wal_cells(&dir, "wa").is_empty());
            drop(wal);
            drain.join().unwrap();
            assert_eq!(
                observed,
                (true, true, true),
                "(batch taken, leases held, no WAL record) while the WAL append waits"
            );
        });
        let journaled = wal_cells(&dir, "wa");
        assert_eq!(journaled.len(), 2);
        let log = std::fs::File::open(dir.join("workers").join("wa").join("cells.log")).unwrap();
        for record in wal_records(&dir, "wa") {
            let Some((key, at, _)) = parse_cell(&record) else {
                continue;
            };
            assert!(!lease(&dir, key).exists());
            assert_eq!(read_cell(&log, &at), Ok(records(4)), "cell {key}");
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

    /// Crash point between publish and the lease release: the cell is
    /// journaled but the dead owner's lease is still there. A loader reaps that lease
    /// once its heartbeat is stale, and an opportunistic loader leaves a
    /// fresh one (a live owner about to release it) alone.
    #[test]
    fn loader_reaps_stale_lease_of_published_cell() {
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-shard-reap");
        let dead = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        b.set_opportunistic(true);
        for (key, age, reaped) in [(21, 2 * DEFAULT_TTL, true), (23, Duration::ZERO, false)] {
            let label = format!("cell-{key}");
            assert!(dead.try_acquire(key, &label));
            dead.store_cell(key, &label, 4, &records(4)).unwrap();
            age_lease(&dir, key, age);

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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-shard-reap-wait");
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-shard-unclean");
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
        let dir = TestDir::new("repro-shard-steal");
        // Both heartbeat periods (TTL/10 = 3 s) outlast the test, so only
        // `age_lease` ages a lease.
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        // A claims and then "dies" (no heartbeat, never releases).
        assert!(a.try_acquire(11, "cell-11"));
        // Fresh heartbeat: B cannot steal yet.
        assert!(!b.try_acquire(11, "cell-11"));
        // Age the heartbeat past the TTL and B steals.
        age_lease(&dir, 11, 2 * DEFAULT_TTL);
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
        let dir = TestDir::new("repro-shard-heartbeat");
        let a = worker(&dir, "wa", DEFAULT_TTL);
        let b = worker(&dir, "wb", DEFAULT_TTL);
        assert!(a.try_acquire(13, "cell-13"));
        for _ in 0..4 {
            // A stalls past the TTL, then its heartbeat renews the lease.
            age_lease(&dir, 13, 2 * DEFAULT_TTL);
            a.renew_held();
            assert!(
                !b.try_acquire(13, "cell-13"),
                "a renewed lease must never be stolen"
            );
        }
    }

    #[test]
    fn steal_race_has_exactly_one_winner() {
        let dir = TestDir::new("repro-shard-steal-race");
        // Every heartbeat period (3 s) outlasts the test. The victim's lease
        // is aged past the thieves' TTL; the winner's new lease is fresh, so
        // a loser whose rename took it puts it back.
        let a = worker(&dir, "wa", DEFAULT_TTL);
        assert!(a.try_acquire(17, "cell-17"));
        age_lease(&dir, 17, 2 * DEFAULT_TTL);
        // Two stealers race the same stale lease; the exclusive link + the tombstone
        // rename guarantee exactly one winner per round.
        let dir2 = dir.to_path_buf();
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let dir = dir2.clone();
                    scope.spawn(move || {
                        let s = worker(&dir, &format!("thief{i}"), DEFAULT_TTL);
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
        let dir = TestDir::new("repro-shard-contention-prop");
        const WORKERS: usize = 6;
        const ROUNDS: u64 = 25;
        for round in 0..ROUNDS {
            let key = 1000 + round;
            let acquired: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|i| {
                        let dir = dir.to_path_buf();
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
        let _cells = crate::test_latch::run_cells();
        let dir = TestDir::new("repro-shard-opportunistic");
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

    #[test]
    fn shutdown_latch_releases_held_leases_via_run_cell() {
        let _latch = crate::test_latch::set_latch();
        let dir = TestDir::new("repro-shard-shutdown");
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
