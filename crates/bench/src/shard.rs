//! Sharded multi-process runs: crash-safe journal leases + work stealing.
//!
//! PR 5's journal made one process crash-safe; this module makes N of
//! them *coordinate*. Any number of `repro_bench shard <dir>` workers
//! (potentially on different machines, via a shared directory) race to
//! claim grid cells, compute them, and publish the same checksummed
//! sidecars a single-process journal would — then `repro_bench merge
//! <dir>` ([`crate::merge`]) assembles CSVs and manifests byte-identical
//! to a single-process golden run, because every cell is a pure function
//! of its seed namespace and output ordering is defined by the grid, not
//! by completion time.
//!
//! ## Shared-directory layout
//!
//! * `shard.header` — immutable run header (seed, config hash, scale,
//!   experiment selection), written once via atomic rename; every worker
//!   verifies it before touching anything else, so two differently
//!   configured runs can never interleave in one directory.
//! * `leases/cell-<key>.lease` — one claim per in-flight cell, taken by
//!   atomically creating the file (`O_EXCL`). The body carries the owner
//!   id and an FNV checksum; the file mtime is the owner's heartbeat,
//!   renewed by a background thread while the cell computes.
//! * `cells/cell-<key>-<owner>.ckpt` — completed, checksummed episode
//!   sidecars (exactly PR 5's format, owner-tagged so the merge can
//!   attribute — and cross-check — every result).
//! * `workers/<owner>/wal.bin` + `progress.csv` — a per-worker WAL of
//!   `cell` records (the journal frame format) and flush-per-row
//!   progress events ([`drive_metrics::progress`]).
//!
//! ## Work stealing & crash safety
//!
//! A worker that reaches a cell someone else holds waits on a seeded,
//! jittered backoff ([`RetryPolicy::lease_contention`]); when the
//! lease's heartbeat goes older than the TTL the waiter *steals* it: the
//! stale lease is atomically renamed to a per-stealer tombstone (two
//! racing stealers, one `rename` winner), removed, and re-claimed with
//! `O_EXCL`. The victim's partial work is simply ignored — sidecars are
//! written via atomic rename, so there are no partials on disk, and the
//! cell re-runs from its journaled seed. A SIGKILL therefore costs
//! latency, never correctness. If the slow owner was merely stalled and
//! later publishes too, both sidecars carry the same checksum (cells are
//! deterministic) and the merge dedupes them; differing checksums are a
//! hard merge error naming both owners.
//!
//! A polite SIGTERM latches [`drive_core::shutdown`]; the worker unwinds
//! at the next cell boundary and a registered drain hook releases every
//! held lease so peers do not wait out the TTL.

use crate::cli::{CliArgs, CliError};
use crate::engine::{Experiment, RunContext};
use crate::journal::{encode_frame, scan_frames, RunHeader, MAGIC};
use drive_core::retry::RetryPolicy;
use drive_core::shutdown;
use drive_metrics::progress::WorkerProgress;
use drive_seed::fnv1a_64;
use drive_sim::record::{decode_records, encode_records, EpisodeRecord};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default lease TTL: a heartbeat older than this is stealable.
pub const DEFAULT_TTL: Duration = Duration::from_secs(30);

/// First line of the shared `shard.header` file.
const HEADER_MAGIC: &str = "shard-v1";

/// The immutable header of a sharded run: PR 5's [`RunHeader`] plus the
/// experiment selection, so every worker provably runs the same grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHeader {
    /// Seed / config-hash / scale pinning (shared with the journal).
    pub run: RunHeader,
    /// Registry names of the experiments in the run, in order.
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
    /// A human-readable message when the directory already belongs to a
    /// differently configured run, or on I/O failure.
    pub fn write_or_verify(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join("shard.header");
        if !path.exists() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let tmp = dir.join(format!("shard.header.tmp-{}", std::process::id()));
            std::fs::write(&tmp, self.encode()).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
        }
        // Read back what actually landed: under a racing first-write the
        // rename winner is arbitrary, but all correctly configured
        // workers write identical bytes, so any mismatch is a real
        // configuration conflict.
        let on_disk = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let decoded = ShardHeader::decode(&on_disk)
            .map_err(|e| format!("{} is unreadable: {e}", path.display()))?;
        if &decoded != self {
            return Err(format!(
                "{} belongs to a different run (on disk: seed {:016x}, config {:016x}, \
                 scale {}x{}, sel [{}]; this worker: seed {:016x}, config {:016x}, \
                 scale {}x{}, sel [{}])",
                path.display(),
                decoded.run.seed,
                decoded.run.config_hash,
                decoded.run.box_episodes,
                decoded.run.scatter_rounds,
                decoded.selection.join(" "),
                self.run.seed,
                self.run.config_hash,
                self.run.box_episodes,
                self.run.scatter_rounds,
                self.selection.join(" "),
            ));
        }
        Ok(())
    }

    /// Loads and verifies the header of an existing shard directory.
    ///
    /// # Errors
    ///
    /// A human-readable message when the header is absent or corrupt.
    pub fn load(dir: &Path) -> Result<ShardHeader, String> {
        let path = dir.join("shard.header");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ShardHeader::decode(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Knobs of one shard worker.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The shared run directory.
    pub dir: PathBuf,
    /// This worker's id (lease bodies, sidecar tags, WAL/progress paths).
    pub owner: String,
    /// Heartbeats older than this are stealable.
    pub ttl: Duration,
    /// How often the heartbeat thread renews held leases.
    pub heartbeat: Duration,
    /// Seed for the contention-backoff jitter stream (derived from the
    /// run's `SeedTree` per worker, so waits are deterministic per worker
    /// yet decorrelated across workers).
    pub backoff_seed: u64,
}

impl ShardConfig {
    /// A config with the default TTL and a heartbeat at TTL/10.
    pub fn new(dir: impl Into<PathBuf>, owner: impl Into<String>) -> Self {
        let ttl = DEFAULT_TTL;
        ShardConfig {
            dir: dir.into(),
            owner: owner.into(),
            ttl,
            heartbeat: heartbeat_for(ttl),
            backoff_seed: 0,
        }
    }
}

/// The conventional heartbeat period for a TTL: a tenth, floored at
/// 50 ms, so several renewals fit inside any steal window.
pub fn heartbeat_for(ttl: Duration) -> Duration {
    (ttl / 10).max(Duration::from_millis(50))
}

/// Whether `owner` is safe to embed in file names.
pub fn valid_owner(owner: &str) -> bool {
    !owner.is_empty()
        && owner.len() <= 64
        && owner
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Per-worker WAL: PR 5's frame format (`MAGIC`, header record, `cell`
/// records), one file per worker so multi-process appends never
/// interleave. Re-opened (torn tail truncated) when a killed worker
/// restarts under the same id.
struct WorkerWal {
    file: std::fs::File,
}

impl WorkerWal {
    fn open(path: &Path, header: &RunHeader) -> std::io::Result<WorkerWal> {
        if let Ok(bytes) = std::fs::read(path) {
            if bytes.starts_with(MAGIC) {
                let (records, valid_len) = scan_frames(&bytes[MAGIC.len()..]);
                let matches = records
                    .first()
                    .and_then(|line| RunHeader::decode(line).ok())
                    .is_some_and(|h| &h == header);
                if matches {
                    let file = std::fs::OpenOptions::new().write(true).open(path)?;
                    file.set_len((MAGIC.len() + valid_len) as u64)?;
                    let mut file = file;
                    use std::io::Seek as _;
                    file.seek(std::io::SeekFrom::End(0))?;
                    return Ok(WorkerWal { file });
                }
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&encode_frame(&header.encode()))?;
        file.sync_data()?;
        Ok(WorkerWal { file })
    }

    fn append_cell(
        &mut self,
        key: u64,
        digest: u64,
        episodes: usize,
        label: &str,
    ) -> std::io::Result<()> {
        self.file.write_all(&encode_frame(&format!(
            "cell {key:016x} {digest:016x} {episodes} {label}"
        )))?;
        self.file.sync_data()
    }
}

/// The in-process side of one shard worker: lease acquisition, sidecar
/// publication, and the wait/steal loop. Shared via `Arc` between the
/// harness (through [`RunContext::shard`](crate::engine::RunContext)),
/// the heartbeat thread, and the shutdown drain hook.
pub struct ShardState {
    config: ShardConfig,
    backoff: RetryPolicy,
    held: Mutex<HashSet<u64>>,
    wal: Mutex<WorkerWal>,
    progress: Mutex<WorkerProgress>,
    heartbeat_stop: Arc<AtomicBool>,
    opportunistic: AtomicBool,
}

/// A held lease, released on drop (so an unwinding cell — panic or
/// graceful shutdown — frees its claim immediately).
struct LeaseGuard<'a> {
    state: &'a ShardState,
    key: u64,
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        self.state.release(self.key);
    }
}

impl ShardState {
    /// Opens (or re-opens) this worker's slice of the shard directory:
    /// lease/cell areas, the per-worker WAL (torn tail truncated on
    /// restart), and a fresh progress log.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; rejects invalid owner ids.
    pub fn open(config: ShardConfig, header: &RunHeader) -> std::io::Result<ShardState> {
        if !valid_owner(&config.owner) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "invalid worker id '{}' (use [A-Za-z0-9._-], max 64 chars)",
                    config.owner
                ),
            ));
        }
        std::fs::create_dir_all(config.dir.join("leases"))?;
        std::fs::create_dir_all(config.dir.join("cells"))?;
        let worker_dir = config.dir.join("workers").join(&config.owner);
        std::fs::create_dir_all(&worker_dir)?;
        let wal = WorkerWal::open(&worker_dir.join("wal.bin"), header)?;
        let progress = WorkerProgress::create(worker_dir.join("progress.csv"), &config.owner)?;
        Ok(ShardState {
            config,
            backoff: RetryPolicy::lease_contention(),
            held: Mutex::new(HashSet::new()),
            wal: Mutex::new(wal),
            progress: Mutex::new(progress),
            heartbeat_stop: Arc::new(AtomicBool::new(false)),
            opportunistic: AtomicBool::new(false),
        })
    }

    /// Switches between the two sweep modes. Every worker traverses the
    /// grid in the same order, so a worker that *waited* on every busy
    /// cell would stay in lockstep behind whoever claimed the first cell
    /// — N processes, single-process wall clock. Instead the driver runs
    /// each experiment twice: an **opportunistic** pass (busy cells are
    /// skipped with placeholder records, so workers divide the grid
    /// ~evenly and compute in parallel; the pass's aggregate output is
    /// discarded — workers never sink outputs), then a **completing**
    /// pass in which every cell loads from a published sidecar, is
    /// computed under a fresh claim, or is block-waited on (steals
    /// included) until its owner publishes.
    pub fn set_opportunistic(&self, on: bool) {
        self.opportunistic.store(on, Ordering::SeqCst);
    }

    /// This worker's id.
    pub fn owner(&self) -> &str {
        &self.config.owner
    }

    /// The `event=count` progress summary (see
    /// [`WorkerProgress::summary`]).
    pub fn summary(&self) -> String {
        self.progress.lock().expect("progress lock").summary()
    }

    /// Count of one progress event kind (test/observability hook).
    pub fn event_count(&self, event: &str) -> u64 {
        self.progress.lock().expect("progress lock").count(event)
    }

    /// Number of leases currently held (test/observability hook).
    pub fn held_count(&self) -> usize {
        self.held.lock().expect("held lock").len()
    }

    fn lease_path(&self, key: u64) -> PathBuf {
        self.config
            .dir
            .join("leases")
            .join(format!("cell-{key:016x}.lease"))
    }

    fn sidecar_path(&self, key: u64) -> PathBuf {
        self.config
            .dir
            .join("cells")
            .join(format!("cell-{key:016x}-{}.ckpt", self.config.owner))
    }

    fn log(&self, event: &'static str, cell: &str, detail: &str) {
        let _ = self
            .progress
            .lock()
            .expect("progress lock")
            .event(event, cell, detail);
    }

    /// Runs one grid cell under the lease protocol: load a published
    /// sidecar if any worker already finished it, otherwise claim the
    /// cell (stealing a stale claim if needed) and compute it, otherwise
    /// wait out the current owner on the jittered backoff — or, in an
    /// opportunistic sweep (see [`ShardState::set_opportunistic`]),
    /// return placeholder records immediately so the worker moves on to
    /// unclaimed work. `compute` returns the records plus a clean flag;
    /// only clean, complete cells publish (mirroring the single-process
    /// journal's rule), so placeholders can never leak into a sidecar.
    pub fn run_cell(
        &self,
        key: u64,
        label: &str,
        episodes: usize,
        compute: impl FnOnce() -> (Vec<EpisodeRecord>, bool),
    ) -> Vec<EpisodeRecord> {
        let mut attempt = 0usize;
        loop {
            if let Some(records) = self.try_load(key, episodes) {
                if attempt > 0 {
                    self.log("waited", label, &format!("{attempt} poll(s)"));
                }
                self.reap_lease(key, label);
                self.log("loaded", label, "");
                return records;
            }
            // Graceful-shutdown safe point: between cells (and between
            // polls of a contended cell) nothing is held.
            if shutdown::requested() {
                std::panic::panic_any(shutdown::ShutdownRequested);
            }
            if self.try_acquire(key, label) {
                let guard = LeaseGuard { state: self, key };
                let (records, clean) = compute();
                if clean && records.len() == episodes {
                    if let Err(e) = self.publish(key, label, episodes, &records) {
                        eprintln!(
                            "warning: worker {} could not publish cell {label}: {e}",
                            self.config.owner
                        );
                    }
                } else {
                    eprintln!(
                        "warning: worker {} leaves cell {label} unpublished \
                         ({} of {episodes} episode(s), clean={clean})",
                        self.config.owner,
                        records.len()
                    );
                }
                drop(guard);
                return records;
            }
            // Contended. Opportunistic sweep: skip it — another worker
            // owns it, our aggregate is discarded anyway, and there is
            // unclaimed work further along the grid.
            if self.opportunistic.load(Ordering::SeqCst) {
                self.log("deferred", label, "");
                return vec![EpisodeRecord::default(); episodes];
            }
            // Completing sweep: wait on this worker's deterministic
            // jitter stream, decorrelated per cell so parked workers do
            // not re-poll in lockstep.
            let pause = self.backoff.backoff_for(
                attempt.min(self.backoff.max_attempts),
                self.config.backoff_seed ^ key,
            );
            attempt += 1;
            std::thread::sleep(pause.max(Duration::from_millis(1)));
        }
    }

    /// Clears the lease of a published cell. An owner killed between
    /// publishing and releasing leaves its lease behind, and nobody would
    /// ever steal it: every later visitor loads the sidecar instead. A
    /// stale lease is taken through the tombstone arbiter (see
    /// [`ShardState::take_stale`]), never unlinked outright. A fresh one is
    /// left alone in an opportunistic sweep; the completing sweep waits it
    /// out like a busy cell, on the same backoff, until its owner releases
    /// it or its heartbeat stops and it goes stale.
    fn reap_lease(&self, key: u64, label: &str) {
        for attempt in 0.. {
            if let Some(prev_owner) = self.take_stale(key) {
                self.log("reaped", label, &format!("from {prev_owner}"));
                return;
            }
            if self.opportunistic.load(Ordering::SeqCst)
                || shutdown::requested()
                || !self.lease_path(key).exists()
            {
                return;
            }
            let pause = self.backoff.backoff_for(
                attempt.min(self.backoff.max_attempts),
                self.config.backoff_seed ^ key,
            );
            std::thread::sleep(pause.max(Duration::from_millis(1)));
        }
    }

    /// Loads any published sidecar for `key` (whoever computed it):
    /// checkpoint checksum verified, records decoded, episode count
    /// checked. Every failure degrades to "not published yet".
    fn try_load(&self, key: u64, episodes: usize) -> Option<Vec<EpisodeRecord>> {
        let prefix = format!("cell-{key:016x}-");
        let entries = std::fs::read_dir(self.config.dir.join("cells")).ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with(&prefix) || !name.ends_with(".ckpt") {
                continue;
            }
            let Ok(text) = drive_nn::checkpoint::load_from_file(entry.path()) else {
                continue; // mid-write or corrupt: treat as unpublished
            };
            match decode_records(&text) {
                Ok(records) if records.len() == episodes => return Some(records),
                _ => continue,
            }
        }
        None
    }

    /// Tries to claim `key`: `O_EXCL` create first, stale-steal second.
    /// Public for the `lease_claim_ns` micro-bench; experiments go
    /// through [`ShardState::run_cell`], which drives this internally.
    pub fn try_acquire(&self, key: u64, label: &str) -> bool {
        let path = self.lease_path(key);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                let body = format!("lease {key:016x} {}\n", self.config.owner);
                let sum = fnv1a_64(body.as_bytes());
                let _ = file.write_all(format!("{body}sum {sum:016x}\n").as_bytes());
                let _ = file.sync_data();
                self.held.lock().expect("held lock").insert(key);
                self.log("claimed", label, "");
                true
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => self.try_steal(key, label),
            Err(e) => {
                eprintln!(
                    "warning: worker {} lease create failed for {label}: {e}",
                    self.config.owner
                );
                false
            }
        }
    }

    /// Removes `key`'s lease if its heartbeat is older than the TTL and
    /// returns its previous owner. The rename-to-tombstone is the atomic
    /// arbiter: of two racing takers exactly one `rename` succeeds, and a
    /// lease with a fresh heartbeat (a live owner) is never touched.
    fn take_stale(&self, key: u64) -> Option<String> {
        let path = self.lease_path(key);
        // A lease that vanished meanwhile was released by its owner.
        let age = std::fs::metadata(&path)
            .ok()?
            .modified()
            .ok()?
            .elapsed()
            .ok()?;
        if age <= self.config.ttl {
            return None;
        }
        let tomb = self
            .config
            .dir
            .join("leases")
            .join(format!("cell-{key:016x}.steal-{}", self.config.owner));
        // Failure means another taker won the rename.
        std::fs::rename(&path, &tomb).ok()?;
        let prev_owner = std::fs::read_to_string(&tomb)
            .ok()
            .and_then(|text| {
                text.lines()
                    .next()
                    .and_then(|l| l.split_whitespace().nth(2).map(str::to_string))
            })
            .unwrap_or_else(|| "(unreadable)".to_string());
        let _ = std::fs::remove_file(&tomb);
        Some(prev_owner)
    }

    /// Steals `key`'s lease if its heartbeat is older than the TTL (see
    /// [`ShardState::take_stale`]); a losing stealer re-polls.
    fn try_steal(&self, key: u64, label: &str) -> bool {
        let path = self.lease_path(key);
        let Some(prev_owner) = self.take_stale(key) else {
            return false;
        };
        self.log("stolen", label, &format!("from {prev_owner}"));
        // The slot is free now, but a third worker may legitimately take
        // it first — stealing guarantees progress, not that *we* win.
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                let body = format!("lease {key:016x} {}\n", self.config.owner);
                let sum = fnv1a_64(body.as_bytes());
                let _ = file.write_all(format!("{body}sum {sum:016x}\n").as_bytes());
                let _ = file.sync_data();
                self.held.lock().expect("held lock").insert(key);
                self.log("claimed", label, "post-steal");
                true
            }
            Err(_) => false,
        }
    }

    /// Publishes a completed cell: atomic checksummed sidecar first, WAL
    /// record second (sidecar-first ordering, as PR 5), progress row
    /// last.
    fn publish(
        &self,
        key: u64,
        label: &str,
        episodes: usize,
        records: &[EpisodeRecord],
    ) -> std::io::Result<()> {
        let text = encode_records(records);
        let digest = fnv1a_64(text.as_bytes());
        drive_nn::checkpoint::save_to_file(self.sidecar_path(key), &text)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.wal
            .lock()
            .expect("wal lock")
            .append_cell(key, digest, episodes, label)?;
        self.log("computed", label, &format!("{digest:016x}"));
        Ok(())
    }

    /// Releases `key` if this worker still owns it (a thief may have
    /// taken a stalled lease; unlinking someone else's claim would let a
    /// third worker double-acquire).
    pub fn release(&self, key: u64) {
        self.held.lock().expect("held lock").remove(&key);
        let path = self.lease_path(key);
        let ours = std::fs::read_to_string(&path).is_ok_and(|text| {
            text.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(2))
                == Some(self.config.owner.as_str())
        });
        if ours {
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Releases every held lease (drain hook / end-of-run cleanup).
    pub fn release_all(&self) {
        let keys: Vec<u64> = self
            .held
            .lock()
            .expect("held lock")
            .iter()
            .copied()
            .collect();
        for key in keys {
            self.release(key);
            self.log("released", &format!("{key:016x}"), "drain");
        }
    }

    /// Spawns the heartbeat thread: every `config.heartbeat`, bump the
    /// mtime of every held lease (owner-checked, so a stolen lease is
    /// never resurrected). Returns a handle that stops the thread when
    /// dropped.
    pub fn spawn_heartbeat(self: &Arc<Self>) -> HeartbeatHandle {
        let state = Arc::clone(self);
        let stop = Arc::clone(&self.heartbeat_stop);
        let handle = std::thread::spawn(move || loop {
            if state.heartbeat_stop.load(Ordering::SeqCst) {
                return;
            }
            state.renew_held();
            std::thread::sleep(state.config.heartbeat);
        });
        HeartbeatHandle {
            stop,
            handle: Some(handle),
        }
    }

    /// One heartbeat pass (also callable directly from tests).
    pub fn renew_held(&self) {
        let keys: Vec<u64> = self
            .held
            .lock()
            .expect("held lock")
            .iter()
            .copied()
            .collect();
        for key in keys {
            let path = self.lease_path(key);
            let ours = std::fs::read_to_string(&path).is_ok_and(|text| {
                text.lines()
                    .next()
                    .and_then(|l| l.split_whitespace().nth(2))
                    == Some(self.config.owner.as_str())
            });
            if !ours {
                // Stolen out from under us: stop renewing (and never
                // unlink — it belongs to the thief now).
                self.held.lock().expect("held lock").remove(&key);
                continue;
            }
            if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
                let _ = file.set_modified(std::time::SystemTime::now());
            }
        }
    }
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardState")
            .field("dir", &self.config.dir)
            .field("owner", &self.config.owner)
            .field("ttl", &self.config.ttl)
            .finish_non_exhaustive()
    }
}

/// Stops the heartbeat thread when dropped.
pub struct HeartbeatHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

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
    /// Heartbeat period (`--heartbeat-ms`, default TTL/10).
    pub heartbeat: Duration,
    /// Everything else: selection, scale, pipeline, fleet flags.
    pub cli: CliArgs,
}

impl ShardCli {
    /// Parses `repro_bench shard <dir> [--worker <id>] [--ttl-ms <n>]
    /// [--heartbeat-ms <n>] [<experiment>...] [standard flags]`.
    ///
    /// # Errors
    ///
    /// [`CliError`] for malformed flags or a missing directory operand.
    pub fn parse(args: &[String]) -> Result<ShardCli, CliError> {
        let mut rest: Vec<String> = Vec::new();
        let mut dir: Option<PathBuf> = None;
        let mut worker: Option<String> = None;
        let mut ttl = DEFAULT_TTL;
        let mut heartbeat: Option<Duration> = None;
        let mut it = args.iter().peekable();
        let millis = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
         -> Result<Duration, CliError> {
            let raw = it
                .next()
                .ok_or_else(|| CliError::MissingValue(flag.to_string()))?;
            let ms: u64 = raw
                .parse()
                .ok()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| CliError::InvalidValue(flag.to_string(), raw.clone()))?;
            Ok(Duration::from_millis(ms))
        };
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
                "--ttl-ms" => ttl = millis(&mut it, "--ttl-ms")?,
                "--heartbeat-ms" => heartbeat = Some(millis(&mut it, "--heartbeat-ms")?),
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
            heartbeat: heartbeat.unwrap_or_else(|| heartbeat_for(ttl)),
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
    let scale = parsed.cli.scale();
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
    header
        .write_or_verify(&parsed.dir)
        .map_err(CliError::Resume)?;
    let backoff_seed = drive_seed::SeedTree::root(scale.seed)
        .child("shard")
        .child(&parsed.worker)
        .seed();
    let state = Arc::new(
        ShardState::open(
            ShardConfig {
                dir: parsed.dir.clone(),
                owner: parsed.worker.clone(),
                ttl: parsed.ttl,
                heartbeat: parsed.heartbeat,
                backoff_seed,
            },
            &header.run,
        )
        .map_err(|e| CliError::Resume(e.to_string()))?,
    );
    // A polite SIGTERM unwinds at the next safe point; the drain hook
    // frees this worker's claims so peers never wait out the TTL.
    let drain_state = Arc::clone(&state);
    shutdown::register_drain(move || drain_state.release_all());
    let _heartbeat = state.spawn_heartbeat();

    // Pass 1 — opportunistic: claim-or-skip divides the grid between
    // workers near-evenly, which is where the multi-process scaling comes
    // from. The pass's aggregate output is discarded (placeholders stand
    // in for busy cells), so even a panic in some experiment's
    // aggregation over placeholder data costs nothing: everything this
    // worker computed is already published, and pass 2 fills the rest.
    // Pass 2 — completing: every cell loads, computes, or block-waits;
    // afterwards this worker has seen a complete, real result set.
    for (pass, opportunistic) in [(1, true), (2, false)] {
        state.set_opportunistic(opportunistic);
        for exp in experiments {
            let mut ctx = RunContext::new(&artifacts, &config, scale);
            ctx.shard = Some(Arc::clone(&state));
            ctx.fleet = parsed.cli.fleet;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(&ctx)));
            match outcome {
                Ok(_) => eprintln!(
                    "[shard] worker {} pass {pass} finished {}",
                    parsed.worker,
                    exp.name()
                ),
                Err(payload) => {
                    if payload.is::<shutdown::ShutdownRequested>() {
                        shutdown::drain();
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
    state.release_all();
    eprintln!("[shard] worker {} done: {}", parsed.worker, state.summary());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> RunHeader {
        RunHeader {
            seed: 10_000,
            config_hash: 0x1234,
            box_episodes: 4,
            scatter_rounds: 2,
        }
    }

    fn state(dir: &Path, owner: &str, ttl: Duration) -> ShardState {
        let mut config = ShardConfig::new(dir, owner);
        config.ttl = ttl;
        config.heartbeat = heartbeat_for(ttl);
        ShardState::open(config, &header()).unwrap()
    }

    fn records(n: usize) -> Vec<EpisodeRecord> {
        (0..n)
            .map(|i| EpisodeRecord {
                steps: 5 + i,
                dt: 0.1,
                ..EpisodeRecord::default()
            })
            .collect()
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
        let err = other.write_or_verify(&dir).unwrap_err();
        assert!(err.contains("different run"), "{err}");
    }

    #[test]
    fn first_worker_computes_second_loads() {
        let dir = temp("repro-shard-basic");
        let a = state(&dir, "wa", DEFAULT_TTL);
        let b = state(&dir, "wb", DEFAULT_TTL);
        let recs = records(4);
        let expected = recs.clone();
        let got = a.run_cell(7, "cell-7", 4, move || (recs, true));
        assert_eq!(got, expected);
        assert_eq!(a.event_count("computed"), 1);
        assert_eq!(a.held_count(), 0, "lease released after publish");
        assert!(!dir
            .join("leases")
            .join(format!("cell-{:016x}.lease", 7))
            .exists());

        // Worker B never computes: the published sidecar satisfies it.
        let loaded = b.run_cell(7, "cell-7", 4, || unreachable!("must load, not compute"));
        assert_eq!(loaded, expected);
        assert_eq!(b.event_count("loaded"), 1);

        // An episode-count mismatch is a different cell shape: recompute.
        let recs3 = records(3);
        let got3 = b.run_cell(7, "cell-7x3", 3, move || (recs3.clone(), true));
        assert_eq!(got3.len(), 3);
    }

    /// Crash point between `publish` and the lease release: the sidecar is
    /// on disk but the dead owner's lease is not. A loader reaps that lease
    /// once its heartbeat is stale, and an opportunistic loader leaves a
    /// fresh one (a live owner about to release it) alone.
    #[test]
    fn loader_reaps_stale_lease_of_published_cell() {
        let dir = temp("repro-shard-reap");
        let dead = state(&dir, "wa", DEFAULT_TTL);
        let b = state(&dir, "wb", DEFAULT_TTL);
        b.set_opportunistic(true);
        let lease = |key: u64| dir.join("leases").join(format!("cell-{key:016x}.lease"));
        for (key, age, reaped) in [(21, 2 * DEFAULT_TTL, true), (23, Duration::ZERO, false)] {
            let label = format!("cell-{key}");
            assert!(dead.try_acquire(key, &label));
            dead.publish(key, &label, 4, &records(4)).unwrap();
            std::fs::OpenOptions::new()
                .write(true)
                .open(lease(key))
                .unwrap()
                .set_modified(std::time::SystemTime::now() - age)
                .unwrap();

            let got = b.run_cell(key, &label, 4, || unreachable!("must load, not compute"));
            assert_eq!(got, records(4));
            assert_eq!(!lease(key).exists(), reaped, "{label}: age {age:?}");
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
        let dead = state(&dir, "wa", ttl);
        let b = state(&dir, "wb", ttl);
        assert!(dead.try_acquire(25, "cell-25"));
        dead.publish(25, "cell-25", 4, &records(4)).unwrap();

        let got = b.run_cell(25, "cell-25", 4, || unreachable!("must load, not compute"));
        assert_eq!(got, records(4));
        assert!(!dir
            .join("leases")
            .join(format!("cell-{:016x}.lease", 25))
            .exists());
        assert_eq!(b.event_count("reaped"), 1);
    }

    #[test]
    fn unclean_cells_do_not_publish() {
        let dir = temp("repro-shard-unclean");
        let a = state(&dir, "wa", DEFAULT_TTL);
        let recs = records(4);
        let _ = a.run_cell(9, "cell-9", 4, move || (recs, false));
        assert_eq!(a.event_count("computed"), 0);
        assert!(a.try_load(9, 4).is_none());
        // The lease was still released, so another worker can claim it.
        let b = state(&dir, "wb", DEFAULT_TTL);
        let recs = records(4);
        let got = b.run_cell(9, "cell-9", 4, move || (recs, true));
        assert_eq!(got.len(), 4);
        assert_eq!(b.event_count("computed"), 1);
    }

    #[test]
    fn stale_heartbeat_is_stolen_fresh_is_not() {
        let dir = temp("repro-shard-steal");
        let ttl = Duration::from_millis(100);
        let a = state(&dir, "wa", ttl);
        let b = state(&dir, "wb", ttl);
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
        assert!(dir
            .join("leases")
            .join(format!("cell-{:016x}.lease", 11))
            .exists());
        // And A's heartbeat must not resurrect it as A's.
        a.renew_held();
        assert_eq!(a.held_count(), 0);
        b.release(11);
        assert!(!dir
            .join("leases")
            .join(format!("cell-{:016x}.lease", 11))
            .exists());
    }

    #[test]
    fn heartbeat_renewal_prevents_stealing() {
        let dir = temp("repro-shard-heartbeat");
        let ttl = Duration::from_millis(120);
        let a = state(&dir, "wa", ttl);
        let b = state(&dir, "wb", ttl);
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
        let ttl = Duration::from_millis(50);
        let a = state(&dir, "wa", ttl);
        assert!(a.try_acquire(17, "cell-17"));
        std::thread::sleep(Duration::from_millis(80));
        // Two stealers race the same stale lease; O_EXCL + the tombstone
        // rename guarantee exactly one winner per round.
        let dir2 = dir.clone();
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let dir = dir2.clone();
                    scope.spawn(move || {
                        let s = state(&dir, &format!("thief{i}"), Duration::from_millis(50));
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

    /// Satellite property: N contending workers never double-acquire.
    /// Every round, all workers race for the same fresh key; exactly one
    /// may hold it at a time, and after its release exactly one of the
    /// rest claims it next — counted over many seeded rounds.
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
                            let s = state(&dir, &format!("w{i}"), DEFAULT_TTL);
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
        let a = state(&dir, "wa", DEFAULT_TTL);
        let b = state(&dir, "wb", DEFAULT_TTL);
        assert!(a.try_acquire(31, "cell-31"));
        b.set_opportunistic(true);
        // Busy cell: skipped with placeholders instead of waiting.
        let got = b.run_cell(31, "cell-31", 4, || unreachable!("busy cell must defer"));
        assert_eq!(got, vec![EpisodeRecord::default(); 4]);
        assert_eq!(b.event_count("deferred"), 1);
        assert_eq!(b.event_count("computed"), 0, "placeholders never publish");
        // Unclaimed cell: computed and published as normal.
        let recs = records(4);
        let expected = recs.clone();
        let got = b.run_cell(32, "cell-32", 4, move || (recs, true));
        assert_eq!(got, expected);
        assert_eq!(b.event_count("computed"), 1);
        // Completing mode sees the published result, not the placeholder.
        b.set_opportunistic(false);
        let reloaded = b.run_cell(32, "cell-32", 4, || unreachable!("must load"));
        assert_eq!(reloaded, expected);
        a.release(31);
    }

    #[test]
    fn shutdown_latch_releases_held_leases_via_run_cell() {
        let dir = temp("repro-shard-shutdown");
        let a = Arc::new(state(&dir, "wa", DEFAULT_TTL));
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
        assert!(
            !dir.join("leases")
                .join(format!("cell-{:016x}.lease", 21))
                .exists(),
            "lease file removed on unwind"
        );
        // And a latched shutdown observed while *waiting* unwinds too.
        let b = state(&dir, "wb", DEFAULT_TTL);
        assert!(b.try_acquire(22, "cell-22"));
        shutdown::trigger();
        let waiting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run_cell(22, "cell-22", 4, || (records(4), true))
        }));
        shutdown::clear_for_test();
        assert!(waiting.is_err(), "waiter must honor the shutdown latch");
        // Drain-hook path: release_all frees everything still held.
        assert!(a.try_acquire(23, "cell-23"));
        a.release_all();
        assert_eq!(a.held_count(), 0);
        assert!(!dir
            .join("leases")
            .join(format!("cell-{:016x}.lease", 23))
            .exists());
    }

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
            "--smoke",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = ShardCli::parse(&args).unwrap();
        assert_eq!(parsed.dir, PathBuf::from("/tmp/shared"));
        assert_eq!(parsed.worker, "w1");
        assert_eq!(parsed.ttl, Duration::from_millis(2000));
        assert_eq!(parsed.heartbeat, heartbeat_for(parsed.ttl));
        assert_eq!(parsed.cli.names, ["fig4"]);
        assert!(parsed.cli.quick && parsed.cli.smoke);

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
