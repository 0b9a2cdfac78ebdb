//! Property test for the deterministic parallel executor: the Fig. 4
//! pipeline must emit byte-identical CSV output for any worker count.
//!
//! Artifacts are trained once (quick preset, cached on disk and in a
//! `OnceLock`); per-worker-count CSVs are memoized so the 64 generated
//! cases cost at most one figure run per distinct worker count.

use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use proptest::prelude::*;
use repro_bench::engine::RunContext;
use repro_bench::experiments::fig4;
use repro_bench::harness::Scale;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

#[path = "../src/test_dir.rs"]
mod test_dir;
use test_dir::TestDir;

static SETUP: OnceLock<(Artifacts, PipelineConfig)> = OnceLock::new();
static CSV_CACHE: OnceLock<Mutex<HashMap<usize, String>>> = OnceLock::new();

fn setup() -> &'static (Artifacts, PipelineConfig) {
    SETUP.get_or_init(|| {
        // Used from memory: the saved copy is removed on return.
        let dir = TestDir::new("repro-bench-par-determinism-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    })
}

/// A reduced scale: enough episodes for multi-chunk work distribution,
/// small enough to run many worker counts.
fn scale() -> Scale {
    Scale {
        box_episodes: 2,
        scatter_rounds: 1,
        seed: 10_000,
    }
}

/// The Fig. 4 CSV produced with `workers` par_map worker threads.
fn fig4_csv(workers: usize) -> String {
    let cache = CSV_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&workers) {
        return hit.clone();
    }
    let (artifacts, config) = setup();
    // A fresh context per worker count: the memo must not leak results
    // across counts, or the invariance check would compare a cache to
    // itself.
    let csv = drive_par::with_jobs(workers, || {
        let ctx = RunContext::new(artifacts, config, scale());
        fig4::run(&ctx).to_csv().to_csv_string()
    });
    cache.lock().unwrap().insert(workers, csv.clone());
    csv
}

#[test]
fn fig4_csv_identical_for_1_2_and_8_workers() {
    let serial = fig4_csv(1);
    assert!(serial.lines().count() > 1, "csv has header + rows");
    for workers in [2usize, 8] {
        assert_eq!(fig4_csv(workers), serial, "workers={workers}");
    }
}

proptest! {
    /// Any worker count in 1..=8 reproduces the serial CSV byte-for-byte.
    #[test]
    fn fig4_csv_is_worker_count_invariant(workers in any::<u8>()) {
        let workers = 1 + (workers % 8) as usize;
        prop_assert_eq!(fig4_csv(workers), fig4_csv(1));
    }
}
