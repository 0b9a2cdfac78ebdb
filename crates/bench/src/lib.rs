#![warn(missing_docs)]

//! # repro-bench — the experiment engine for every figure of the paper
//!
//! Each module of [`experiments`] regenerates one figure (or the baseline /
//! ablations) from the trained [`attack_core::pipeline::Artifacts`]. All of
//! them implement the [`engine::Experiment`] trait and register in
//! [`engine::Registry`]; the CLI ([`cli`]) behind the `repro_bench`
//! binary dispatches through the registry, and [`engine::execute`] emits a
//! [`manifest::Manifest`] next to each run's CSVs. The `figures` bench
//! target runs the same engine at smoke scale under `cargo bench`;
//! criterion micro-benches of the substrate live in the `perf` bench
//! target, and `repro_bench bench-compare` ([`benchcmp`]) gates their
//! `PERF_JSON` export against the checked-in `BENCH_perf.json` baseline.

pub mod benchcmp;
pub mod cli;
pub mod engine;
pub mod experiments;
pub mod harness;
pub mod journal;
mod json;
pub mod loadgen;
pub mod manifest;
pub mod merge;
pub mod perf;
pub mod resilience;
pub mod servecli;
pub mod shard;
#[cfg(test)]
mod test_dir;
#[cfg(test)]
mod test_latch;

pub use benchcmp::{compare_files, BenchDelta, BenchStatus, Comparison};
pub use engine::{execute, EngineRun, Experiment, ExperimentOutput, Registry, RunContext};
pub use harness::{attacked_records, build_agent, AgentKind, Scale};
pub use journal::{JournalError, JournalHandle, RunHeader, ShardHeader};
pub use loadgen::{find_max_qps, run_loadgen, LoadgenConfig, LoadgenReport, LogicalStats};
pub use manifest::{Manifest, OutputEntry};
pub use perf::{PerfReport, PerfSample, ThroughputProbe};
