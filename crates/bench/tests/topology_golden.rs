//! Golden guard for the road-topology refactor.
//!
//! The default scenario is still the paper's straight freeway, and every
//! x-aware road query collapses to the legacy straight-road formulas
//! there — so the figure artifacts must be byte-identical to the CSV
//! captured before the topology abstraction landed. This test replays the
//! fig4 smoke/quick run through the engine, serially and via the
//! `--fleet`-style batched path, and compares against the checked-in
//! fixture. If it fails, the refactor changed the default freeway's
//! numerics — that is a bug, not a re-bless.

use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use repro_bench::engine::{self, Registry, RunContext};
use repro_bench::harness::Scale;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

#[path = "../src/test_dir.rs"]
mod test_dir;
use test_dir::TestDir;

/// One quick-trained artifact set shared by both runs.
fn setup() -> (&'static Artifacts, &'static PipelineConfig) {
    static SETUP: OnceLock<(Artifacts, PipelineConfig)> = OnceLock::new();
    let (a, c) = SETUP.get_or_init(|| {
        // Used from memory: the saved copy is removed on return.
        let dir = TestDir::new("repro-bench-topology-golden-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    });
    (a, c)
}

fn out_dir(name: &str) -> TestDir {
    TestDir::new(&format!("repro-bench-topology-golden-{name}"))
}

fn fixture() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/fig4_smoke_quick_golden.csv");
    fs::read_to_string(path).expect("pre-refactor fixture is checked in")
}

fn fig4_csv(fleet: Option<usize>, dir_tag: &str) -> String {
    let (artifacts, config) = setup();
    let dir = out_dir(dir_tag);
    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());
    ctx.fleet = fleet;
    let exp = Registry::find("fig4").expect("registered");
    engine::execute(exp, &ctx).expect("engine run");
    fs::read_to_string(dir.join("fig4.csv")).expect("fig4 csv written")
}

#[test]
fn fig4_serial_is_byte_identical_to_pre_refactor_golden() {
    assert_eq!(
        fig4_csv(None, "serial"),
        fixture(),
        "default-freeway fig4 CSV must not change; do not re-bless"
    );
}

#[test]
fn fig4_fleet16_is_byte_identical_to_pre_refactor_golden() {
    assert_eq!(
        fig4_csv(Some(16), "fleet16"),
        fixture(),
        "fleet-batched fig4 CSV must not change; do not re-bless"
    );
}
