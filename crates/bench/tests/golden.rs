//! Golden snapshot tests for the experiment engine.
//!
//! The engine must be a pure dispatch layer: running an experiment through
//! [`repro_bench::engine::execute`] has to produce byte-identical CSVs to
//! calling the experiment module directly with the same seed, and the
//! manifest written next to the CSVs has to round-trip and verify against
//! the files actually on disk.

use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use repro_bench::engine::{self, Registry, RunContext};
use repro_bench::experiments::{baseline, fig4};
use repro_bench::harness::Scale;
use repro_bench::manifest::Manifest;
use std::fs;
use std::sync::OnceLock;

#[path = "../src/test_dir.rs"]
mod test_dir;
use test_dir::TestDir;

/// One quick-trained artifact set shared by every test in this file.
fn setup() -> (&'static Artifacts, &'static PipelineConfig) {
    static SETUP: OnceLock<(Artifacts, PipelineConfig)> = OnceLock::new();
    let (a, c) = SETUP.get_or_init(|| {
        // Used from memory: the saved copy is removed on return.
        let dir = TestDir::new("repro-bench-golden-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    });
    (a, c)
}

fn out_dir(name: &str) -> TestDir {
    TestDir::new(&format!("repro-bench-golden-{name}"))
}

#[test]
fn registry_covers_all_experiments() {
    let names: Vec<&str> = Registry::all().iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        [
            "baseline",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ablations",
            "scenario-matrix"
        ]
    );
}

#[test]
fn engine_dispatch_matches_direct_module_run() {
    let (artifacts, config) = setup();

    // Engine path: dispatch through the registry with a CSV sink.
    let dir = out_dir("dispatch");
    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());
    for name in ["baseline", "fig4"] {
        let exp = Registry::find(name).expect("registered");
        engine::execute(exp, &ctx).expect("engine run");
    }

    // Direct path: a fresh context (fresh memo) at the same seed, calling
    // the modules the way their unit tests do.
    let direct = RunContext::new(artifacts, config, Scale::smoke());
    let baseline_csv = baseline::run(&direct).to_csv().to_csv_string();
    let fig4_csv = fig4::run(&direct).to_csv().to_csv_string();

    let on_disk = |stem: &str| fs::read_to_string(dir.join(format!("{stem}.csv"))).unwrap();
    assert_eq!(on_disk("baseline"), baseline_csv);
    assert_eq!(on_disk("fig4"), fig4_csv);
}

#[test]
fn manifest_round_trips_and_checksums_match_outputs() {
    let (artifacts, config) = setup();
    let dir = out_dir("manifest");
    let mut ctx = RunContext::new(artifacts, config, Scale::smoke());
    ctx.csv_dir = Some(dir.to_path_buf());

    let exp = Registry::find("baseline").expect("registered");
    let run = engine::execute(exp, &ctx).expect("engine run");
    let emitted = run.manifest.expect("csv sink implies a manifest");

    // Round-trip through the JSON on disk.
    let path = dir.join("baseline.manifest.json");
    let loaded = Manifest::load(&path).expect("manifest parses");
    assert_eq!(loaded.experiment, "baseline");
    assert_eq!(loaded.seed_root, emitted.seed_root);
    assert_eq!(loaded.config_hash, emitted.config_hash);
    assert_eq!(loaded.outputs.len(), emitted.outputs.len());

    // Every checksum in the manifest matches the bytes on disk.
    loaded.verify(&dir).expect("all outputs verify");

    // Corrupting an output (same length, different bytes) is caught.
    let target = dir.join(&loaded.outputs[0].file);
    let mut bytes = fs::read(&target).unwrap();
    let last = bytes.len() - 1;
    bytes[last] = bytes[last].wrapping_add(1);
    fs::write(&target, bytes).unwrap();
    let errs = loaded.verify(&dir).expect_err("corruption detected");
    assert!(
        errs.iter().any(|e| e.contains(&loaded.outputs[0].file)),
        "error names the corrupted file: {errs:?}"
    );
}

#[test]
fn standalone_and_all_runs_share_seed_namespaces() {
    let (artifacts, config) = setup();

    // fig8 run standalone (pulls fig5+fig7 itself) vs fig5/fig7 run first
    // then fig8 derived — identical CSVs because seeds are namespaced by
    // experiment name, not execution order.
    let standalone = RunContext::new(artifacts, config, Scale::smoke());
    let f8_standalone = repro_bench::experiments::fig8::run(&standalone)
        .to_csv()
        .to_csv_string();

    let ordered = RunContext::new(artifacts, config, Scale::smoke());
    repro_bench::experiments::fig5::run(&ordered);
    repro_bench::experiments::fig7::run(&ordered);
    let f8_ordered = repro_bench::experiments::fig8::run(&ordered)
        .to_csv()
        .to_csv_string();

    assert_eq!(f8_standalone, f8_ordered);
}
