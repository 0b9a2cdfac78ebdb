//! `cargo bench` figure harness: regenerates every table/figure of the
//! paper at smoke scale against quick-trained artifacts, driven through
//! the experiment registry — so the engine, every `Experiment` impl, and
//! the manifest writer stay exercised on every bench run. For paper-scale
//! numbers run `cargo run --release -p repro-bench --bin repro_bench --
//! --all` against fully trained artifacts.

use attack_core::pipeline::{prepare, PipelineConfig};
use repro_bench::engine;
use repro_bench::{Registry, RunContext, Scale};
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join("repro-bench-figures-bench");
    let config = PipelineConfig::quick(&dir);
    let t0 = Instant::now();
    let artifacts = prepare(&config);
    eprintln!(
        "[figures] artifacts ready in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    let mut ctx = RunContext::new(&artifacts, &config, Scale::smoke());
    ctx.csv_dir = Some(dir.join("out"));
    for exp in Registry::all() {
        let outcome = engine::execute(*exp, &ctx).expect("engine run");
        println!("{}", outcome.report);
        let manifest = outcome.manifest.expect("csv sink set");
        manifest
            .verify(&dir.join("out"))
            .expect("fresh outputs match their manifest");
        eprintln!(
            "[figures] {} in {:.1}s ({:.0} steps/s)",
            exp.name(),
            outcome.sample.wall_secs,
            outcome.sample.steps_per_sec()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
