//! Trains (or loads) every artifact of the paper and exits. Subsequent
//! `repro_bench` runs then load them from the cache. Honors the shared
//! CLI flags (`--artifacts <dir>`, `--quick`).

fn main() {
    let args = match repro_bench::cli::CliArgs::from_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(repro_bench::cli::exit_code(&e));
        }
    };
    let config = args.pipeline_config();
    let artifacts = attack_core::pipeline::prepare(&config);
    eprintln!(
        "prepared: victim({} params), camera / imu attackers, 2 finetuned, pnn",
        artifacts.victim.trunk().param_count()
    );
}
