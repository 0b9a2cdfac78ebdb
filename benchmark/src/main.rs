//! `bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! bench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Both run from the root of the repository. `run` executes one workload
//! in this process and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). It exits 1
//! when an operation failed or an output is wrong, and 2 on a usage or
//! set-up error. `compare` judges two sets of recorded runs against the
//! bounds in `BENCHMARK.json` and exits 1 on a regression. See
//! `benchmark/README.md`.

mod compare;
mod gate;
mod json;
mod layers;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use run::RunArgs;
use std::path::PathBuf;
use workload::{Env, Workload};

const USAGE: &str = "usage: bench run --workload <paper-serial|fig4-fleet|train-tenth> --seed <n> \
                     --seconds <s> --trace <0|1> [--record <file>]\n       \
                     bench compare <a.jsonl> <b.jsonl>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run_cmd(&a)),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--record" => record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}\n{USAGE}");
    Ok(RunArgs {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
        record,
    })
}

fn run_cmd(args: &RunArgs) -> Result<i32, String> {
    let env = Env::from_cwd()?;
    let outcome = run::run(&env, args)?;
    run::check_declared(&env, args.trace, &outcome.metrics)?;
    let line = outcome.to_json()?;
    if let Some(path) = &args.record {
        run::record(path, args, &line)?;
    }
    println!("{line}");
    Ok(if outcome.correct { 0 } else { 1 })
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let bounds = compare::parse_bounds(&read("BENCHMARK.json")?)?;
    let [a, b] = [a, b]
        .map(|f| read(f).and_then(|t| compare::parse_records(&t).map_err(|e| format!("{f}: {e}"))));
    let (report, passed) = compare::compare(&a?, &b?, &bounds);
    print!("{report}");
    Ok(if passed { 0 } else { 1 })
}
