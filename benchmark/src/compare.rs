//! `bench compare <a.jsonl> <b.jsonl>`: judges set `b` (the change)
//! against set `a` (the parent), per end-to-end metric and workload, with
//! the bounds `BENCHMARK.json` fixes.
//!
//! Each input holds the record lines `bench run --record` appends. For each
//! pairing the medians are compared: `b` regresses when its median is worse
//! than `a`'s by more than the bound (a share of `a`'s median). When either
//! set's spread (interquartile range over median) exceeds the bound, the
//! pairing is `unresolved` instead, unless every run of `b` reads better
//! than every run of `a`. Any increase in the failed share of operations,
//! an incorrect run in `b`, or fewer untraced runs of a workload in `b`
//! than in `a` is a regression: a run that stops on an error writes no
//! record, so a missing record is a failed run. Traced records give the
//! tracing overhead: traced `trace.wall_s` minus the untraced median
//! `wall_s` of the same set.

use crate::json::Json;
use crate::stats::{median, quartiles, spread, Tally};
use std::collections::BTreeMap;

/// One run record.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
}

/// An end-to-end metric's bound from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Unchanged => "unchanged",
            Status::Improved => "improved",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
        }
    }
}

pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e))?;
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            trace: doc.get("trace").and_then(Json::as_f64) == Some(1.0),
            correct: result.get("correct").and_then(Json::as_bool) == Some(true),
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
            metrics,
        });
    }
    Ok(out)
}

pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// The verdict on one metric: `worse` is how much worse `b`'s median is
/// than `a`'s, as a share of `a`'s (negative when better).
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (Status, f64) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Status::Unresolved, f64::NAN);
    };
    let worse = if bound.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let noisy = [a, b]
        .iter()
        .any(|v| spread(v).is_none_or(|s| s > bound.bound));
    let all_better = if bound.lower_is_better {
        b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
    } else {
        b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
    };
    let status = if noisy {
        if all_better {
            Status::Improved
        } else {
            Status::Unresolved
        }
    } else if worse > bound.bound {
        Status::Regressed
    } else if worse < -bound.bound {
        Status::Improved
    } else {
        Status::Unchanged
    };
    (status, worse)
}

fn fmt_q(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        None => "-".into(),
    }
}

/// Compares the two record sets: the rendered report, and whether nothing
/// regressed.
pub fn compare(a: &[Record], b: &[Record], bounds: &[Bound]) -> (String, bool) {
    let mut report = String::new();
    let mut passed = true;
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let untraced = |set: &[Record], w: &str| -> Vec<Record> {
        set.iter()
            .filter(|r| r.workload == w && !r.trace)
            .cloned()
            .collect()
    };
    let values = |set: &[Record], name: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    for w in workloads {
        let (ra, rb) = (untraced(a, w), untraced(b, w));
        let missing = rb.len() < ra.len();
        passed &= !missing;
        report.push_str(&format!(
            "{w}: a={} run(s), b={} run(s){}\n",
            ra.len(),
            rb.len(),
            if missing {
                "  REGRESSED (runs of b are missing)"
            } else {
                ""
            }
        ));
        for bound in bounds {
            let (va, vb) = (values(&ra, &bound.name), values(&rb, &bound.name));
            let (status, worse) = judge(&va, &vb, bound);
            passed &= status != Status::Regressed;
            report.push_str(&format!(
                "  {:<16} a {:<40} b {:<40} worse {:+.2}% (bound {:.0}%)  {}\n",
                bound.name,
                fmt_q(&va),
                fmt_q(&vb),
                worse * 100.0,
                bound.bound * 100.0,
                status.label()
            ));
        }
        let tally = |set: &[Record]| {
            let mut t = Tally::default();
            set.iter().for_each(|r| t.absorb(r.tally));
            t
        };
        let (ta, tb) = (tally(&ra), tally(&rb));
        let incorrect = rb.iter().filter(|r| !r.correct).count();
        let failed = tb.failed_frac() > ta.failed_frac() || incorrect > 0;
        passed &= !failed;
        report.push_str(&format!(
            "  {:<16} a {}/{} b {}/{}, {incorrect} incorrect run(s) in b  {}\n",
            "failed_frac",
            ta.failed,
            ta.attempted,
            tb.failed,
            tb.attempted,
            if failed { "REGRESSED" } else { "unchanged" }
        ));
        // Traced, train-tenth runs its stage-by-stage copy of `prepare()`
        // (see `workload::train_stages`), so its difference is not tracing
        // alone.
        let what = if w == "train-tenth" {
            "traced stage copy minus prepare()"
        } else {
            "tracing overhead"
        };
        for (label, set) in [("a", a), ("b", b)] {
            let traced: Vec<f64> = set
                .iter()
                .filter(|r| r.workload == w && r.trace)
                .filter_map(|r| r.metrics.get("trace.wall_s").copied())
                .collect();
            if let (Some(t), Some(u)) = (
                median(&traced),
                median(&values(&untraced(set, w), "wall_s")),
            ) {
                report.push_str(&format!(
                    "  {what} ({label}): {:+.3} s ({:+.2}% of wall_s)\n",
                    t - u,
                    (t - u) / u * 100.0
                ));
            }
        }
    }
    (report, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.4, 11.6, 11.5, 11.45];
        let same = [10.2, 10.1, 10.3, 10.2, 10.15];
        let lower = bound(true, 0.1);
        assert_eq!(judge(&a, &slower, &lower).0, Status::Regressed);
        assert_eq!(judge(&a, &same, &lower).0, Status::Unchanged);
        assert_eq!(judge(&slower, &a, &lower).0, Status::Improved);
        let (_, worse) = judge(&a, &slower, &lower);
        assert!((worse - 0.15).abs() < 1e-9, "{worse}");
        // For a higher-is-better metric the same numbers read the other way.
        let higher = bound(false, 0.1);
        assert_eq!(judge(&a, &slower, &higher).0, Status::Improved);
        assert_eq!(judge(&slower, &a, &higher).0, Status::Regressed);
    }

    #[test]
    fn judge_reports_unresolved_when_spread_exceeds_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Median 11.5 (15% worse) but quartiles 9.5..13.5: spread 35%.
        let noisy = [9.0, 10.0, 11.5, 13.0, 14.0];
        assert_eq!(judge(&a, &noisy, &bound(true, 0.1)).0, Status::Unresolved);
        // Noisy, yet every run of b beats every run of a.
        let noisy_fast = [5.0, 6.0, 7.5, 9.0, 9.5];
        assert_eq!(
            judge(&a, &noisy_fast, &bound(true, 0.1)).0,
            Status::Improved
        );
        // A single run has no spread to judge against the bound.
        assert_eq!(judge(&a, &[], &bound(true, 0.1)).0, Status::Unresolved);
    }

    #[test]
    fn compare_gates_failed_fraction_and_correctness() {
        let line = |w: &str, wall: f64, failed: u64, correct: bool| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": {correct}, \
                 \"attempted\": 8, \"failed\": {failed}, \"metrics\": {{\"m\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}}}"
            )
        };
        let set = |failed: u64, correct: bool| {
            parse_records(
                &(0..5)
                    .map(|i| line("w", 10.0 + i as f64 * 0.01, failed, correct))
                    .collect::<Vec<_>>()
                    .join("\n"),
            )
            .unwrap()
        };
        let bounds = [bound(true, 0.1)];
        let (report, passed) = compare(&set(0, true), &set(0, true), &bounds);
        assert!(passed, "{report}");
        assert!(report.contains("unchanged"));
        let (report, passed) = compare(&set(0, true), &set(1, true), &bounds);
        assert!(!passed && report.contains("a 0/40 b 5/40"), "{report}");
        let (_, passed) = compare(&set(0, true), &set(0, false), &bounds);
        assert!(!passed, "an incorrect run in b regresses");
        let (_, passed) = compare(&set(1, true), &set(0, true), &bounds);
        assert!(passed, "fewer failures is not a regression");

        // Runs of b that stopped on an error left no record.
        let (report, passed) = compare(&set(0, true), &set(0, true)[..3], &bounds);
        assert!(
            !passed && report.contains("runs of b are missing"),
            "{report}"
        );
        let (report, passed) = compare(&set(0, true), &[], &bounds);
        assert!(!passed, "a workload with no run in b regresses: {report}");
        let (_, passed) = compare(&set(0, true)[..3], &set(0, true), &bounds);
        assert!(passed, "more runs in b is not a regression");
    }

    #[test]
    fn parses_bounds_from_benchmark_json() {
        let doc = r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                                     {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;
        let b = parse_bounds(doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.2);
        assert!(parse_bounds("{}").is_err());
    }
}
