//! Bench-compare: gate perf regressions against the checked-in baseline.
//!
//! `repro_bench bench-compare <current.json>` parses a fresh `PERF_JSON`
//! export from the `perf` criterion bench (schema `repro-bench/bench-v1`)
//! and diffs its medians against the committed `BENCH_perf.json`. A bench
//! whose `current / baseline` median ratio exceeds the tolerance is a
//! regression; a baseline bench missing from the current run also fails
//! (a silently dropped bench must not pass the gate), while a bench that
//! only exists in the current run is informational. The CLI exits nonzero
//! on any failure, which is what makes the CI perf-smoke job gating.

use crate::json::{get, get_f64, get_str, Json};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag the `perf` bench stamps into its `PERF_JSON` export.
pub const BENCH_SCHEMA: &str = "repro-bench/bench-v1";

/// Default acceptable `current / baseline` median ratio.
pub const DEFAULT_TOLERANCE: f64 = 1.5;

/// One bench's median, parsed from a bench-v1 document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Bench name as registered with criterion.
    pub name: String,
    /// Median wall time in nanoseconds.
    pub median_ns: f64,
}

/// Verdict for one bench name appearing in either file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than `tolerance * baseline`.
    Regressed,
    /// In the baseline but absent from the current run — fails the gate.
    Missing,
    /// Only in the current run — informational, never fails.
    New,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Bench name.
    pub name: String,
    /// Baseline median (ns), if the baseline has this bench.
    pub baseline_ns: Option<f64>,
    /// Current median (ns), if the current run has this bench.
    pub current_ns: Option<f64>,
    /// `current / baseline` where both exist.
    pub ratio: Option<f64>,
    /// Verdict under the tolerance.
    pub status: BenchStatus,
}

/// A full baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-bench rows, in baseline order with current-only rows appended.
    pub deltas: Vec<BenchDelta>,
    /// The ratio threshold the rows were judged against.
    pub tolerance: f64,
}

impl Comparison {
    /// Whether the gate passes (no regressed and no missing benches).
    pub fn passed(&self) -> bool {
        !self
            .deltas
            .iter()
            .any(|d| matches!(d.status, BenchStatus::Regressed | BenchStatus::Missing))
    }

    /// Renders an aligned table of every row plus a pass/fail summary.
    pub fn render(&self) -> String {
        let name_w = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(4)
            .max("bench".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>14}  {:>14}  {:>7}  status",
            "bench", "baseline_ns", "current_ns", "ratio"
        );
        for d in &self.deltas {
            let fmt_ns = |v: Option<f64>| match v {
                Some(ns) => format!("{ns:.1}"),
                None => "-".to_string(),
            };
            let ratio = match d.ratio {
                Some(r) => format!("{r:.2}x"),
                None => "-".to_string(),
            };
            let status = match d.status {
                BenchStatus::Ok => "ok",
                BenchStatus::Regressed => "REGRESSED",
                BenchStatus::Missing => "MISSING",
                BenchStatus::New => "new",
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>14}  {:>14}  {:>7}  {status}",
                d.name,
                fmt_ns(d.baseline_ns),
                fmt_ns(d.current_ns),
                ratio
            );
        }
        let bad = self
            .deltas
            .iter()
            .filter(|d| matches!(d.status, BenchStatus::Regressed | BenchStatus::Missing))
            .count();
        if self.passed() {
            let _ = writeln!(
                out,
                "bench-compare OK: {} bench(es) within {:.2}x of baseline",
                self.deltas.len(),
                self.tolerance
            );
        } else {
            let _ = writeln!(
                out,
                "bench-compare FAILED: {bad} bench(es) regressed or missing (tolerance {:.2}x)",
                self.tolerance
            );
        }
        out
    }
}

/// Parses a `repro-bench/bench-v1` document into its bench medians.
///
/// # Errors
///
/// Returns a message for invalid JSON, a wrong schema tag, or malformed
/// bench entries.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchEntry>, String> {
    let value = Json::parse(text)?;
    let obj = value.as_object().ok_or("bench root is not an object")?;
    let schema = get_str(obj, "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unsupported bench schema '{schema}' (expected '{BENCH_SCHEMA}')"
        ));
    }
    let mut entries = Vec::new();
    for (i, item) in get(obj, "benches")?
        .as_array()
        .ok_or("'benches' is not an array")?
        .iter()
        .enumerate()
    {
        let o = item
            .as_object()
            .ok_or_else(|| format!("benches[{i}] is not an object"))?;
        entries.push(BenchEntry {
            name: get_str(o, "name")?,
            median_ns: get_f64(o, "median_ns")?,
        });
    }
    Ok(entries)
}

/// Compares two parsed bench lists under a tolerance ratio.
pub fn compare(baseline: &[BenchEntry], current: &[BenchEntry], tolerance: f64) -> Comparison {
    let mut deltas = Vec::with_capacity(baseline.len());
    for b in baseline {
        let cur = current.iter().find(|c| c.name == b.name);
        let delta = match cur {
            None => BenchDelta {
                name: b.name.clone(),
                baseline_ns: Some(b.median_ns),
                current_ns: None,
                ratio: None,
                status: BenchStatus::Missing,
            },
            Some(c) => {
                let ratio = if b.median_ns > 0.0 {
                    c.median_ns / b.median_ns
                } else {
                    f64::INFINITY
                };
                BenchDelta {
                    name: b.name.clone(),
                    baseline_ns: Some(b.median_ns),
                    current_ns: Some(c.median_ns),
                    ratio: Some(ratio),
                    status: if ratio <= tolerance {
                        BenchStatus::Ok
                    } else {
                        BenchStatus::Regressed
                    },
                }
            }
        };
        deltas.push(delta);
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            deltas.push(BenchDelta {
                name: c.name.clone(),
                baseline_ns: None,
                current_ns: Some(c.median_ns),
                ratio: None,
                status: BenchStatus::New,
            });
        }
    }
    Comparison { deltas, tolerance }
}

/// Loads and compares two bench-v1 files.
///
/// # Errors
///
/// Returns a message for unreadable files or invalid documents.
pub fn compare_files(
    current: &Path,
    baseline: &Path,
    tolerance: f64,
) -> Result<Comparison, String> {
    let read = |path: &Path| -> Result<Vec<BenchEntry>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_bench_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(compare(&read(baseline)?, &read(current)?, tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(benches: &[(&str, f64)]) -> String {
        let rows: Vec<String> = benches
            .iter()
            .map(|(n, m)| {
                format!(
                    "{{\"name\": \"{n}\", \"median_ns\": {m}, \"mean_ns\": {m}, \"iters\": 10}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{BENCH_SCHEMA}\", \"quick\": false, \"benches\": [{}]}}",
            rows.join(", ")
        )
    }

    #[test]
    fn parses_the_bench_schema() {
        let entries = parse_bench_json(&doc(&[("a", 100.0), ("b", 5.5)])).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        assert_eq!(entries[1].median_ns, 5.5);
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json(&doc(&[]).replace("bench-v1", "bench-v9")).is_err());
    }

    #[test]
    fn within_tolerance_passes_and_over_fails() {
        let base = parse_bench_json(&doc(&[("a", 100.0), ("b", 100.0)])).unwrap();
        let cur = parse_bench_json(&doc(&[("a", 140.0), ("b", 160.0)])).unwrap();
        let cmp = compare(&base, &cur, 1.5);
        assert!(!cmp.passed());
        assert_eq!(cmp.deltas[0].status, BenchStatus::Ok);
        assert_eq!(cmp.deltas[1].status, BenchStatus::Regressed);
        assert!((cmp.deltas[1].ratio.unwrap() - 1.6).abs() < 1e-9);
        // The same current run passes a looser gate.
        assert!(compare(&base, &cur, 2.0).passed());
    }

    #[test]
    fn missing_fails_and_new_is_informational() {
        let base = parse_bench_json(&doc(&[("a", 100.0), ("gone", 50.0)])).unwrap();
        let cur = parse_bench_json(&doc(&[("a", 90.0), ("fresh", 10.0)])).unwrap();
        let cmp = compare(&base, &cur, 1.5);
        assert!(!cmp.passed(), "a dropped bench must fail the gate");
        let by_name = |n: &str| cmp.deltas.iter().find(|d| d.name == n).unwrap();
        assert_eq!(by_name("gone").status, BenchStatus::Missing);
        assert_eq!(by_name("fresh").status, BenchStatus::New);
        // Without the dropped bench the new-only row alone passes.
        let cmp = compare(&base[..1], &cur, 1.5);
        assert!(cmp.passed());
    }

    #[test]
    fn render_mentions_every_bench_and_the_verdict() {
        let base = parse_bench_json(&doc(&[("fast_kernel", 100.0)])).unwrap();
        let cur = parse_bench_json(&doc(&[("fast_kernel", 400.0)])).unwrap();
        let text = compare(&base, &cur, 1.5).render();
        assert!(text.contains("fast_kernel"));
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("FAILED"));
        let ok = compare(&base, &base, 1.5).render();
        assert!(ok.contains("bench-compare OK"));
    }

    #[test]
    fn compares_files_on_disk() {
        let dir = crate::test_dir::TestDir::new("repro-bench-benchcmp-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("base.json"), doc(&[("a", 100.0)])).unwrap();
        std::fs::write(dir.join("cur.json"), doc(&[("a", 101.0)])).unwrap();
        let cmp = compare_files(&dir.join("cur.json"), &dir.join("base.json"), 1.5).unwrap();
        assert!(cmp.passed());
        assert!(compare_files(&dir.join("missing.json"), &dir.join("base.json"), 1.5).is_err());
    }
}
