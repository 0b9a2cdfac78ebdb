//! Fig. 8 — attack success rate per attack-effort window for the nominal
//! agent and the four enhanced agents.
//!
//! Re-bins the Fig. 5 (end-to-end series) and Fig. 7 scatter data with
//! window width 0.2 from 0.0 to 0.8+. The paper's finding: fine-tuned
//! agents still show successes at small efforts, PNN agents have the
//! lowest success rates everywhere.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::experiments::fig5::Fig5Result;
use crate::experiments::fig7::Fig7Result;
use crate::harness::AgentKind;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_pct, Table};
use drive_metrics::svg::bar_chart_svg;
use drive_metrics::windows::{fig8_windows, EffortWindow};
use std::sync::Arc;

/// Per-agent windowed success rates.
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// The agent.
    pub agent: AgentKind,
    /// The five effort windows with success rates.
    pub windows: Vec<EffortWindow>,
}

/// Full Fig. 8 result.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Nominal + four enhanced agents.
    pub series: Vec<Fig8Series>,
}

/// Builds Fig. 8 from the Fig. 5 and Fig. 7 sweeps (no new episodes).
pub fn derive(fig5: &Fig5Result, fig7: &Fig7Result) -> Fig8Result {
    let mut series = Vec::new();
    if let Some(e2e) = fig5.series(AgentKind::E2e) {
        series.push(Fig8Series {
            agent: AgentKind::E2e,
            windows: fig8_windows(&e2e.points),
        });
    }
    for agent in Fig7Result::lineup() {
        if let Some(s) = fig7.series(agent) {
            series.push(Fig8Series {
                agent,
                windows: fig8_windows(&s.points),
            });
        }
    }
    Fig8Result { series }
}

/// Runs (or reuses) Fig. 8 via the context memo.
///
/// Purely derived: pulls the memoized Fig. 5 and Fig. 7 sweeps (running
/// them if this is a standalone fig8 invocation) and re-bins their
/// scatter points — the seed namespaces are the sweeps' own, so a
/// standalone run and an `--all` run agree byte for byte.
pub fn run(ctx: &RunContext) -> Arc<Fig8Result> {
    ctx.memo("fig8", || {
        let f5 = crate::experiments::fig5::run(ctx);
        let f7 = crate::experiments::fig7::run(ctx);
        derive(&f5, &f7)
    })
}

impl Fig8Result {
    /// Exports per-window success rates as CSV.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(["agent", "window", "success_rate", "count"]);
        for s in &self.series {
            for w in &s.windows {
                csv.row([
                    s.agent.label().to_string(),
                    w.label(),
                    format!("{:.3}", w.success_rate),
                    w.count.to_string(),
                ]);
            }
        }
        csv
    }

    /// Builds the Fig. 8 grouped bar chart.
    pub fn to_svgs(&self) -> Vec<(String, String)> {
        let windows: Vec<String> = self
            .series
            .first()
            .map(|s| s.windows.iter().map(EffortWindow::label).collect())
            .unwrap_or_default();
        let series: Vec<(String, Vec<f64>)> = self
            .series
            .iter()
            .map(|s| {
                (
                    s.agent.label().to_string(),
                    s.windows.iter().map(|w| w.success_rate).collect(),
                )
            })
            .collect();
        vec![(
            "fig8_success_rates".to_string(),
            bar_chart_svg(
                "Fig. 8 — success rate per effort window",
                &windows,
                &series,
                "attack success rate",
            ),
        )]
    }
}

/// Registry entry for Fig. 8.
pub struct Fig8Experiment;

impl Experiment for Fig8Experiment {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn description(&self) -> &'static str {
        "Success rate per effort window, derived from the fig5 and fig7 sweeps"
    }

    fn cells(&self) -> usize {
        0
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("fig8".to_string(), r.to_csv())],
            svgs: r.to_svgs(),
        }
    }
}

impl std::fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 8 — attack success rate per attack-effort window")?;
        let labels: Vec<String> = self
            .series
            .first()
            .map(|s| s.windows.iter().map(EffortWindow::label).collect())
            .unwrap_or_default();
        let mut headers = vec!["agent \\ effort".to_string()];
        headers.extend(labels);
        let mut t = Table::new(headers);
        for s in &self.series {
            let mut row = vec![s.agent.label().to_string()];
            for w in &s.windows {
                row.push(if w.count == 0 {
                    "-".into()
                } else {
                    format!("{} ({})", fmt_pct(w.success_rate), w.count)
                });
            }
            t.row(row);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "cells are success rate (episode count); paper: PNN lowest everywhere"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_fig8_builds_from_sweeps() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-fig8-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let f8 = run(&ctx);
        assert_eq!(f8.series.len(), 5);
        for s in &f8.series {
            assert_eq!(s.windows.len(), 5);
            let total: usize = s.windows.iter().map(|w| w.count).sum();
            assert!(total > 0, "{:?} has no points", s.agent);
        }
        let text = format!("{f8}");
        assert!(text.contains("0.8+"));
        assert_eq!(f8.to_csv().len(), 25);
        // The derived run reuses the memoized sweeps: deriving again from
        // the context's fig5/fig7 yields the same windows.
        let f5 = crate::experiments::fig5::run(&ctx);
        let f7 = crate::experiments::fig7::run(&ctx);
        let direct = derive(&f5, &f7);
        assert_eq!(direct.to_csv().to_csv_string(), f8.to_csv().to_csv_string());
    }
}
