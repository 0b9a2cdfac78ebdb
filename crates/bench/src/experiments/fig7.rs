//! Fig. 7 — robustness of the enhanced agents: deviation vs attack effort
//! scatter for the four defended policies.
//!
//! The paper reports average trajectory tracking errors of 0.038
//! (`rho = 1/11`), 0.027 (`rho = 1/2`), 0.02 (`sigma = 0.4`), 0.017
//! (`sigma = 0.2`), with the PNN agents admitting no successful attack
//! below effort 0.4 / 0.6 respectively.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::experiments::fig5::{scatter_svgs, sweep_agent, Fig5Series};
use crate::harness::AgentKind;
use attack_core::budget::AttackBudget;
use drive_metrics::agg::mean;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, Table};
use std::sync::Arc;

/// Full Fig. 7 result: one sweep per enhanced agent.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Sweeps for the four enhanced agents (a–d in the paper).
    pub series: Vec<Fig5Series>,
}

impl Fig7Result {
    /// The enhanced agents in paper order.
    pub fn lineup() -> [AgentKind; 4] {
        [
            AgentKind::AdvRhoSmall,
            AgentKind::AdvRhoHalf,
            AgentKind::PnnSigma04,
            AgentKind::PnnSigma02,
        ]
    }

    /// The sweep for an agent, if present.
    pub fn series(&self, agent: AgentKind) -> Option<&Fig5Series> {
        self.series.iter().find(|s| s.agent == agent)
    }

    /// Average tracking error across all efforts for one agent.
    pub fn avg_tracking_error(&self, agent: AgentKind) -> Option<f64> {
        self.series(agent).map(|s| {
            mean(
                &s.points
                    .iter()
                    .map(|p| p.deviation_rmse)
                    .collect::<Vec<_>>(),
            )
        })
    }

    /// Smallest effort of any *successful* attack against one agent.
    pub fn first_success_effort(&self, agent: AgentKind) -> Option<f64> {
        self.series(agent).and_then(|s| {
            s.points
                .iter()
                .filter(|p| p.success)
                .map(|p| p.effort)
                .min_by(f64::total_cmp)
        })
    }
}

impl Fig7Result {
    /// Exports the scatter as CSV (one row per episode).
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(["agent", "effort", "deviation_rmse", "success"]);
        for s in &self.series {
            for p in &s.points {
                csv.row([
                    s.agent.label().to_string(),
                    format!("{:.4}", p.effort),
                    format!("{:.5}", p.deviation_rmse),
                    p.success.to_string(),
                ]);
            }
        }
        csv
    }
}

/// Runs (or reuses) the Fig. 7 experiment via the context memo; each
/// agent's sweep derives from `root/fig7/<agent>`.
pub fn run(ctx: &RunContext) -> Arc<Fig7Result> {
    ctx.memo("fig7", || {
        let ns = ctx.seeds_for("fig7");
        Fig7Result {
            series: Fig7Result::lineup()
                .into_iter()
                .map(|a| sweep_agent(a, ctx, &ns.child(a.label())))
                .collect(),
        }
    })
}

/// Registry entry for Fig. 7.
pub struct Fig7Experiment;

impl Experiment for Fig7Experiment {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "Robustness of the four enhanced agents: deviation vs effort scatter (camera attack)"
    }

    fn cells(&self) -> usize {
        Fig7Result::lineup().len() * AttackBudget::fig5_grid().len()
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("fig7".to_string(), r.to_csv())],
            svgs: scatter_svgs("fig7", "Fig. 7", &r.series),
        }
    }
}

impl std::fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 7 — robustness of enhanced agents (camera attack)")?;
        let mut t = Table::new([
            "agent",
            "avg tracking err",
            "dominance effort",
            "first success effort",
            "successes",
        ]);
        for agent in Fig7Result::lineup() {
            let s = self.series(agent).expect("all series present");
            t.row([
                agent.label().to_string(),
                fmt_f(self.avg_tracking_error(agent).unwrap_or(0.0), 3),
                s.dominance
                    .map(|d| fmt_f(d, 2))
                    .unwrap_or_else(|| "-".into()),
                self.first_success_effort(agent)
                    .map(|e| fmt_f(e, 2))
                    .unwrap_or_else(|| "-".into()),
                s.points.iter().filter(|p| p.success).count().to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "paper: avg err 0.038 / 0.027 / 0.020 / 0.017; no success below effort 0.4 (sigma=0.4) and 0.6 (sigma=0.2)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_fig7_sweeps_enhanced_agents() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-fig7-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.series.len(), 4);
        for agent in Fig7Result::lineup() {
            assert!(result.avg_tracking_error(agent).is_some(), "{agent:?}");
        }
        let text = format!("{result}");
        assert!(text.contains("avg tracking err"));
        assert!(!result.to_csv().is_empty());
    }
}
