//! Fig. 6 — nominal driving reward of the original and enhanced agents
//! under camera attacks.
//!
//! Box plots per budget `{0, 0.25, 0.5, 0.75, 1.0}` for `pi_ori`, the two
//! fine-tuned agents, and the two PNN agents. The paper's findings:
//! fine-tuning improves attacked performance but degrades the nominal
//! (`eps <= 0.25`) cases; PNN keeps nominal performance intact.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records, AgentKind};
use attack_core::budget::AttackBudget;
use attack_core::sensor::SensorKind;
use drive_metrics::agg::BoxStats;
use drive_metrics::episode::CellSummary;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, Table};
use drive_metrics::svg::box_plot_svg;
use std::sync::Arc;

/// One (agent, budget) cell.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// The evaluated agent.
    pub agent: AgentKind,
    /// Attack budget.
    pub budget: f64,
    /// Aggregated statistics.
    pub summary: CellSummary,
}

/// Full Fig. 6 result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All cells, agents x budgets.
    pub cells: Vec<Fig6Cell>,
}

impl Fig6Result {
    /// Nominal-reward box of one cell.
    pub fn nominal_box(&self, agent: AgentKind, budget: f64) -> Option<&BoxStats> {
        self.cells
            .iter()
            .find(|c| c.agent == agent && (c.budget - budget).abs() < 1e-9)
            .map(|c| &c.summary.nominal)
    }
}

impl Fig6Result {
    /// Exports all cells as CSV.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "agent",
            "budget",
            "nominal_min",
            "nominal_q1",
            "nominal_median",
            "nominal_q3",
            "nominal_max",
            "nominal_mean",
            "success_rate",
            "episodes",
        ]);
        for c in &self.cells {
            let n = &c.summary.nominal;
            csv.row([
                c.agent.label().to_string(),
                format!("{:.2}", c.budget),
                format!("{:.3}", n.min),
                format!("{:.3}", n.q1),
                format!("{:.3}", n.median),
                format!("{:.3}", n.q3),
                format!("{:.3}", n.max),
                format!("{:.3}", n.mean),
                format!("{:.3}", c.summary.success_rate),
                c.summary.episodes.to_string(),
            ]);
        }
        csv
    }

    /// Builds the Fig. 6 nominal-reward box plot.
    pub fn to_svgs(&self) -> Vec<(String, String)> {
        let budgets: Vec<String> = AttackBudget::fig4_grid()
            .iter()
            .map(|b| format!("{b}"))
            .collect();
        let series: Vec<(String, Vec<BoxStats>)> = AgentKind::enhanced_lineup()
            .into_iter()
            .map(|agent| {
                let boxes = AttackBudget::fig4_grid()
                    .iter()
                    .filter_map(|b| self.nominal_box(agent, b.epsilon()).copied())
                    .collect();
                (agent.label().to_string(), boxes)
            })
            .collect();
        vec![(
            "fig6_nominal".to_string(),
            box_plot_svg(
                "Fig. 6 — nominal reward of original and enhanced agents",
                &budgets,
                &series,
                "attack budget",
                "nominal driving reward",
            ),
        )]
    }
}

/// Runs (or reuses) the Fig. 6 experiment via the context memo.
///
/// All 25 (agent, budget) cells are independent and run in parallel off
/// per-cell seed subtrees (`root/fig6/<agent>/eps<budget>`); `par_map`
/// keeps them in lineup-then-budget order for any worker count.
pub fn run(ctx: &RunContext) -> Arc<Fig6Result> {
    ctx.memo("fig6", || {
        let ns = ctx.seeds_for("fig6");
        let mut grid = Vec::new();
        for agent in AgentKind::enhanced_lineup() {
            for budget in AttackBudget::fig4_grid() {
                grid.push((agent, budget));
            }
        }
        let cells = drive_par::par_map(&grid, |_, &(agent, budget)| {
            let attack = if budget.is_zero() {
                None
            } else {
                Some((&ctx.artifacts.camera_attacker, SensorKind::Camera))
            };
            let seeds = ns
                .child(agent.label())
                .child(format!("eps{:.2}", budget.epsilon()));
            let records =
                attacked_records(agent, attack, budget, ctx, ctx.scale.box_episodes, &seeds);
            Fig6Cell {
                agent,
                budget: budget.epsilon(),
                summary: CellSummary::from_records(&records),
            }
        });
        Fig6Result { cells }
    })
}

/// Registry entry for Fig. 6.
pub struct Fig6Experiment;

impl Experiment for Fig6Experiment {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "Nominal reward of the original and enhanced agents under camera attacks"
    }

    fn cells(&self) -> usize {
        AgentKind::enhanced_lineup().len() * AttackBudget::fig4_grid().len()
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("fig6".to_string(), r.to_csv())],
            svgs: r.to_svgs(),
        }
    }
}

impl std::fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 6 — nominal driving reward of original and enhanced agents (camera attack)"
        )?;
        let budgets = AttackBudget::fig4_grid();
        let mut headers = vec!["agent \\ eps".to_string()];
        headers.extend(budgets.iter().map(|b| fmt_f(b.epsilon(), 2)));
        let mut t = Table::new(headers);
        for agent in AgentKind::enhanced_lineup() {
            let mut row = vec![agent.label().to_string()];
            for b in &budgets {
                let cell = self
                    .nominal_box(agent, b.epsilon())
                    .map(|s| format!("{} ({})", fmt_f(s.mean, 0), fmt_f(s.median, 0)))
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            t.row(row);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "cells are mean (median) nominal reward over the episode batch"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_fig6_covers_lineup_and_budgets() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-fig6-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.cells.len(), 5 * 5);
        assert!(result.nominal_box(AgentKind::PnnSigma02, 0.0).is_some());
        let text = format!("{result}");
        assert!(text.contains("pi_pnn(sigma=0.4)"));
        assert_eq!(result.to_csv().len(), 25);
        assert_eq!(result.to_svgs().len(), 1);
    }
}
