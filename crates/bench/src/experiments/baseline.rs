//! §III sanity baseline — nominal (unattacked) driving performance of both
//! agents.
//!
//! The paper reports that the modular agent passes all NPC vehicles
//! without collision and the end-to-end agent completes all 180 steps
//! passing 5.96/6 NPCs on average over 30 episodes with no collisions.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records, AgentKind};
use attack_core::budget::AttackBudget;
use drive_metrics::episode::CellSummary;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, fmt_pct, Table};
use std::sync::Arc;

/// Nominal driving statistics for one agent.
#[derive(Debug, Clone)]
pub struct BaselineCell {
    /// The agent.
    pub agent: AgentKind,
    /// Aggregated statistics over the batch.
    pub summary: CellSummary,
}

/// Full baseline result.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Modular and end-to-end cells.
    pub cells: Vec<BaselineCell>,
}

impl BaselineResult {
    /// The cell for an agent, if present.
    #[cfg(test)]
    pub fn cell(&self, agent: AgentKind) -> Option<&BaselineCell> {
        self.cells.iter().find(|c| c.agent == agent)
    }

    /// Exports both cells as CSV.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "agent",
            "mean_passed",
            "collision_rate",
            "nominal_mean",
            "mean_deviation_rmse",
            "episodes",
        ]);
        for c in &self.cells {
            csv.row([
                c.agent.label().to_string(),
                format!("{:.3}", c.summary.mean_passed),
                format!("{:.3}", c.summary.collision_rate),
                format!("{:.3}", c.summary.nominal.mean),
                format!("{:.5}", c.summary.mean_deviation_rmse),
                c.summary.episodes.to_string(),
            ]);
        }
        csv
    }
}

/// Runs (or reuses) the baseline experiment via the context memo. The two
/// agent cells are independent and run in parallel; `par_map` preserves
/// the modular-then-e2e order.
pub fn run(ctx: &RunContext) -> Arc<BaselineResult> {
    ctx.memo("baseline", || {
        let ns = ctx.seeds_for("baseline");
        let agents = [AgentKind::Modular, AgentKind::E2e];
        let cells = drive_par::par_map(&agents, |_, &agent| {
            let records = attacked_records(
                agent,
                None,
                AttackBudget::ZERO,
                ctx,
                ctx.scale.box_episodes,
                &ns.child(agent.label()),
            );
            BaselineCell {
                agent,
                summary: CellSummary::from_records(&records),
            }
        });
        BaselineResult { cells }
    })
}

/// Registry entry for the §III baseline.
pub struct BaselineExperiment;

impl Experiment for BaselineExperiment {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn description(&self) -> &'static str {
        "Nominal driving performance of the modular and end-to-end agents (no attack)"
    }

    fn cells(&self) -> usize {
        2
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("baseline".to_string(), r.to_csv())],
            svgs: Vec::new(),
        }
    }
}

impl std::fmt::Display for BaselineResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Baseline — nominal driving performance (no attack)")?;
        let mut t = Table::new([
            "agent",
            "mean passed",
            "collision rate",
            "mean nominal reward",
            "mean deviation RMSE",
        ]);
        for c in &self.cells {
            t.row([
                c.agent.label().to_string(),
                fmt_f(c.summary.mean_passed, 2),
                fmt_pct(c.summary.collision_rate),
                fmt_f(c.summary.nominal.mean, 1),
                fmt_f(c.summary.mean_deviation_rmse, 3),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "paper: modular passes all 6; e2e passes 5.96/6, no collisions"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_baseline_runs_both_agents() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-baseline-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.cells.len(), 2);
        let modular = result.cell(AgentKind::Modular).unwrap();
        // The paper's "modular never collides" claim is a 30-episode
        // paper-scale statistic; at smoke scale (4 episodes) a single
        // unlucky spawn jitter can produce one collision, so the smoke
        // assertion tolerates at most one.
        assert!(modular.summary.collision_rate <= 0.25);
        assert!(modular.summary.mean_passed >= 4.0);
        assert_eq!(result.to_csv().len(), 2);
        // Second call reuses the memoized result.
        let again = run(&ctx);
        assert!(Arc::ptr_eq(&result, &again));
    }
}
