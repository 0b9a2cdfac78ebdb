//! Fig. 5 — end-to-end vs modular driving agents under camera attacks,
//! plus the §V-B attack-to-collision timing statistics.
//!
//! Budgets sweep `0.0..=1.2` in steps of 0.1 with several rounds each; each
//! episode becomes one scatter point (mean attack effort vs trajectory-
//! deviation RMSE, marked by side-collision success). The paper finds
//! success dominating above effort ≈0.5 for the end-to-end agent and ≈0.6
//! for the modular one, lower tracking error for the modular agent at low
//! effort, and mean times-to-collision of 0.87 s (e2e) / 1.14 s (modular).

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records, AgentKind};
use attack_core::budget::AttackBudget;
use attack_core::sensor::SensorKind;
use drive_metrics::agg::mean;
use drive_metrics::episode::{
    dominance_threshold, scatter_points, time_to_collision_stats, ScatterPoint,
};
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, Table};
use drive_seed::SeedTree;
use std::sync::Arc;

/// Per-agent series of the Fig. 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Which agent was attacked.
    pub agent: AgentKind,
    /// Scatter points (one per episode).
    pub points: Vec<ScatterPoint>,
    /// Effort level above which successful attacks dominate (≥50 %).
    pub dominance: Option<f64>,
    /// Mean deviation RMSE at low effort (< 0.3) — tracking quality.
    pub low_effort_deviation: f64,
    /// `(mean, min)` attack-to-collision time over successes, seconds.
    pub time_to_collision: Option<(f64, f64)>,
    /// Mean fraction of steps with an active perturbation (stealthiness).
    pub mean_duty_cycle: f64,
}

/// Full Fig. 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The modular and end-to-end series.
    pub series: Vec<Fig5Series>,
}

impl Fig5Result {
    /// The series for an agent, if present.
    pub fn series(&self, agent: AgentKind) -> Option<&Fig5Series> {
        self.series.iter().find(|s| s.agent == agent)
    }
}

impl Fig5Result {
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

/// Builds per-series scatter SVGs named `<stem_prefix>_<agent>`, titled
/// `<title_prefix> — <agent> under camera attack` (shared by Fig. 5 and
/// Fig. 7, whose series have the same shape).
pub(crate) fn scatter_svgs(
    stem_prefix: &str,
    title_prefix: &str,
    series: &[Fig5Series],
) -> Vec<(String, String)> {
    series
        .iter()
        .map(|s| {
            (
                format!(
                    "{stem_prefix}_{}",
                    s.agent.label().replace(['(', ')', '=', '/'], "_")
                ),
                drive_metrics::svg::scatter_svg(
                    &format!("{title_prefix} — {} under camera attack", s.agent.label()),
                    &s.points,
                    "attack effort",
                    "deviation RMSE",
                ),
            )
        })
        .collect()
}

/// Runs the camera-attack sweep for one agent within the given seed
/// namespace (each budget cell derives from `seeds/eps<budget>`).
///
/// The 13 budget cells are independent (per-cell seed subtrees, fresh
/// agents per cell), so they run in parallel; concatenating the
/// index-ordered results reproduces the serial record order exactly.
pub fn sweep_agent(agent: AgentKind, ctx: &RunContext, seeds: &SeedTree) -> Fig5Series {
    let budgets = AttackBudget::fig5_grid();
    let per_budget = drive_par::par_map(&budgets, |_, &budget| {
        let attack = if budget.is_zero() {
            None
        } else {
            Some((&ctx.artifacts.camera_attacker, SensorKind::Camera))
        };
        attacked_records(
            agent,
            attack,
            budget,
            ctx,
            ctx.scale.scatter_rounds,
            &seeds.child(format!("eps{:.2}", budget.epsilon())),
        )
    });
    let records: Vec<_> = per_budget.into_iter().flatten().collect();
    let points = scatter_points(&records);
    let low: Vec<f64> = points
        .iter()
        .filter(|p| p.effort < 0.3)
        .map(|p| p.deviation_rmse)
        .collect();
    let duty: Vec<f64> = records.iter().map(|r| r.attack_duty_cycle()).collect();
    Fig5Series {
        agent,
        dominance: dominance_threshold(&points, 0.5),
        low_effort_deviation: mean(&low),
        time_to_collision: time_to_collision_stats(&records),
        mean_duty_cycle: mean(&duty),
        points,
    }
}

/// Runs (or reuses) the full Fig. 5 experiment (modular vs end-to-end)
/// via the context memo.
pub fn run(ctx: &RunContext) -> Arc<Fig5Result> {
    ctx.memo("fig5", || {
        let ns = ctx.seeds_for("fig5");
        Fig5Result {
            series: [AgentKind::E2e, AgentKind::Modular]
                .into_iter()
                .map(|a| sweep_agent(a, ctx, &ns.child(a.label())))
                .collect(),
        }
    })
}

/// Registry entry for Fig. 5.
pub struct Fig5Experiment;

impl Experiment for Fig5Experiment {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "Deviation vs attack effort scatter for the e2e and modular agents (camera attack)"
    }

    fn cells(&self) -> usize {
        2 * AttackBudget::fig5_grid().len()
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("fig5".to_string(), r.to_csv())],
            svgs: scatter_svgs("fig5", "Fig. 5", &r.series),
        }
    }
}

impl std::fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 5 — deviation vs attack effort (camera attack)")?;
        let mut t = Table::new([
            "agent",
            "episodes",
            "successes",
            "dominance effort",
            "low-effort RMSE",
            "ttc mean (s)",
            "ttc min (s)",
            "duty cycle",
        ]);
        for s in &self.series {
            let successes = s.points.iter().filter(|p| p.success).count();
            let (ttc_mean, ttc_min) = s
                .time_to_collision
                .map(|(m, n)| (fmt_f(m, 2), fmt_f(n, 2)))
                .unwrap_or_else(|| ("-".into(), "-".into()));
            t.row([
                s.agent.label().to_string(),
                s.points.len().to_string(),
                successes.to_string(),
                s.dominance
                    .map(|d| fmt_f(d, 2))
                    .unwrap_or_else(|| "-".into()),
                fmt_f(s.low_effort_deviation, 3),
                ttc_mean,
                ttc_min,
                fmt_f(s.mean_duty_cycle, 2),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "paper: dominance ~0.5 (e2e) vs ~0.6 (modular); ttc 0.87s/0.30s (e2e) vs 1.14s/0.90s (modular); human ~1.25s"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_fig5_sweeps_both_agents() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-fig5-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.series.len(), 2);
        let e2e = result.series(AgentKind::E2e).unwrap();
        // 13 budgets x smoke rounds.
        assert_eq!(e2e.points.len(), 13 * Scale::smoke().scatter_rounds);
        // Zero-budget episodes have zero effort.
        assert!(e2e.points.iter().any(|p| p.effort == 0.0));
        let text = format!("{result}");
        assert!(text.contains("modular"));
        assert_eq!(
            result.to_csv().len(),
            2 * 13 * Scale::smoke().scatter_rounds
        );
        let svgs = scatter_svgs("fig5", "Fig. 5", &result.series);
        assert_eq!(svgs.len(), 2);
        assert!(svgs[0].0.starts_with("fig5_"));
    }
}
