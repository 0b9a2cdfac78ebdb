//! Fig. 4 — attack effects under various attack configurations.
//!
//! Box plots over 30 episodes per cell of (a) the nominal driving reward
//! and (b) the cumulative adversarial reward, for the camera- and
//! IMU-based attacks against the end-to-end victim across budgets
//! `{0, 0.25, 0.5, 0.75, 1.0}`. The headline statistic is the ≈84 %
//! nominal-reward reduction of the full-budget camera attack.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records, AgentKind};
use attack_core::budget::AttackBudget;
use attack_core::sensor::SensorKind;
use drive_metrics::agg::BoxStats;
use drive_metrics::episode::CellSummary;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, fmt_pct, Table};
use drive_metrics::svg::box_plot_svg;
use std::sync::Arc;

/// One (sensor, budget) cell.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    /// Attacker sensor.
    pub sensor: SensorKind,
    /// Attack budget `epsilon`.
    pub budget: f64,
    /// Aggregated episode statistics.
    pub summary: CellSummary,
}

/// Full Fig. 4 result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// All cells, ordered by sensor then budget.
    pub cells: Vec<Fig4Cell>,
    /// `1 - mean(nominal | camera, eps=1) / mean(nominal | eps=0)` —
    /// the paper reports ≈0.84.
    pub camera_full_budget_reduction: f64,
}

impl Fig4Result {
    /// The cell for a given sensor and budget, if present.
    pub fn cell(&self, sensor: SensorKind, budget: f64) -> Option<&Fig4Cell> {
        self.cells
            .iter()
            .find(|c| c.sensor == sensor && (c.budget - budget).abs() < 1e-9)
    }
}

/// Runs (or reuses) the Fig. 4 experiment via the context memo.
///
/// The 10 (sensor, budget) cells are independent — each builds its own
/// victim and attacker off its own seed namespace
/// (`root/fig4/<sensor>/eps<budget>`) — so they run in parallel via
/// `drive_par::par_map`, which keeps the cell order (and thus the CSV)
/// byte-identical to a serial run for any `DRIVE_JOBS`.
pub fn run(ctx: &RunContext) -> Arc<Fig4Result> {
    ctx.memo("fig4", || {
        let ns = ctx.seeds_for("fig4");
        let mut grid = Vec::new();
        for (sensor, policy) in [
            (SensorKind::Camera, &ctx.artifacts.camera_attacker),
            (SensorKind::Imu, &ctx.artifacts.imu_attacker),
        ] {
            for budget in AttackBudget::fig4_grid() {
                grid.push((sensor, policy, budget));
            }
        }
        let cells = drive_par::par_map(&grid, |_, &(sensor, policy, budget)| {
            let seeds = ns
                .child(sensor)
                .child(format!("eps{:.2}", budget.epsilon()));
            let records = attacked_records(
                AgentKind::E2e,
                Some((policy, sensor)),
                budget,
                ctx,
                ctx.scale.box_episodes,
                &seeds,
            );
            Fig4Cell {
                sensor,
                budget: budget.epsilon(),
                summary: CellSummary::from_records(&records),
            }
        });
        let nominal = cells
            .iter()
            .find(|c| c.budget == 0.0)
            .expect("grid contains zero budget")
            .summary
            .nominal
            .mean;
        let attacked = cells
            .iter()
            .find(|c| c.sensor == SensorKind::Camera && (c.budget - 1.0).abs() < 1e-9)
            .expect("grid contains full budget")
            .summary
            .nominal
            .mean;
        let camera_full_budget_reduction = if nominal.abs() > 1e-9 {
            1.0 - attacked / nominal
        } else {
            0.0
        };
        Fig4Result {
            cells,
            camera_full_budget_reduction,
        }
    })
}

impl Fig4Result {
    /// Exports all cells as CSV (one row per sensor/budget cell).
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "sensor",
            "budget",
            "nominal_min",
            "nominal_q1",
            "nominal_median",
            "nominal_q3",
            "nominal_max",
            "nominal_mean",
            "adv_min",
            "adv_q1",
            "adv_median",
            "adv_q3",
            "adv_max",
            "adv_mean",
            "success_rate",
            "mean_passed",
            "episodes",
        ]);
        for c in &self.cells {
            let n = &c.summary.nominal;
            let a = &c.summary.adversarial;
            csv.row([
                c.sensor.to_string(),
                format!("{:.2}", c.budget),
                format!("{:.3}", n.min),
                format!("{:.3}", n.q1),
                format!("{:.3}", n.median),
                format!("{:.3}", n.q3),
                format!("{:.3}", n.max),
                format!("{:.3}", n.mean),
                format!("{:.3}", a.min),
                format!("{:.3}", a.q1),
                format!("{:.3}", a.median),
                format!("{:.3}", a.q3),
                format!("{:.3}", a.max),
                format!("{:.3}", a.mean),
                format!("{:.3}", c.summary.success_rate),
                format!("{:.3}", c.summary.mean_passed),
                c.summary.episodes.to_string(),
            ]);
        }
        csv
    }

    /// Builds the two Fig. 4 box plots (nominal / adversarial reward).
    pub fn to_svgs(&self) -> Vec<(String, String)> {
        let budgets: Vec<String> = AttackBudget::fig4_grid()
            .iter()
            .map(|b| format!("{b}"))
            .collect();
        let pick_series = |nominal: bool| -> Vec<(String, Vec<BoxStats>)> {
            [SensorKind::Camera, SensorKind::Imu]
                .into_iter()
                .map(|sensor| {
                    let boxes = AttackBudget::fig4_grid()
                        .iter()
                        .filter_map(|b| self.cell(sensor, b.epsilon()))
                        .map(|c| {
                            if nominal {
                                c.summary.nominal
                            } else {
                                c.summary.adversarial
                            }
                        })
                        .collect();
                    (sensor.to_string(), boxes)
                })
                .collect()
        };
        vec![
            (
                "fig4a_nominal".to_string(),
                box_plot_svg(
                    "Fig. 4a — nominal driving reward vs attack budget",
                    &budgets,
                    &pick_series(true),
                    "attack budget",
                    "nominal driving reward",
                ),
            ),
            (
                "fig4b_adversarial".to_string(),
                box_plot_svg(
                    "Fig. 4b — adversarial reward vs attack budget",
                    &budgets,
                    &pick_series(false),
                    "attack budget",
                    "cumulative adversarial reward",
                ),
            ),
        ]
    }
}

/// Registry entry for Fig. 4.
pub struct Fig4Experiment;

impl Experiment for Fig4Experiment {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn description(&self) -> &'static str {
        "Attack effects vs budget for camera and IMU attacks on the end-to-end victim"
    }

    fn cells(&self) -> usize {
        10
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![("fig4".to_string(), r.to_csv())],
            svgs: r.to_svgs(),
        }
    }
}

impl std::fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 4 — attack effects vs budget (victim: end-to-end agent)"
        )?;
        let mut t = Table::new([
            "attack",
            "eps",
            "nominal mean",
            "nominal med",
            "passed",
            "adv mean",
            "adv med",
            "success",
        ]);
        for c in &self.cells {
            t.row([
                c.sensor.to_string(),
                fmt_f(c.budget, 2),
                fmt_f(c.summary.nominal.mean, 1),
                fmt_f(c.summary.nominal.median, 1),
                fmt_f(c.summary.mean_passed, 2),
                fmt_f(c.summary.adversarial.mean, 1),
                fmt_f(c.summary.adversarial.median, 1),
                fmt_pct(c.summary.success_rate),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "camera attack at eps=1.0 reduces the nominal driving reward by {} (paper: ~84%)",
            fmt_pct(self.camera_full_budget_reduction)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};

    #[test]
    fn smoke_fig4_produces_full_grid() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-fig4-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.cells.len(), 10, "2 sensors x 5 budgets");
        assert!(result.cell(SensorKind::Camera, 1.0).is_some());
        assert!(result.cell(SensorKind::Imu, 0.25).is_some());
        let text = format!("{result}");
        assert!(text.contains("Fig. 4"));
        assert_eq!(result.to_csv().len(), 10);
        assert!(text.contains("camera"));
        assert!(text.contains("imu"));
        let svgs = result.to_svgs();
        assert_eq!(svgs.len(), 2);
        assert!(svgs.iter().all(|(_, s)| s.starts_with("<svg")));
    }
}
