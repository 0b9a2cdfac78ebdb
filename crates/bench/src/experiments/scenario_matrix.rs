//! Scenario matrix — agents × attacks × procedurally generated scenarios.
//!
//! The paper evaluates every attack on one hand-built freeway scenario.
//! This experiment asks how the attack/defense picture generalizes across
//! road topology and traffic: it draws a seeded grid of scenarios from
//! `drive_sim::generate` (topology × traffic density × NPC speed mix ×
//! benign-fault intensity, several variants per axes point), then sweeps
//! agents × attacks over every generated world through the shared
//! [`attacked_records_in`] cell executor — journal/resume and `--fleet`
//! batching included (faulted cells stay on the serial path).
//!
//! The grid is fixed and scale-independent: 36 axes points × 3 variants =
//! 108 distinct scenarios across all 3 topologies. Scale only changes how
//! many episodes each evaluation cell runs.

use crate::engine::{Experiment, ExperimentOutput, RunContext};
use crate::harness::{attacked_records_in, AgentKind, ScenarioCell};
use attack_core::budget::AttackBudget;
use attack_core::sensor::SensorKind;
use drive_metrics::episode::CellSummary;
use drive_metrics::export::Csv;
use drive_metrics::report::{fmt_f, fmt_pct, Table};
use drive_seed::fnv1a_64_fmt;
use drive_sim::generate::{
    generate, GeneratedScenario, ScenarioAxes, SpeedMix, TopologyKind, TrafficDensity,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Speed mixes swept by the matrix (two of the three bands keep the grid
/// at ~100 scenarios; `Mixed` is covered by the generator's own tests).
const SPEED_MIXES: [SpeedMix; 2] = [SpeedMix::Slow, SpeedMix::Fast];

/// Benign fault-schedule intensities swept by the matrix.
const FAULT_INTENSITIES: [f64; 2] = [0.0, 0.5];

/// Independently drawn scenarios per axes point.
const VARIANTS: usize = 3;

/// Agents evaluated on every scenario: the nominal victim and the
/// strongest fine-tuned defense.
const AGENTS: [AgentKind; 2] = [AgentKind::E2e, AgentKind::AdvRhoHalf];

/// One evaluated `(scenario, agent, attack)` cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Index into [`ScenarioMatrixResult::scenarios`].
    pub scenario: usize,
    /// Evaluated agent.
    pub agent: AgentKind,
    /// Attacker sensor (`None` = nominal, unattacked).
    pub sensor: Option<SensorKind>,
    /// Aggregated episode statistics.
    pub summary: CellSummary,
    /// FNV-1a checksum of the cell's episode records — pins the cell's
    /// exact outcome in the CSV (and thus in the manifest checksum chain).
    pub records_checksum: u64,
}

/// Full scenario-matrix result.
#[derive(Debug, Clone)]
pub struct ScenarioMatrixResult {
    /// Every generated scenario, in grid order.
    pub scenarios: Vec<GeneratedScenario>,
    /// Every evaluated cell, in grid order.
    pub cells: Vec<MatrixCell>,
    /// Number of distinct scenario fingerprints (must equal
    /// `scenarios.len()` for a healthy generator).
    pub distinct_fingerprints: usize,
    /// Episodes each cell ran.
    pub episodes_per_cell: usize,
}

/// The full scenario grid, in deterministic sweep order.
fn axes_grid() -> Vec<ScenarioAxes> {
    let mut grid = Vec::new();
    for topology in TopologyKind::ALL {
        for density in TrafficDensity::ALL {
            for speed_mix in SPEED_MIXES {
                for fault_intensity in FAULT_INTENSITIES {
                    grid.push(ScenarioAxes {
                        topology,
                        density,
                        speed_mix,
                        fault_intensity,
                    });
                }
            }
        }
    }
    grid
}

/// Generates the matrix's scenarios off the experiment's seed namespace.
///
/// Each scenario draws from its own labeled node
/// (`.../gen/<topology>/<density>/<mix>/f<intensity>/<variant>`), so the
/// set is independent of enumeration order and any scenario can be
/// re-derived in isolation.
pub fn generate_matrix(ns: &drive_seed::SeedTree) -> Vec<GeneratedScenario> {
    let gen_ns = ns.child("gen");
    let mut scenarios = Vec::new();
    for axes in axes_grid() {
        let axes_node = gen_ns
            .child(axes.topology.label())
            .child(axes.density.label())
            .child(axes.speed_mix.label())
            .child(format!(
                "f{:03}",
                (axes.fault_intensity * 100.0).round() as u32
            ));
        for variant in 0..VARIANTS {
            scenarios.push(generate(axes, &axes_node.child(variant)));
        }
    }
    scenarios
}

/// Runs (or reuses) the scenario-matrix experiment via the context memo.
pub fn run(ctx: &RunContext) -> Arc<ScenarioMatrixResult> {
    ctx.memo("scenario-matrix", || {
        let ns = ctx.seeds_for("scenario-matrix");
        let scenarios = generate_matrix(&ns);
        let distinct_fingerprints = scenarios
            .iter()
            .map(|g| g.spec.fingerprint())
            .collect::<HashSet<_>>()
            .len();

        // Scatter-round episodes are the right order of magnitude here:
        // the matrix trades per-cell depth for breadth across worlds.
        let episodes = (ctx.scale.scatter_rounds / 2).max(1);
        let eval_ns = ns.child("eval");
        let mut grid = Vec::new();
        for (i, g) in scenarios.iter().enumerate() {
            for agent in AGENTS {
                for sensor in [None, Some(SensorKind::Camera)] {
                    grid.push((i, g, agent, sensor));
                }
            }
        }
        let cells = drive_par::par_map(&grid, |_, &(i, g, agent, sensor)| {
            let sensor_label = match sensor {
                None => "none".to_string(),
                Some(s) => s.to_string(),
            };
            let seeds = eval_ns
                .child(&g.spec.name)
                .child(agent.label())
                .child(sensor_label);
            let (attack, budget) = match sensor {
                None => (None, AttackBudget::ZERO),
                Some(s) => (
                    Some((&ctx.artifacts.camera_attacker, s)),
                    AttackBudget::new(1.0),
                ),
            };
            let records = attacked_records_in(
                agent,
                attack,
                budget,
                ctx,
                episodes,
                &seeds,
                Some(ScenarioCell {
                    scenario: g.spec.scenario(),
                    fingerprint: g.spec.fingerprint(),
                    faults: Some(&g.faults),
                }),
            );
            MatrixCell {
                scenario: i,
                agent,
                sensor,
                summary: CellSummary::from_records(&records),
                records_checksum: fnv1a_64_fmt(format_args!("{records:?}")),
            }
        });
        ScenarioMatrixResult {
            scenarios,
            cells,
            distinct_fingerprints,
            episodes_per_cell: episodes,
        }
    })
}

impl ScenarioMatrixResult {
    /// One row per generated scenario: axes, traffic, fingerprint.
    pub fn scenarios_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "name",
            "topology",
            "density",
            "speed_mix",
            "fault_intensity",
            "npcs",
            "total_lanes",
            "fingerprint",
        ]);
        for g in &self.scenarios {
            let s = g.spec.scenario();
            csv.row([
                g.spec.name.clone(),
                g.axes.topology.label().to_string(),
                g.axes.density.label().to_string(),
                g.axes.speed_mix.label().to_string(),
                format!("{:.2}", g.axes.fault_intensity),
                s.npcs.len().to_string(),
                s.road.total_lanes().to_string(),
                format!("{:016x}", g.spec.fingerprint()),
            ]);
        }
        csv
    }

    /// One row per evaluated cell, checksum included.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "scenario",
            "topology",
            "density",
            "speed_mix",
            "fault_intensity",
            "agent",
            "attack",
            "episodes",
            "nominal_mean",
            "nominal_median",
            "adv_mean",
            "success_rate",
            "mean_passed",
            "records_checksum",
        ]);
        for c in &self.cells {
            let g = &self.scenarios[c.scenario];
            csv.row([
                g.spec.name.clone(),
                g.axes.topology.label().to_string(),
                g.axes.density.label().to_string(),
                g.axes.speed_mix.label().to_string(),
                format!("{:.2}", g.axes.fault_intensity),
                c.agent.label().to_string(),
                c.sensor.map_or("none".to_string(), |s| s.to_string()),
                c.summary.episodes.to_string(),
                format!("{:.3}", c.summary.nominal.mean),
                format!("{:.3}", c.summary.nominal.median),
                format!("{:.3}", c.summary.adversarial.mean),
                format!("{:.3}", c.summary.success_rate),
                format!("{:.3}", c.summary.mean_passed),
                format!("{:016x}", c.records_checksum),
            ]);
        }
        csv
    }

    /// Mean nominal reward over the cells matching `(topology, agent,
    /// sensor)`.
    fn mean_nominal(
        &self,
        topology: TopologyKind,
        agent: AgentKind,
        sensor: Option<SensorKind>,
    ) -> f64 {
        let picked: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| {
                self.scenarios[c.scenario].axes.topology == topology
                    && c.agent == agent
                    && c.sensor == sensor
            })
            .map(|c| c.summary.nominal.mean)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    }

    /// Mean attack success rate over the attacked cells matching
    /// `(topology, agent)`.
    fn mean_success(&self, topology: TopologyKind, agent: AgentKind) -> f64 {
        let picked: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| {
                self.scenarios[c.scenario].axes.topology == topology
                    && c.agent == agent
                    && c.sensor.is_some()
            })
            .map(|c| c.summary.success_rate)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    }
}

/// Registry entry for the scenario matrix.
pub struct ScenarioMatrixExperiment;

impl Experiment for ScenarioMatrixExperiment {
    fn name(&self) -> &'static str {
        "scenario-matrix"
    }

    fn description(&self) -> &'static str {
        "Agents x attacks swept over 108 generated scenarios (3 topologies x traffic x faults)"
    }

    fn cells(&self) -> usize {
        // 36 axes points x 3 variants x 2 agents x 2 attacks.
        432
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let r = run(ctx);
        ExperimentOutput {
            report: r.to_string(),
            csvs: vec![
                ("scenario_matrix".to_string(), r.to_csv()),
                ("scenario_matrix_scenarios".to_string(), r.scenarios_csv()),
            ],
            svgs: Vec::new(),
        }
    }
}

impl std::fmt::Display for ScenarioMatrixResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topologies: HashSet<&str> = self
            .scenarios
            .iter()
            .map(|g| g.axes.topology.label())
            .collect();
        writeln!(
            f,
            "Scenario matrix — {} generated scenarios ({} distinct fingerprints, {} topologies), \
             {} cells x {} episode(s)",
            self.scenarios.len(),
            self.distinct_fingerprints,
            topologies.len(),
            self.cells.len(),
            self.episodes_per_cell
        )?;
        let mut t = Table::new([
            "topology",
            "agent",
            "nominal (no attack)",
            "nominal (camera)",
            "attack success",
        ]);
        for topology in TopologyKind::ALL {
            for agent in AGENTS {
                t.row([
                    topology.label().to_string(),
                    agent.label().to_string(),
                    fmt_f(self.mean_nominal(topology, agent, None), 1),
                    fmt_f(
                        self.mean_nominal(topology, agent, Some(SensorKind::Camera)),
                        1,
                    ),
                    fmt_pct(self.mean_success(topology, agent)),
                ]);
            }
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use attack_core::pipeline::{prepare, PipelineConfig};
    use drive_seed::SeedTree;

    /// Generation alone (no episodes): the grid is ≥100 distinct,
    /// validated scenarios across all three topologies, and is a pure
    /// function of the seed namespace.
    #[test]
    fn matrix_generates_distinct_valid_scenarios() {
        let ns = SeedTree::root(10_000).child("scenario-matrix");
        let scenarios = generate_matrix(&ns);
        assert!(scenarios.len() >= 100, "got {}", scenarios.len());
        let fingerprints: HashSet<u64> = scenarios.iter().map(|g| g.spec.fingerprint()).collect();
        assert_eq!(fingerprints.len(), scenarios.len(), "fingerprint collision");
        let topologies: HashSet<&str> = scenarios
            .iter()
            .map(|g| g.spec.scenario().road.topology.label())
            .collect();
        assert_eq!(topologies.len(), 3);
        for g in &scenarios {
            assert!(g.spec.scenario().validate().is_ok(), "{}", g.spec.name);
        }
        let again = generate_matrix(&ns);
        assert_eq!(scenarios, again, "generation must be deterministic");
    }

    /// The per-cell checksum streams the records' debug text through the
    /// hash; it must equal the hash of the built `String`, special floats
    /// (whose debug forms are `NaN`, `-0.0`, `inf`, `-inf`) included.
    #[test]
    fn streamed_records_checksum_equals_the_string_path() {
        use drive_sim::record::EpisodeRecord;
        let records = vec![
            EpisodeRecord {
                steps: 3,
                dt: 0.1,
                nominal_return: f64::NAN,
                adv_return: -0.0,
                deviation: vec![f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-310],
                perturbation: vec![f64::from_bits(0x7ff8_0000_0000_0001), 0.5],
                attack_start: Some(1),
                ..EpisodeRecord::default()
            },
            EpisodeRecord::default(),
        ];
        assert_eq!(
            fnv1a_64_fmt(format_args!("{records:?}")),
            drive_seed::fnv1a_64(format!("{records:?}").as_bytes())
        );
    }

    /// End-to-end smoke: a reduced sweep over the full grid produces one
    /// summary per cell and a coherent CSV pair.
    #[test]
    fn smoke_matrix_runs_full_grid() {
        let _cells = crate::test_latch::run_cells();
        let dir = crate::test_dir::TestDir::new("repro-bench-scenario-matrix-test");
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        let ctx = RunContext::new(&artifacts, &config, Scale::smoke());
        let result = run(&ctx);
        assert_eq!(result.scenarios.len(), 108);
        assert_eq!(result.cells.len(), 432);
        assert_eq!(result.distinct_fingerprints, 108);
        assert!(result
            .cells
            .iter()
            .all(|c| c.summary.episodes == result.episodes_per_cell));
        assert_eq!(result.to_csv().len(), 432);
        assert_eq!(result.scenarios_csv().len(), 108);
        let text = format!("{result}");
        assert!(text.contains("Scenario matrix"));
        assert!(text.contains("on_ramp"));
        assert!(text.contains("lane_drop"));
    }
}
