//! Throughput instrumentation for the experiment harness.
//!
//! [`ThroughputProbe`] snapshots the process-wide simulation-step and
//! gradient-update counters (`drive_sim::perf`, `drive_rl::perf`) together
//! with a wall clock; sampling it yields steps/sec and updates/sec for the
//! measured phase. [`PerfReport`] collects phase samples and serializes
//! them to JSON (written by `--perf-json <path>`; the criterion bench
//! target writes the same schema to `BENCH_perf.json`).

use crate::json::json_string;
use drive_sim::perf::FleetCounters;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Throughput of one measured phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfSample {
    /// Phase label (e.g. `"fig4"`).
    pub label: String,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Simulation control steps executed during the phase.
    pub steps: u64,
    /// Gradient updates performed during the phase.
    pub updates: u64,
    /// Batched-fleet counter deltas for the phase (all zero when the
    /// phase ran serially).
    pub fleet: FleetCounters,
    /// Fleet cells of the phase that panicked and were recomputed on the
    /// serial path ([`crate::harness::fleet_fallbacks`]).
    pub fleet_fallbacks: u64,
}

impl PerfSample {
    /// Whether the phase used the batched fleet, or tried to.
    fn fleet_ran(&self) -> bool {
        self.fleet.batches > 0 || self.fleet_fallbacks > 0
    }

    /// Simulation steps per second (0 for an instantaneous phase).
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.steps as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Gradient updates per second (0 for an instantaneous phase).
    pub fn updates_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.updates as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Snapshot of the wall clock and both throughput counters.
///
/// Construct at a phase boundary, call [`ThroughputProbe::sample`] at the
/// end of the phase; deltas are cumulative across all worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputProbe {
    t0: Instant,
    steps0: u64,
    updates0: u64,
    fleet0: FleetCounters,
    fallbacks0: u64,
}

impl ThroughputProbe {
    /// Starts measuring from the current counter values.
    pub fn start() -> Self {
        ThroughputProbe {
            t0: Instant::now(),
            steps0: drive_sim::perf::steps(),
            updates0: drive_rl::perf::updates(),
            fleet0: drive_sim::perf::fleet(),
            fallbacks0: crate::harness::fleet_fallbacks(),
        }
    }

    /// Measures the phase since [`ThroughputProbe::start`].
    pub fn sample(&self, label: impl Into<String>) -> PerfSample {
        PerfSample {
            label: label.into(),
            wall_secs: self.t0.elapsed().as_secs_f64(),
            steps: drive_sim::perf::steps().saturating_sub(self.steps0),
            updates: drive_rl::perf::updates().saturating_sub(self.updates0),
            fleet: drive_sim::perf::fleet().since(&self.fleet0),
            fleet_fallbacks: crate::harness::fleet_fallbacks().saturating_sub(self.fallbacks0),
        }
    }
}

/// A collection of phase samples, serializable as JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Worker-thread count the phases ran with (`drive_par::jobs()`).
    pub jobs: usize,
    /// Per-phase throughput samples, in execution order.
    pub samples: Vec<PerfSample>,
}

impl PerfReport {
    /// A report stamped with the current `drive_par` worker count.
    pub fn new() -> Self {
        PerfReport {
            jobs: drive_par::jobs(),
            samples: Vec::new(),
        }
    }

    /// Appends a phase sample.
    pub fn push(&mut self, sample: PerfSample) {
        self.samples.push(sample);
    }

    /// Renders the report as a JSON document (no external serializer:
    /// the workspace has no JSON dependency, and the schema is flat).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"repro-bench/perf-v1\",\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"phases\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            // Fleet counters only appear for phases that used the batched
            // engine or fell back from it, keeping serial-run exports
            // unchanged.
            let fleet = if s.fleet_ran() {
                format!(
                    ", \"fleet\": {{\"batches\": {}, \"episode_steps\": {}, \"episodes_in_flight\": {:.1}, \"occupancy\": {:.3}, \"infer_calls\": {}, \"infer_rows\": {}, \"infer_ns_per_row\": {:.1}, \"control_ns_per_step\": {:.1}, \"integrate_ns_per_step\": {:.1}, \"outcome_ns_per_step\": {:.1}, \"fallbacks\": {}}}",
                    s.fleet.batches,
                    s.fleet.slot_steps,
                    s.fleet.episodes_in_flight(),
                    s.fleet.occupancy(),
                    s.fleet.infer_calls,
                    s.fleet.infer_rows,
                    s.fleet.infer_ns_per_row(),
                    s.fleet.control_ns_per_slot_step(),
                    s.fleet.integrate_ns_per_slot_step(),
                    s.fleet.outcome_ns_per_slot_step(),
                    s.fleet_fallbacks,
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "    {{\"label\": {}, \"wall_secs\": {:.3}, \"steps\": {}, \"updates\": {}, \"steps_per_sec\": {:.1}, \"updates_per_sec\": {:.1}{}}}{}\n",
                json_string(&s.label),
                s.wall_secs,
                s.steps,
                s.updates,
                s.steps_per_sec(),
                s.updates_per_sec(),
                fleet,
                if i + 1 < self.samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report, creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// One human-readable summary line per phase.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&format!(
                "[perf] {:<12} {:>8.2}s  {:>10.0} steps/s  {:>8.0} updates/s\n",
                s.label,
                s.wall_secs,
                s.steps_per_sec(),
                s.updates_per_sec()
            ));
            if s.fleet_ran() {
                out.push_str(&format!(
                    "[perf] {:<12} fleet: {:.1} episodes in flight, {:.0}% occupancy, {:.0} ns/inference, {} serial fallback(s)\n",
                    "", // continuation line, aligned under the phase label
                    s.fleet.episodes_in_flight(),
                    s.fleet.occupancy() * 100.0,
                    s.fleet.infer_ns_per_row(),
                    s.fleet_fallbacks
                ));
                out.push_str(&format!(
                    "[perf] {:<12} phases: {:.0} control / {:.0} integrate / {:.0} outcome ns per slot-step\n",
                    "",
                    s.fleet.control_ns_per_slot_step(),
                    s.fleet.integrate_ns_per_slot_step(),
                    s.fleet.outcome_ns_per_slot_step()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_measures_counter_deltas() {
        let probe = ThroughputProbe::start();
        drive_sim::perf::record_steps(7);
        drive_rl::perf::record_updates(3);
        let s = probe.sample("unit");
        assert!(s.steps >= 7);
        assert!(s.updates >= 3);
        assert!(s.wall_secs >= 0.0);
    }

    #[test]
    fn rates_are_zero_for_zero_wall_time() {
        let s = PerfSample {
            label: "x".into(),
            wall_secs: 0.0,
            steps: 10,
            updates: 10,
            ..PerfSample::default()
        };
        assert_eq!(s.steps_per_sec(), 0.0);
        assert_eq!(s.updates_per_sec(), 0.0);
    }

    #[test]
    fn json_report_round_trips_structure() {
        let mut r = PerfReport::new();
        r.push(PerfSample {
            label: "fig4".into(),
            wall_secs: 2.0,
            steps: 1000,
            updates: 50,
            ..PerfSample::default()
        });
        r.push(PerfSample {
            label: "total \"quoted\"".into(),
            wall_secs: 4.0,
            steps: 2000,
            updates: 100,
            ..PerfSample::default()
        });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"repro-bench/perf-v1\""));
        assert!(json.contains("\"steps_per_sec\": 500.0"));
        assert!(json.contains("\\\"quoted\\\""));
        // Exactly one trailing comma between the two phase objects.
        assert_eq!(json.matches("},\n").count(), 1);
        let dir = crate::test_dir::TestDir::new("repro-bench-perf-test");
        let path = dir.join("perf.json");
        r.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
    }

    #[test]
    fn summary_lists_each_phase() {
        let mut r = PerfReport::new();
        r.push(PerfSample {
            label: "baseline".into(),
            wall_secs: 1.0,
            steps: 100,
            updates: 0,
            ..PerfSample::default()
        });
        let text = r.summary();
        assert!(text.contains("baseline"));
        assert!(text.contains("steps/s"));
        // Serial phases get no fleet continuation line.
        assert!(!text.contains("fleet:"));
    }

    fn fleet_sample(label: &str) -> PerfSample {
        PerfSample {
            label: label.into(),
            wall_secs: 2.0,
            steps: 4000,
            updates: 0,
            fleet: FleetCounters {
                batches: 50,
                slot_steps: 4000,
                capacity: 6400,
                infer_ns: 2_000_000,
                infer_rows: 4000,
                infer_calls: 50,
                control_ns: 3_200_000,
                integrate_ns: 1_600_000,
                outcome_ns: 400_000,
            },
            fleet_fallbacks: 2,
        }
    }

    #[test]
    fn fleet_counters_appear_in_json_only_for_fleet_phases() {
        let mut r = PerfReport::new();
        r.push(fleet_sample("fig4"));
        r.push(PerfSample {
            label: "serial".into(),
            wall_secs: 1.0,
            steps: 10,
            updates: 0,
            ..PerfSample::default()
        });
        let json = r.to_json();
        assert_eq!(json.matches("\"fleet\":").count(), 1);
        assert!(json.contains("\"episodes_in_flight\": 80.0"), "{json}");
        assert!(json.contains("\"occupancy\": 0.625"), "{json}");
        assert!(json.contains("\"infer_ns_per_row\": 500.0"), "{json}");
        assert!(json.contains("\"episode_steps\": 4000"), "{json}");
        assert!(json.contains("\"control_ns_per_step\": 800.0"), "{json}");
        assert!(json.contains("\"integrate_ns_per_step\": 400.0"), "{json}");
        assert!(json.contains("\"outcome_ns_per_step\": 100.0"), "{json}");
        assert!(json.contains("\"fallbacks\": 2"), "{json}");
    }

    /// A fleet phase whose every cell fell back still reports the fleet
    /// block, so the fallbacks are never silent.
    #[test]
    fn fallbacks_alone_show_the_fleet_block() {
        let mut r = PerfReport::new();
        r.push(PerfSample {
            label: "fig4".into(),
            wall_secs: 1.0,
            fleet_fallbacks: 3,
            ..PerfSample::default()
        });
        assert!(r.to_json().contains("\"fallbacks\": 3"));
        assert!(r.summary().contains("3 serial fallback(s)"));
    }

    #[test]
    fn fleet_summary_line_reports_derived_metrics() {
        let mut r = PerfReport::new();
        r.push(fleet_sample("fig4"));
        let text = r.summary();
        assert!(text.contains("fleet: 80.0 episodes in flight"), "{text}");
        assert!(text.contains("62% occupancy"), "{text}");
        assert!(
            text.contains("500 ns/inference, 2 serial fallback(s)"),
            "{text}"
        );
        assert!(
            text.contains("phases: 800 control / 400 integrate / 100 outcome ns per slot-step"),
            "{text}"
        );
    }

    #[test]
    fn probe_captures_fleet_deltas() {
        let probe = ThroughputProbe::start();
        drive_sim::perf::record_fleet_batch(16);
        drive_sim::perf::record_fleet_capacity(32);
        drive_sim::perf::record_fleet_infer(8_000, 16);
        let s = probe.sample("unit");
        assert!(s.fleet.batches >= 1);
        assert!(s.fleet.slot_steps >= 16);
        assert!(s.fleet.capacity >= 32);
        assert!(s.fleet.infer_rows >= 16);
    }
}
