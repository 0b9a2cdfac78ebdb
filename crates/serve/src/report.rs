//! The end-of-run serving report.

use crate::ladder::Transition;
use crate::request::Counters;
use drive_metrics::histo::LatencyHistogram;

/// Everything a serving run produces: reconciled counters, the latency
/// distribution of answered requests, the ladder's transition log, and
/// resilience totals. [`ServeReport::render`] is all-integer text, so a
/// fixed-seed simulator run reproduces it byte for byte.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Request accounting (reconciled at drain).
    pub counters: Counters,
    /// Enqueue-to-answer latency of served + degraded requests, µs.
    pub latency: LatencyHistogram,
    /// Ladder movements in order.
    pub transitions: Vec<Transition>,
    /// Worker respawns after kills/panics.
    pub respawns: u32,
    /// Worker stalls endured.
    pub stalls: u32,
    /// Observation values corrupted mid-flight.
    pub corrupted_values: u64,
    /// Observation frames that reached inference with non-finite values.
    pub nonfinite_frames: u64,
    /// Inference batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub max_batch: usize,
}

impl ServeReport {
    /// Deterministic multi-line rendering (integers only).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("counters: {}\n", self.counters));
        out.push_str(&format!("latency_us: {}\n", self.latency));
        out.push_str(&format!(
            "resilience: respawns={} stalls={} corrupted_values={} nonfinite_frames={} \
             batches={} max_batch={}\n",
            self.respawns,
            self.stalls,
            self.corrupted_values,
            self.nonfinite_frames,
            self.batches,
            self.max_batch
        ));
        out.push_str(&format!("transitions: {}\n", self.transitions.len()));
        for t in &self.transitions {
            out.push_str(&format!("  {t}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{Rung, TransitionReason};

    #[test]
    fn render_is_deterministic_text() {
        let mut latency = LatencyHistogram::new();
        latency.record(1_000);
        latency.record(2_000);
        let report = ServeReport {
            counters: Counters {
                submitted: 2,
                served: 2,
                ..Counters::default()
            },
            latency,
            transitions: vec![Transition {
                at_us: 500,
                from: Rung::Full,
                to: Rung::NoDetector,
                reason: TransitionReason::QueuePressure,
            }],
            respawns: 1,
            stalls: 0,
            corrupted_values: 0,
            nonfinite_frames: 0,
            batches: 2,
            max_batch: 1,
        };
        let a = report.render();
        assert_eq!(a, report.clone().render());
        assert!(a.contains("submitted=2 served=2"), "{a}");
        assert!(a.contains("full -> no-detector (queue-pressure)"), "{a}");
    }
}
