//! Spans around the benchmark's calls into the program, with the program's
//! public counters read at the same boundaries.
//!
//! Spans live in memory and are written out as `trace.json` when the
//! traced run ends. A span's self time is its duration minus the part of
//! that interval its child spans cover, so at every level the children
//! plus the self-time residual add up to the parent.

use crate::json::quote;
use repro_bench::{PerfSample, ThroughputProbe};
use std::fmt::Write as _;
use std::time::Instant;

/// The program's own [`ThroughputProbe`] plus the process CPU clock,
/// started at one boundary and read at the next.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    probe: ThroughputProbe,
    cpu0: u64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            probe: ThroughputProbe::start(),
            cpu0: crate::sys::cpu_ns(),
        }
    }

    /// The deltas since [`Meter::start`].
    pub fn stop(&self) -> Delta {
        Delta {
            cpu_ns: crate::sys::cpu_ns() - self.cpu0,
            perf: self.probe.sample(""),
        }
    }
}

/// What a [`Meter`] measured.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Process CPU nanoseconds, all threads.
    pub cpu_ns: u64,
    /// Wall time, simulated control steps (serial and fleet alike: the
    /// fleet's slot-steps are a second view of the same steps), gradient
    /// updates (SAC and behaviour cloning alike) and the fleet counters.
    pub perf: PerfSample,
}

/// One closed span: times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas over the span.
    pub delta: Delta,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn wall_s(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// untraced run pays nothing for the hooks.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and the meter started at entry.
    stack: Vec<(usize, Meter)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().map(|&(p, _)| p),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            delta: Delta::default(),
        });
        self.stack.push((id, Meter::start()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let (id, meter) = self.stack.pop().expect("exit() without a matching enter()");
        let delta = meter.stop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.delta = delta;
    }

    /// The closed span named `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The span's self time: its duration minus its children's coverage.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time(span.start_ns, span.end_ns, &children)
    }

    /// The whole trace as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"cpu_ns\": {}, \"sim_steps\": {}, \"slot_steps\": {}, \"updates\": {}}}{}",
                s.id,
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(s),
                s.delta.cpu_ns,
                s.delta.perf.steps,
                s.delta.perf.fleet.slot_steps,
                s.delta.perf.updates,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Duration of `[start, end)` not covered by the union of `children`
/// (each clipped to the parent's interval; overlapping children count once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_subtracts_child_coverage() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested and out-of-range parts are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (12, 14), (18, 30)]), 3);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn tracer_nests_spans_and_adds_up() {
        let mut t = Tracer::new(true);
        t.enter("root");
        t.enter("a");
        t.exit();
        t.enter("b");
        t.enter("b.inner");
        t.exit();
        t.exit();
        t.exit();
        let root = t.find("root").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(
            t.find("b.inner").unwrap().parent,
            t.find("b").map(|s| Some(s.id)).unwrap()
        );
        // Children plus the self-time residual equal the parent exactly.
        let children: u64 = ["a", "b"].iter().map(|n| t.find(n).unwrap().dur_ns()).sum();
        assert_eq!(children + t.self_ns(root), root.dur_ns());
        assert!(Json::parse(&t.to_json()).is_ok());

        let mut off = Tracer::new(false);
        off.enter("x");
        off.exit();
        assert!(off.find("x").is_none());
    }
}
