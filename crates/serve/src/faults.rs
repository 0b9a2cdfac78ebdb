//! Seeded fault injection for the serving layer.
//!
//! Three failure classes, mirroring what takes down real inference
//! services, all generated deterministically from one seed so a faulted
//! run can be replayed bit-for-bit:
//!
//! * **Worker kills** — the worker thread dies mid-service (a panic in
//!   our model); the supervisor must respawn it and no in-flight request
//!   may be lost.
//! * **Worker stalls** — the worker freezes for a while (GC pause, page
//!   fault storm); queued requests age toward their deadlines.
//! * **Observation corruption** — request payloads are damaged mid-flight,
//!   reusing [`drive_sim::faults`]' NaN-poisoning injector; the detector
//!   rung must notice and the ladder must degrade rather than serve
//!   garbage actions.

use drive_seed::SeedTree;
use drive_sim::faults::{FaultInjector, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rates and shapes of injected serving faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Worker-kill events over the horizon.
    pub kills: u32,
    /// Worker-stall events over the horizon.
    pub stalls: u32,
    /// Duration of each stall, µs.
    pub stall_us: u64,
    /// Per-element probability that a request's observation is
    /// NaN-poisoned while a corruption burst is active (see
    /// [`FaultSchedule::poisoned`]).
    pub corrupt_rate: f64,
}

impl FaultPlanConfig {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlanConfig {
            kills: 0,
            stalls: 0,
            stall_us: 0,
            corrupt_rate: 0.0,
        }
    }
}

/// One scheduled fault against a specific worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Die before serving the batch picked up at/after `at_us`.
    Kill {
        /// Trigger time, µs.
        at_us: u64,
    },
    /// Freeze for `dur_us` before serving.
    Stall {
        /// Trigger time, µs.
        at_us: u64,
        /// Stall length, µs.
        dur_us: u64,
    },
}

impl WorkerFault {
    fn at_us(&self) -> u64 {
        match self {
            WorkerFault::Kill { at_us } | WorkerFault::Stall { at_us, .. } => *at_us,
        }
    }
}

/// The full seeded plan: per-worker fault timelines plus an observation
/// corruption schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `per_worker[w]` holds worker `w`'s faults sorted by trigger time.
    pub per_worker: Vec<Vec<WorkerFault>>,
    /// Observation-corruption schedule (drive-sim's injector handles the
    /// burst timing and per-element rolls).
    pub corruption: FaultSchedule,
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn none(workers: usize) -> Self {
        FaultPlan {
            per_worker: vec![Vec::new(); workers],
            corruption: FaultSchedule::none(),
        }
    }

    /// Generates a plan for `workers` workers over `horizon_us` from a
    /// seed. Deterministic: same `(seed, workers, horizon, config)` means
    /// the same plan, byte for byte.
    pub fn seeded(seed: u64, workers: usize, horizon_us: u64, config: &FaultPlanConfig) -> Self {
        let tree = SeedTree::root(seed).child("serve-faults");
        let mut rng = StdRng::seed_from_u64(tree.child("events").seed());
        let mut per_worker = vec![Vec::new(); workers.max(1)];
        // Events land in the middle 80% of the horizon so startup and
        // drain stay clean.
        let lo = horizon_us / 10;
        let hi = horizon_us.saturating_sub(horizon_us / 10).max(lo + 1);
        for _ in 0..config.kills {
            let at_us = rng.gen_range(lo..hi);
            let w = rng.gen_range(0..per_worker.len());
            per_worker[w].push(WorkerFault::Kill { at_us });
        }
        for _ in 0..config.stalls {
            let at_us = rng.gen_range(lo..hi);
            let w = rng.gen_range(0..per_worker.len());
            per_worker[w].push(WorkerFault::Stall {
                at_us,
                dur_us: config.stall_us,
            });
        }
        for faults in &mut per_worker {
            faults.sort_by_key(WorkerFault::at_us);
        }
        let corruption = if config.corrupt_rate > 0.0 {
            FaultSchedule::poisoned(config.corrupt_rate, tree.child("corrupt").seed())
        } else {
            FaultSchedule::none()
        };
        FaultPlan {
            per_worker,
            corruption,
        }
    }

    /// A cursor over worker `w`'s timeline (fresh — starts at the first
    /// fault).
    pub fn cursor(&self, worker: usize) -> FaultCursor {
        FaultCursor {
            faults: self.per_worker.get(worker).cloned().unwrap_or_default(),
            next: 0,
        }
    }

    /// An observation-corruption injector for this plan (the caller keys
    /// it by a stream/episode id so parallel workers decorrelate).
    pub fn corruption_injector(&self, stream: u64) -> FaultInjector {
        FaultInjector::for_episode(&self.corruption, stream)
    }
}

/// Consumes one worker's fault timeline in time order.
#[derive(Debug, Clone)]
pub struct FaultCursor {
    faults: Vec<WorkerFault>,
    next: usize,
}

impl FaultCursor {
    /// Pops the next fault if its trigger time has passed.
    pub fn due(&mut self, now_us: u64) -> Option<WorkerFault> {
        let f = *self.faults.get(self.next)?;
        if f.at_us() <= now_us {
            self.next += 1;
            Some(f)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_sorted() {
        let cfg = FaultPlanConfig {
            kills: 3,
            stalls: 4,
            stall_us: 5_000,
            corrupt_rate: 0.3,
        };
        let a = FaultPlan::seeded(42, 3, 1_000_000, &cfg);
        let b = FaultPlan::seeded(42, 3, 1_000_000, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.per_worker.iter().map(Vec::len).sum::<usize>(), 7);
        for worker in &a.per_worker {
            for pair in worker.windows(2) {
                assert!(pair[0].at_us() <= pair[1].at_us(), "sorted per worker");
            }
        }
        let c = FaultPlan::seeded(43, 3, 1_000_000, &cfg);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn events_avoid_the_horizon_edges() {
        let cfg = FaultPlanConfig {
            kills: 20,
            stalls: 20,
            stall_us: 100,
            corrupt_rate: 0.0,
        };
        let plan = FaultPlan::seeded(7, 2, 1_000_000, &cfg);
        for worker in &plan.per_worker {
            for f in worker {
                assert!((100_000..900_000).contains(&f.at_us()), "{f:?}");
            }
        }
        assert!(plan.corruption.is_noop());
    }

    #[test]
    fn cursor_delivers_in_order_once() {
        let plan = FaultPlan {
            per_worker: vec![vec![
                WorkerFault::Kill { at_us: 100 },
                WorkerFault::Stall {
                    at_us: 300,
                    dur_us: 50,
                },
            ]],
            corruption: FaultSchedule::none(),
        };
        let mut cur = plan.cursor(0);
        assert_eq!(cur.due(50), None);
        assert_eq!(cur.due(150), Some(WorkerFault::Kill { at_us: 100 }));
        assert_eq!(cur.due(150), None, "not due yet");
        assert_eq!(
            cur.due(1_000),
            Some(WorkerFault::Stall {
                at_us: 300,
                dur_us: 50
            })
        );
        assert_eq!(cur.due(u64::MAX), None, "drained");
        // Out-of-range worker index yields an empty cursor.
        assert_eq!(plan.cursor(9).due(u64::MAX), None);
    }

    #[test]
    fn none_plan_never_fires() {
        let plan = FaultPlan::none(4);
        assert!(plan.per_worker.iter().all(Vec::is_empty));
        assert!(plan.corruption.is_noop());
        let mut inj = plan.corruption_injector(0);
        inj.begin_step();
        let mut obs = vec![1.0f32; 8];
        inj.corrupt_observation(&mut obs);
        assert!(obs.iter().all(|v| *v == 1.0));
    }
}
