//! The serving scheduler: every dispatch and completion decision that
//! does not depend on the clock, made the same way by the threaded
//! [`crate::server`] and the virtual-time [`crate::sim`]. Each batch goes
//! [`Scheduler::dispatch`] → [`Scheduler::expire`] → [`Pipeline::process`]
//! (in the driver) → [`Scheduler::complete`], at the driver's own "now".
//! Outcomes go through a `resolve` hook that says whether they won their
//! request (the server's response slots are first-wins against client
//! timeouts); only winners are counted.

use crate::config::ServeConfig;
use crate::faults::{FaultCursor, FaultPlan, WorkerFault};
use crate::ladder::{Ladder, Pressure, Rung};
use crate::pipeline::{BatchResult, Pipeline, PipelineStats};
use crate::report::ServeReport;
use crate::request::{Outcome, Request};
use drive_nn::gaussian::GaussianPolicy;
use std::borrow::Borrow;
use std::sync::Arc;

/// The verdict of [`Scheduler::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// A kill struck at `at_us` (after any stalls before it): the slot
    /// dies without taking the batch, and its driver respawns it.
    Killed {
        /// When the slot died, µs.
        at_us: u64,
    },
    /// Serve the batch from `start_us` (now plus every stall that struck)
    /// at `rung`.
    Serve {
        /// When service starts, µs.
        start_us: u64,
        /// The rung this batch is served at.
        rung: Rung,
        /// Whether the slot's fallback PID was reset for this batch.
        reset_fallback: bool,
    },
}

#[derive(Debug)]
struct Slot {
    cursor: FaultCursor,
    generation: u32,
    /// Ladder transitions already seen at this slot's last dispatch.
    seen: usize,
    /// The rung of the batch in flight.
    rung: Rung,
    /// Counted deadline misses of the batch in flight.
    misses: u32,
}

/// The serving state machine shared by both engines: the ladder, the
/// request books, the latency histogram, per-slot fault timelines and
/// generations, and the totals of retired pipelines.
#[derive(Debug)]
pub struct Scheduler {
    policy: Arc<GaussianPolicy>,
    config: ServeConfig,
    plan: FaultPlan,
    ladder: Ladder,
    slots: Vec<Slot>,
    /// The report so far, but for the transition log and the retired
    /// pipelines' totals.
    books: ServeReport,
    retired: PipelineStats,
}

impl Scheduler {
    /// A scheduler for `config.workers` slots at [`Rung::Full`].
    pub fn new(policy: Arc<GaussianPolicy>, config: ServeConfig, plan: FaultPlan) -> Self {
        Scheduler {
            slots: (0..config.workers)
                .map(|w| Slot {
                    cursor: plan.cursor(w),
                    generation: 0,
                    seen: 0,
                    rung: Rung::Full,
                    misses: 0,
                })
                .collect(),
            ladder: Ladder::new(config.ladder),
            books: ServeReport::default(),
            retired: PipelineStats::default(),
            policy,
            config,
            plan,
        }
    }

    /// A pipeline for `slot`'s current generation. Its corruption stream
    /// is `slot * 1000 + generation`, so every incarnation of every slot
    /// draws its own corruption.
    pub fn pipeline(&self, slot: usize) -> Pipeline {
        let stream = slot as u64 * 1_000 + u64::from(self.slots[slot].generation);
        Pipeline::new(
            Arc::clone(&self.policy),
            &self.config,
            Some(self.plan.corruption_injector(stream)),
        )
    }

    /// Counts a killed slot's respawn and returns its next generation's
    /// pipeline.
    pub fn respawn(&mut self, slot: usize) -> Pipeline {
        self.books.respawns += 1;
        self.slots[slot].generation += 1;
        self.pipeline(slot)
    }

    /// Folds a pipeline's totals into the report (a killed or drained
    /// slot's last act).
    pub fn retire(&mut self, pipeline: &Pipeline) {
        self.retired.absorb(pipeline.stats());
        self.books.corrupted_values += pipeline.corrupted_values();
    }

    /// Counts one submission.
    pub fn submit(&mut self) {
        self.books.counters.submitted += 1;
    }

    /// Records one resolved outcome (and its latency, if answered).
    pub fn record(&mut self, outcome: &Outcome) {
        if let Some(l) = outcome.latency_us() {
            self.books.latency.record(l);
        }
        self.books.counters.record(outcome);
    }

    /// Starts `slot`'s next batch at `now_us`. Every due fault strikes:
    /// stalls add up, and a kill ends the dispatch. A surviving dispatch
    /// takes the ladder's rung and resets `pipeline`'s fallback PID if
    /// and only if the ladder moved into [`Rung::Fallback`] since this
    /// slot's last dispatch — a stale integral must not jerk the wheel,
    /// whatever rungs the ladder visited in between.
    pub fn dispatch(&mut self, slot: usize, now_us: u64, pipeline: &mut Pipeline) -> Dispatch {
        let s = &mut self.slots[slot];
        let mut at_us = now_us;
        while let Some(fault) = s.cursor.due(at_us) {
            match fault {
                WorkerFault::Kill { .. } => return Dispatch::Killed { at_us },
                WorkerFault::Stall { dur_us, .. } => {
                    self.books.stalls += 1;
                    at_us += dur_us;
                }
            }
        }
        let transitions = self.ladder.transitions();
        let reset_fallback = transitions[s.seen..].iter().any(|t| t.to == Rung::Fallback);
        if reset_fallback {
            pipeline.on_rung_change(Rung::Fallback);
        }
        s.seen = transitions.len();
        s.rung = self.ladder.rung();
        Dispatch::Serve {
            start_us: at_us,
            rung: s.rung,
            reset_fallback,
        }
    }

    /// Resolves the requests of `slot`'s batch that expired before
    /// `now_us` as timed out and returns the rest. `resolve` reports
    /// whether an outcome won its request; only winners are counted, as
    /// records and as deadline misses. A batch with nothing left is over:
    /// the ladder observes its misses at `now_us` with `queue_depth`.
    pub fn expire<T: Borrow<Request>>(
        &mut self,
        slot: usize,
        now_us: u64,
        queue_depth: usize,
        batch: Vec<T>,
        mut resolve: impl FnMut(&T, &Outcome) -> bool,
    ) -> Vec<T> {
        let mut misses = 0;
        let live: Vec<T> = batch
            .into_iter()
            .filter(|item| {
                let req = item.borrow();
                if req.expires_at_us() >= now_us {
                    return true;
                }
                let outcome = Outcome::TimedOut {
                    waited_us: now_us.saturating_sub(req.enqueued_at_us),
                };
                if resolve(item, &outcome) {
                    self.record(&outcome);
                    misses += 1;
                }
                false
            })
            .collect();
        self.slots[slot].misses = misses;
        if live.is_empty() {
            self.observe(slot, now_us, queue_depth, false);
        }
        live
    }

    /// Resolves `slot`'s answered batch at `finish_us` — served at
    /// [`Rung::Full`], degraded below it — then feeds the batch's
    /// pressure (queue depth, misses, alarm) to the ladder.
    pub fn complete<T: Borrow<Request>>(
        &mut self,
        slot: usize,
        finish_us: u64,
        queue_depth: usize,
        batch: &[T],
        result: &BatchResult,
        mut resolve: impl FnMut(&T, &Outcome) -> bool,
    ) {
        let rung = self.slots[slot].rung;
        for (item, &action) in batch.iter().zip(&result.actions) {
            let latency_us = finish_us.saturating_sub(item.borrow().enqueued_at_us);
            let outcome = if rung == Rung::Full {
                Outcome::Served { action, latency_us }
            } else {
                Outcome::Degraded {
                    rung,
                    action,
                    latency_us,
                }
            };
            if resolve(item, &outcome) {
                self.record(&outcome);
            }
        }
        self.observe(slot, finish_us, queue_depth, result.alarm);
    }

    fn observe(&mut self, slot: usize, at_us: u64, queue_depth: usize, alarm: bool) {
        self.ladder.observe(
            at_us,
            Pressure {
                queue_depth,
                queue_capacity: self.config.queue_capacity,
                deadline_misses: std::mem::take(&mut self.slots[slot].misses),
                alarm,
            },
        );
    }

    /// The report so far, counting only retired pipelines' batches.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            transitions: self.ladder.transitions().to_vec(),
            nonfinite_frames: self.retired.nonfinite_frames,
            batches: self.retired.batches,
            max_batch: self.retired.max_batch,
            ..self.books.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::WorkerFault;
    use crate::ladder::{LadderConfig, Transition, TransitionReason};
    use drive_sim::faults::FaultSchedule;
    use drive_sim::vehicle::Actuation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DEADLINE_US: u64 = 10_000;

    fn scheduler(plan: FaultPlan) -> Scheduler {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ladder: LadderConfig {
                recover_after_us: 1_000,
                ..LadderConfig::default()
            },
            ..ServeConfig::default()
        };
        Scheduler::new(
            Arc::new(GaussianPolicy::new(6, &[4], 2, &mut rng)),
            config,
            plan,
        )
    }

    fn requests(enqueued: &[u64]) -> Vec<Request> {
        enqueued
            .iter()
            .map(|&at| Request {
                obs: Vec::new(),
                enqueued_at_us: at,
                deadline_us: DEADLINE_US,
            })
            .collect()
    }

    fn answers(n: usize, alarm: bool) -> BatchResult {
        BatchResult {
            actions: vec![Actuation::new(0.0, 0.0); n],
            alarm,
        }
    }

    /// Dispatches one single-request batch at `at_us` and completes it at
    /// `at_us + 100`; returns whether the dispatch reset the PID.
    fn batch(
        s: &mut Scheduler,
        slot: usize,
        p: &mut Pipeline,
        at_us: u64,
        depth: usize,
        alarm: bool,
    ) -> bool {
        s.submit();
        let Dispatch::Serve { reset_fallback, .. } = s.dispatch(slot, at_us, p) else {
            panic!("no faults planned");
        };
        let live = s.expire(slot, at_us, depth, requests(&[at_us]), |_, _| true);
        s.complete(
            slot,
            at_us + 100,
            depth,
            &live,
            &answers(1, alarm),
            |_, _| true,
        );
        reset_fallback
    }

    #[test]
    fn unchanged_rung_observation_does_not_reset() {
        let mut s = scheduler(FaultPlan::none(2));
        let mut p = s.pipeline(0);
        assert!(
            !batch(&mut s, 0, &mut p, 0, 0, true),
            "nothing to reset yet"
        );
        assert_eq!(s.ladder.rung(), Rung::Fallback);
        assert!(batch(&mut s, 0, &mut p, 200, 0, true), "entered fallback");
        // The alarm above and an all-expired batch at the fallback rung
        // observe pressure without moving the ladder.
        s.submit();
        assert!(matches!(
            s.dispatch(0, 20_000, &mut p),
            Dispatch::Serve {
                reset_fallback: false,
                ..
            }
        ));
        let live = s.expire(0, 20_000, 0, requests(&[300]), |_, _| true);
        assert!(live.is_empty());
        assert_eq!(s.ladder.transitions().len(), 1, "fallback -> fallback");
        assert!(!batch(&mut s, 0, &mut p, 20_100, 0, false));
        s.books.counters.reconcile().expect("books balance");
    }

    #[test]
    fn round_trip_through_fallback_resets_at_an_unchanged_rung() {
        let mut s = scheduler(FaultPlan::none(2));
        let (mut p0, mut p1) = (s.pipeline(0), s.pipeline(1));
        batch(&mut s, 0, &mut p0, 0, 0, true);
        assert!(batch(&mut s, 0, &mut p0, 200, 0, false), "entered fallback");
        // While slot 0 idles at the fallback rung, slot 1 recovers the
        // ladder one rung and queue pressure drops it back.
        batch(&mut s, 1, &mut p1, 1_400, 0, false);
        assert_eq!(s.ladder.rung(), Rung::NoDetector);
        batch(&mut s, 1, &mut p1, 1_600, 8, false);
        assert_eq!(s.ladder.rung(), Rung::Fallback);
        assert!(
            batch(&mut s, 0, &mut p0, 1_800, 0, false),
            "fallback -> no-detector -> fallback since slot 0's last batch"
        );
    }

    /// One batch of a slot's script: dispatched at `at_us`, holding
    /// requests enqueued at `enqueued`, answered at `finish_us` (if any
    /// request is still live) with `depth` queued behind it.
    struct Step {
        at_us: u64,
        enqueued: &'static [u64],
        finish_us: u64,
        depth: usize,
        alarm: bool,
    }

    const fn step(at_us: u64, enqueued: &'static [u64], depth: usize, alarm: bool) -> Step {
        Step {
            at_us,
            enqueued,
            finish_us: at_us + 200,
            depth,
            alarm,
        }
    }

    /// Slot 0 meets queue pressure, then a stall that expires its whole
    /// batch; slot 1 alarms, then is killed. Calm batches far apart let
    /// the ladder recover.
    const SCRIPT: [[Step; 4]; 2] = [
        [
            step(1_000, &[900, 950], 7, false),
            step(2_000, &[1_900, 1_950], 0, false),
            step(40_000, &[39_000], 0, false),
            step(60_000, &[59_500], 0, false),
        ],
        [
            step(1_100, &[1_000], 0, true),
            step(3_000, &[2_900], 0, false),
            step(30_000, &[29_000, 29_500], 7, false),
            step(80_000, &[79_000], 0, false),
        ],
    ];

    #[derive(Default)]
    struct Seen {
        stalls: bool,
        kills: bool,
        resets: bool,
        recoveries: bool,
        expired_batches: bool,
    }

    /// Runs one interleaving: bit `k` of `order` says which slot makes the
    /// `k`-th call. Each slot's calls alternate dispatch (with expiry) and
    /// complete, in script order.
    fn run_order(order: u32, seen: &mut Seen) {
        let plan = FaultPlan {
            per_worker: vec![
                vec![WorkerFault::Stall {
                    at_us: 1_500,
                    dur_us: 20_000,
                }],
                vec![WorkerFault::Kill { at_us: 2_500 }],
            ],
            corruption: FaultSchedule::none(),
        };
        let mut s = scheduler(plan);
        let mut pipes = [s.pipeline(0), s.pipeline(1)];
        let mut next_call = [0usize; 2];
        let mut in_flight: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
        let mut needs_reset = [false; 2];
        let mut checked = 0;
        let mut rung = Rung::Full;
        for k in 0..16 {
            let slot = (order >> k & 1) as usize;
            let step = &SCRIPT[slot][next_call[slot] / 2];
            if next_call[slot] % 2 == 0 {
                let verdict = loop {
                    match s.dispatch(slot, step.at_us, &mut pipes[slot]) {
                        Dispatch::Killed { .. } => {
                            seen.kills = true;
                            s.retire(&pipes[slot]);
                            pipes[slot] = s.respawn(slot);
                        }
                        serve => break serve,
                    }
                };
                let Dispatch::Serve {
                    start_us,
                    rung: at,
                    reset_fallback,
                } = verdict
                else {
                    unreachable!("the loop breaks only on Serve")
                };
                assert_eq!(at, s.ladder.rung(), "order {order:#x} call {k}");
                assert_eq!(
                    reset_fallback, needs_reset[slot],
                    "order {order:#x} call {k}"
                );
                needs_reset[slot] = false;
                seen.stalls |= start_us > step.at_us;
                seen.resets |= reset_fallback;
                let batch = requests(step.enqueued);
                for _ in &batch {
                    s.submit();
                }
                in_flight[slot] = s.expire(slot, start_us, step.depth, batch, |_, _| true);
                seen.expired_batches |= in_flight[slot].is_empty();
            } else if !in_flight[slot].is_empty() {
                let live = std::mem::take(&mut in_flight[slot]);
                let result = answers(live.len(), step.alarm);
                s.complete(slot, step.finish_us, step.depth, &live, &result, |_, _| {
                    true
                });
            }
            next_call[slot] += 1;
            for t in &s.ladder.transitions()[checked..] {
                let Transition {
                    from, to, reason, ..
                } = *t;
                assert_eq!(from, rung, "order {order:#x}: log must chain at {t}");
                rung = to;
                seen.recoveries |= reason == TransitionReason::Recovered;
                if to == Rung::Fallback {
                    needs_reset = [true; 2];
                }
            }
            checked = s.ladder.transitions().len();
        }
        s.books
            .counters
            .reconcile()
            .expect("every request resolved once");
        let total: usize = SCRIPT.iter().flatten().map(|st| st.enqueued.len()).sum();
        assert_eq!(s.books.counters.submitted, total as u64);
    }

    #[test]
    fn every_interleaving_of_two_slots_keeps_the_invariants() {
        let mut seen = Seen::default();
        let mut orders = 0;
        for order in 0..1u32 << 16 {
            if order.count_ones() == 8 {
                run_order(order, &mut seen);
                orders += 1;
            }
        }
        assert_eq!(orders, 12_870);
        assert!(
            seen.stalls && seen.kills && seen.resets && seen.recoveries && seen.expired_batches
        );
    }
}
