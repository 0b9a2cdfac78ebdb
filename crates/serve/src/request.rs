//! Requests, typed outcomes, and reconciling counters.
//!
//! The serving layer's core accounting invariant: **every submitted
//! request gets exactly one typed outcome** — served, degraded, shed, or
//! timed out. Nothing is dropped silently: load shedding is a first-class
//! outcome with a reason, not a missing response, and [`Counters`] can
//! prove at drain time that the books balance.

use crate::ladder::Rung;
use drive_sim::vehicle::Actuation;

/// One inference request: an observation frame plus its timing envelope.
/// Times are microseconds on the owning clock — virtual in the
/// deterministic simulator, `Instant`-relative in the threaded server.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The stacked observation frame.
    pub obs: Vec<f32>,
    /// When the request entered the queue, µs.
    pub enqueued_at_us: u64,
    /// Relative deadline, µs: the response must be produced within this
    /// long of `enqueued_at_us` or the request times out.
    pub deadline_us: u64,
}

impl Request {
    /// Absolute expiry time, saturating.
    pub fn expires_at_us(&self) -> u64 {
        self.enqueued_at_us.saturating_add(self.deadline_us)
    }
}

/// Why a request was shed instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was at capacity — backpressure.
    QueueFull,
    /// The server was draining and no longer admits work.
    Closing,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::Closing => write!(f, "closing"),
        }
    }
}

/// The one typed resolution every request receives.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered by the full pipeline at the [`Rung::Full`] rung.
    Served {
        /// The computed actuation.
        action: Actuation,
        /// Enqueue-to-response latency, µs.
        latency_us: u64,
    },
    /// Answered, but by a degraded rung of the ladder.
    Degraded {
        /// Which rung produced the answer.
        rung: Rung,
        /// The computed actuation.
        action: Actuation,
        /// Enqueue-to-response latency, µs.
        latency_us: u64,
    },
    /// Rejected before queueing.
    Shed {
        /// Why admission failed.
        reason: ShedReason,
    },
    /// Expired before a worker could answer.
    TimedOut {
        /// How long the request waited before expiring, µs.
        waited_us: u64,
    },
}

impl Outcome {
    /// The outcome's kind, for counting.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            Outcome::Served { .. } => OutcomeKind::Served,
            Outcome::Degraded { .. } => OutcomeKind::Degraded,
            Outcome::Shed { .. } => OutcomeKind::Shed,
            Outcome::TimedOut { .. } => OutcomeKind::TimedOut,
        }
    }

    /// Enqueue-to-response latency for answered requests, µs.
    pub fn latency_us(&self) -> Option<u64> {
        match self {
            Outcome::Served { latency_us, .. } | Outcome::Degraded { latency_us, .. } => {
                Some(*latency_us)
            }
            _ => None,
        }
    }
}

/// The four resolution kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// Full-pipeline answer.
    Served,
    /// Degraded-rung answer.
    Degraded,
    /// Rejected at admission.
    Shed,
    /// Expired in the queue.
    TimedOut,
}

/// Request accounting. `submitted` counts every request a client
/// attempted; the four outcome counters partition them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Full-pipeline answers.
    pub served: u64,
    /// Degraded answers.
    pub degraded: u64,
    /// Shed for backpressure.
    pub shed_queue_full: u64,
    /// Shed because the server was draining.
    pub shed_closing: u64,
    /// Deadline expiries.
    pub timed_out: u64,
}

impl Counters {
    /// Records one resolution.
    pub fn record(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Served { .. } => self.served += 1,
            Outcome::Degraded { .. } => self.degraded += 1,
            Outcome::Shed {
                reason: ShedReason::QueueFull,
            } => self.shed_queue_full += 1,
            Outcome::Shed {
                reason: ShedReason::Closing,
            } => self.shed_closing += 1,
            Outcome::TimedOut { .. } => self.timed_out += 1,
        }
    }

    /// Total requests that received an outcome.
    pub fn resolved(&self) -> u64 {
        self.served + self.degraded + self.shed_queue_full + self.shed_closing + self.timed_out
    }

    /// Total sheds of either reason.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_closing
    }

    /// Checks the books: every submitted request resolved exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when the partition does not
    /// sum to `submitted` — the "silent request loss" failure this layer
    /// exists to make impossible.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.resolved() == self.submitted {
            Ok(())
        } else {
            Err(format!(
                "request accounting broken: submitted {} != resolved {} \
                 (served {} + degraded {} + shed {} + timed_out {})",
                self.submitted,
                self.resolved(),
                self.served,
                self.degraded,
                self.shed(),
                self.timed_out
            ))
        }
    }

    /// Element-wise sum (merging per-client tallies).
    pub fn merge(&mut self, other: &Counters) {
        self.submitted += other.submitted;
        self.served += other.served;
        self.degraded += other.degraded;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_closing += other.shed_closing;
        self.timed_out += other.timed_out;
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} served={} degraded={} shed_full={} shed_closing={} timed_out={}",
            self.submitted,
            self.served,
            self.degraded,
            self.shed_queue_full,
            self.shed_closing,
            self.timed_out
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_and_reconcile() {
        let mut c = Counters::default();
        let outcomes = [
            Outcome::Served {
                action: Actuation::new(0.1, 0.2),
                latency_us: 900,
            },
            Outcome::Degraded {
                rung: Rung::Fallback,
                action: Actuation::new(0.0, -0.1),
                latency_us: 100,
            },
            Outcome::Shed {
                reason: ShedReason::QueueFull,
            },
            Outcome::Shed {
                reason: ShedReason::Closing,
            },
            Outcome::TimedOut { waited_us: 5000 },
        ];
        for o in &outcomes {
            c.submitted += 1;
            c.record(o);
        }
        assert_eq!(c.resolved(), 5);
        c.reconcile().expect("balanced");
        c.submitted += 1;
        let err = c.reconcile().expect_err("imbalanced");
        assert!(err.contains("submitted 6 != resolved 5"), "{err}");
    }

    #[test]
    fn outcome_accessors() {
        let served = Outcome::Served {
            action: Actuation::new(0.5, 0.0),
            latency_us: 42,
        };
        assert_eq!(served.kind(), OutcomeKind::Served);
        assert_eq!(served.latency_us(), Some(42));
        let shed = Outcome::Shed {
            reason: ShedReason::QueueFull,
        };
        assert_eq!(shed.kind(), OutcomeKind::Shed);
        assert_eq!(shed.latency_us(), None);
    }

    #[test]
    fn merge_sums_elementwise() {
        let mut a = Counters {
            submitted: 3,
            served: 2,
            timed_out: 1,
            ..Counters::default()
        };
        let b = Counters {
            submitted: 2,
            degraded: 1,
            shed_queue_full: 1,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 5);
        a.reconcile().expect("merged books balance");
    }

    #[test]
    fn expiry_saturates() {
        let r = Request {
            obs: vec![],
            enqueued_at_us: u64::MAX - 5,
            deadline_us: 100,
        };
        assert_eq!(r.expires_at_us(), u64::MAX);
    }
}
