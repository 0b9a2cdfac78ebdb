#![warn(missing_docs)]

//! # drive-serve — resilient policy-inference serving
//!
//! The paper evaluates driving agents inside a lock-step simulator; a
//! deployed agent instead queries its policy through a serving stack
//! that must answer under deadlines, shed overload *visibly*, and keep
//! producing safe actions while parts of it fail. This crate is that
//! stack, built around three ideas:
//!
//! * **Micro-batching** — concurrent observation requests are held for a
//!   short deadline window and answered by one GEMM pass through the
//!   pre-packed `BatchPolicy::act_batch`, which is bit-identical to
//!   serial inference, so batching is purely a throughput lever.
//! * **Typed outcomes** — every request resolves exactly once as served,
//!   degraded, shed, or timed out ([`request::Outcome`]); counters
//!   reconcile at drain, making silent request loss a checkable bug.
//! * **A Simplex degradation ladder** — under deadline pressure or
//!   detector alarm the service descends full pipeline → no detector →
//!   PID fallback ([`ladder`]), trading capability for guaranteed
//!   latency, and climbs back with hysteresis.
//!
//! Two execution engines make every dispatch and completion decision
//! (faults, expiry, outcomes, ladder, PID resets) through one
//! [`scheduler::Scheduler`] and run batches through one
//! [`pipeline::Pipeline`] per worker: a real multi-threaded server
//! ([`server::Server`]) with bounded queues, worker respawn, and graceful
//! drain, and a virtual-time simulator ([`sim`]) whose reports are
//! byte-identical at a fixed seed — the deterministic twin used by tests
//! and CI gating. Faults (worker kills/stalls, observation corruption)
//! are seeded plans ([`faults`]) reusing `drive_sim::faults`.

pub mod config;
pub mod faults;
pub mod ladder;
pub mod pipeline;
pub mod queue;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod sim;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::config::ServeConfig;
    pub use crate::faults::{FaultPlan, FaultPlanConfig};
    pub use crate::ladder::{Ladder, LadderConfig, Rung, Transition};
    pub use crate::pipeline::Pipeline;
    pub use crate::report::ServeReport;
    pub use crate::request::{Counters, Outcome, OutcomeKind, Request, ShedReason};
    pub use crate::server::{Server, ServerHandle};
    pub use crate::sim::{run_sim, SimConfig};
}
