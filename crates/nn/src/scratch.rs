//! Reusable workspaces for allocation-free network evaluation.
//!
//! The hot paths in this repo call tiny networks once per simulated
//! control step (batch size 1), so per-call `Mat` allocations dominate
//! the cost of the arithmetic. A [`Scratch`] is a ping-pong buffer pair
//! that a chained layer evaluation bounces between; an [`ActScratch`]
//! bundles everything a single-observation `act` call needs. Both start
//! empty and warm up to the right shapes on first use, after which
//! repeated calls are allocation-free.
//!
//! Scratch buffers hold no learned state — they are pure workspaces, so
//! cloning an agent clones only buffer capacity, never behaviour.

use crate::mat::Mat;

/// Ping-pong buffer pair for chained layer evaluation (see
/// [`crate::mlp::Mlp::forward_with`]).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pub(crate) a: Mat,
    pub(crate) b: Mat,
}

impl Scratch {
    /// The `a` half if `a`, else the `b` half.
    pub(crate) fn half(&self, a: bool) -> &Mat {
        if a {
            &self.a
        } else {
            &self.b
        }
    }
}

/// Workspace for a single-observation policy `act` call: the 1-row
/// observation matrix, the trunk's ping-pong buffers, and the action
/// output vector. A progressive (two-column) policy also keeps its base
/// column's hidden activations and one lateral product here.
#[derive(Debug, Clone, Default)]
pub struct ActScratch {
    pub(crate) obs: Mat,
    pub(crate) trunk: Scratch,
    pub(crate) action: Vec<f32>,
    pub(crate) hidden: Vec<Mat>,
    pub(crate) lateral: Mat,
}

/// Workspace for a micro-batched deterministic `act` call: the
/// `(batch, obs_dim)` stacked observation matrix, the trunk's ping-pong
/// buffers, and the `(batch, action_dim)` action output (see
/// `GaussianPolicy::act_batch_with`). Reused across batches of varying
/// size without reallocation once warmed to the largest batch seen.
#[derive(Debug, Clone, Default)]
pub struct BatchActScratch {
    pub(crate) obs: Mat,
    pub(crate) trunk: Scratch,
    pub(crate) actions: Mat,
}

/// Workspace for a policy backward pass through a sampled head: the
/// `(batch, 2 * action_dim)` raw-head gradient and the trunk's ping-pong
/// buffers (see `GaussianPolicy::backward_sample_with`).
#[derive(Debug, Clone, Default)]
pub struct SampleBackScratch {
    pub(crate) grad_raw: Mat,
    pub(crate) trunk: Scratch,
}
