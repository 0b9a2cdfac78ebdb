//! The actor abstraction SAC trains against.
//!
//! SAC only needs four capabilities from a policy: reparameterized batch
//! sampling, backprop of action/log-prob gradients, parameter visiting for
//! the optimizer, and single-observation action computation. Both the plain
//! [`GaussianPolicy`] and the progressive-network [`PnnPolicy`] (used by the
//! paper's PNN defense) satisfy this, so one generic [`crate::sac::Sac`]
//! learner covers victim training, attacker training, adversarial
//! fine-tuning, and PNN column training.

use drive_nn::checkpoint::{self, CheckpointError, Reader};
use drive_nn::gaussian::{GaussianPolicy, HeadSample, SampleCache};
use drive_nn::mat::Mat;
use drive_nn::pnn::{PnnPolicy, PnnSampleCache};
use drive_nn::scratch::{ActScratch, SampleBackScratch};
use rand::rngs::StdRng;
use std::fmt;

/// A trainable stochastic policy.
pub trait Actor {
    /// The reusable cache one sampled batch fills: its head sample
    /// (actions, log-probabilities) plus whatever the actor's backward
    /// pass needs. `Default` so a learner can start with an empty one.
    type Sample: AsRef<HeadSample> + Default + Clone + std::fmt::Debug;

    /// Observation dimensionality.
    fn obs_dim(&self) -> usize;
    /// Action dimensionality.
    fn action_dim(&self) -> usize;
    /// Reparameterized batch sample into a reusable cache, overwritten in
    /// place: allocation-free once the cache has warmed up.
    fn sample_into(&self, obs: &Mat, rng: &mut StdRng, sample: &mut Self::Sample);
    /// Backpropagates `dL/da` and `dL/dlogp` through `sample` into the
    /// trainable parameters, through a reusable workspace.
    fn backward_sample_with(
        &mut self,
        sample: &Self::Sample,
        grad_action: &Mat,
        grad_logp: &[f32],
        scratch: &mut SampleBackScratch,
    );
    /// Clears accumulated gradients.
    fn zero_grad(&mut self);
    /// Visits `(params, grads)` slices of the trainable parameters.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));
    /// Single-observation action (deterministic or sampled) through a
    /// reusable workspace; allocation-free once the scratch has warmed up.
    fn act_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32];
    /// Writes the weights as a checkpoint section (training snapshots).
    fn encode_into(&self, out: &mut dyn fmt::Write) -> fmt::Result;
    /// Parses one section written by [`Actor::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] on structural mismatch.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError>
    where
        Self: Sized;
}

impl Actor for GaussianPolicy {
    type Sample = SampleCache;

    fn obs_dim(&self) -> usize {
        GaussianPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        GaussianPolicy::action_dim(self)
    }
    fn sample_into(&self, obs: &Mat, rng: &mut StdRng, sample: &mut Self::Sample) {
        GaussianPolicy::sample_into(self, obs, rng, sample);
    }
    fn backward_sample_with(
        &mut self,
        cache: &Self::Sample,
        grad_action: &Mat,
        grad_logp: &[f32],
        scratch: &mut SampleBackScratch,
    ) {
        GaussianPolicy::backward_sample_with(self, cache, grad_action, grad_logp, scratch);
    }
    fn zero_grad(&mut self) {
        self.trunk_mut().zero_grad();
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.trunk_mut().visit_params(f);
    }
    fn act_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        GaussianPolicy::act_with(self, obs, rng, deterministic, scratch)
    }
    fn encode_into(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        checkpoint::encode_policy_into(out, self)
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        checkpoint::decode_policy_from(r)
    }
}

impl Actor for PnnPolicy {
    type Sample = PnnSampleCache;

    fn obs_dim(&self) -> usize {
        PnnPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        PnnPolicy::action_dim(self)
    }
    fn sample_into(&self, obs: &Mat, rng: &mut StdRng, sample: &mut Self::Sample) {
        PnnPolicy::sample_into(self, obs, rng, sample);
    }
    fn backward_sample_with(
        &mut self,
        cache: &Self::Sample,
        grad_action: &Mat,
        grad_logp: &[f32],
        scratch: &mut SampleBackScratch,
    ) {
        PnnPolicy::backward_sample_with(self, cache, grad_action, grad_logp, scratch);
    }
    fn zero_grad(&mut self) {
        PnnPolicy::zero_grad(self);
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        PnnPolicy::visit_params(self, f);
    }
    fn act_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        PnnPolicy::act_with(self, obs, rng, deterministic, scratch)
    }
    fn encode_into(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        checkpoint::encode_pnn_into(out, self)
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        checkpoint::decode_pnn_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// One sample and one backward pass through the trait, then a
    /// single-observation act.
    fn exercise<A: Actor>(actor: &mut A, rng: &mut StdRng) {
        let (obs_dim, action_dim) = (actor.obs_dim(), actor.action_dim());
        let obs = Mat::from_vec(2, obs_dim, vec![0.1; 2 * obs_dim]);
        let mut s = A::Sample::default();
        actor.sample_into(&obs, rng, &mut s);
        let head = s.as_ref();
        assert_eq!((head.actions.rows(), head.actions.cols()), (2, action_dim));
        assert_eq!(head.log_prob.len(), 2);
        let ga = Mat::zeros(2, action_dim);
        actor.zero_grad();
        let mut scratch = SampleBackScratch::default();
        actor.backward_sample_with(&s, &ga, &[0.0; 2], &mut scratch);
        let mut n = 0;
        actor.visit_params(&mut |p, _| n += p.len());
        assert!(n > 0);
        let mut act = ActScratch::default();
        let a = actor.act_with(&vec![0.0; obs_dim], rng, true, &mut act);
        assert_eq!(a.len(), action_dim);
    }

    #[test]
    fn gaussian_policy_satisfies_actor() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = GaussianPolicy::new(3, &[8], 2, &mut rng);
        exercise(&mut p, &mut rng);
    }

    #[test]
    fn pnn_policy_satisfies_actor() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let mut p = PnnPolicy::new(base, &mut rng);
        exercise(&mut p, &mut rng);
    }
}
