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
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::mat::Mat;
use drive_nn::pnn::PnnPolicy;
use drive_nn::scratch::{ActScratch, SampleBackScratch};
use rand::rngs::StdRng;

/// A sampled batch: actions in `[-1,1]` and their log-probabilities, plus
/// whatever the actor needs to run its backward pass.
pub trait ActorSample {
    /// Sampled actions, `(batch, action_dim)`.
    fn actions(&self) -> &Mat;
    /// Per-sample log-probabilities.
    fn log_prob(&self) -> &[f32];
}

impl ActorSample for drive_nn::gaussian::SampleCache {
    fn actions(&self) -> &Mat {
        self.actions()
    }
    fn log_prob(&self) -> &[f32] {
        self.log_prob()
    }
}

impl ActorSample for drive_nn::pnn::PnnSampleCache {
    fn actions(&self) -> &Mat {
        self.actions()
    }
    fn log_prob(&self) -> &[f32] {
        self.log_prob()
    }
}

/// A trainable stochastic policy.
pub trait Actor {
    /// The sample cache type produced by [`Actor::sample`]. `Clone + Debug`
    /// so persistent update scratches holding a sample slot stay derivable.
    type Sample: ActorSample + Clone + std::fmt::Debug;

    /// Observation dimensionality.
    fn obs_dim(&self) -> usize;
    /// Action dimensionality.
    fn action_dim(&self) -> usize;
    /// Reparameterized batch sample.
    fn sample(&self, obs: &Mat, rng: &mut StdRng) -> Self::Sample;
    /// Reparameterized batch sample into a reusable slot. Implementations
    /// with allocation-free caches overwrite the slot in place; the default
    /// just stores a fresh [`Actor::sample`]. Must consume the RNG in
    /// exactly the same order as `sample` and produce identical results.
    fn sample_into(&self, obs: &Mat, rng: &mut StdRng, slot: &mut Option<Self::Sample>) {
        *slot = Some(self.sample(obs, rng));
    }
    /// Backpropagates `dL/da` and `dL/dlogp` into trainable parameters.
    fn backward_sample(&mut self, cache: &Self::Sample, grad_action: &Mat, grad_logp: &[f32]);
    /// [`Actor::backward_sample`] through a reusable workspace. The default
    /// ignores the scratch and calls the allocating path; implementations
    /// with `_with` variants override. Gradients must accumulate
    /// identically either way.
    fn backward_sample_with(
        &mut self,
        cache: &Self::Sample,
        grad_action: &Mat,
        grad_logp: &[f32],
        _scratch: &mut SampleBackScratch,
    ) {
        self.backward_sample(cache, grad_action, grad_logp);
    }
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
    /// Allocating convenience over [`Actor::act_with`]: identical actions
    /// and RNG draws.
    fn act(&self, obs: &[f32], rng: &mut StdRng, deterministic: bool) -> Vec<f32> {
        self.act_with(obs, rng, deterministic, &mut ActScratch::default())
            .to_vec()
    }
    /// Appends the weights as a checkpoint section (training snapshots).
    fn encode_into(&self, buf: &mut String);
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
    type Sample = drive_nn::gaussian::SampleCache;

    fn obs_dim(&self) -> usize {
        GaussianPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        GaussianPolicy::action_dim(self)
    }
    fn sample(&self, obs: &Mat, rng: &mut StdRng) -> Self::Sample {
        GaussianPolicy::sample(self, obs, rng)
    }
    fn sample_into(&self, obs: &Mat, rng: &mut StdRng, slot: &mut Option<Self::Sample>) {
        let cache = slot.get_or_insert_with(Default::default);
        GaussianPolicy::sample_into(self, obs, rng, cache);
    }
    fn backward_sample(&mut self, cache: &Self::Sample, grad_action: &Mat, grad_logp: &[f32]) {
        GaussianPolicy::backward_sample(self, cache, grad_action, grad_logp);
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
    fn encode_into(&self, buf: &mut String) {
        checkpoint::encode_policy_into(buf, self);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        checkpoint::decode_policy_from(r)
    }
}

impl Actor for PnnPolicy {
    type Sample = drive_nn::pnn::PnnSampleCache;

    fn obs_dim(&self) -> usize {
        PnnPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        PnnPolicy::action_dim(self)
    }
    fn sample(&self, obs: &Mat, rng: &mut StdRng) -> Self::Sample {
        PnnPolicy::sample(self, obs, rng)
    }
    fn backward_sample(&mut self, cache: &Self::Sample, grad_action: &Mat, grad_logp: &[f32]) {
        PnnPolicy::backward_sample(self, cache, grad_action, grad_logp);
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
    fn encode_into(&self, buf: &mut String) {
        checkpoint::encode_pnn_into(buf, self);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        checkpoint::decode_pnn_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_nn::pnn::PnnInit;
    use rand::SeedableRng;

    #[test]
    fn gaussian_policy_satisfies_actor() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = GaussianPolicy::new(3, &[8], 2, &mut rng);
        assert_eq!(Actor::obs_dim(&p), 3);
        assert_eq!(Actor::action_dim(&p), 2);
        let obs = Mat::from_vec(2, 3, vec![0.1; 6]);
        let s = Actor::sample(&p, &obs, &mut rng);
        assert_eq!(s.actions().rows(), 2);
        assert_eq!(s.log_prob().len(), 2);
        let ga = Mat::zeros(2, 2);
        Actor::zero_grad(&mut p);
        Actor::backward_sample(&mut p, &s, &ga, &[0.0; 2]);
        let mut n = 0;
        Actor::visit_params(&mut p, &mut |p, _| n += p.len());
        assert!(n > 0);
    }

    #[test]
    fn pnn_policy_satisfies_actor() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let p = PnnPolicy::new(base, PnnInit::CopyBase, &mut rng);
        let obs = Mat::from_vec(1, 3, vec![0.2; 3]);
        let s = Actor::sample(&p, &obs, &mut rng);
        assert_eq!(s.actions().cols(), 1);
        let a = Actor::act(&p, &[0.0; 3], &mut rng, true);
        assert_eq!(a.len(), 1);
    }
}
