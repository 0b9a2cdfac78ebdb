//! Progressive neural network (PNN) policy: a frozen base column plus a
//! trainable second column with lateral connections.
//!
//! Following Rusu et al. (2016) and Section VI-B of the paper, the first
//! column is the original driving policy and stays frozen; the second column
//! receives, at each layer `i >= 1`, a lateral projection of the base
//! column's hidden activation `h1_{i-1}` in addition to its own `h2_{i-1}`:
//!
//! ```text
//! h2_i = f( W2_i h2_{i-1} + U_i h1_{i-1} + b_i )
//! ```
//!
//! With the laterals zero-initialized and the column weights copied from the
//! base, the PNN starts out *exactly* equivalent to the base policy and only
//! then adapts to adversarial experience — the property that defeats
//! catastrophic forgetting.

use crate::batch::act_prepacked;
use crate::gaussian::{
    act_head, head_backward, randn_mat, sample_head, GaussianPolicy, HeadSample,
};
use crate::linear::Linear;
use crate::mat::Mat;
use crate::mlp::{pack_layers, MlpCache};
use crate::scratch::{ActScratch, Scratch};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How to initialize the second column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PnnInit {
    /// Copy the base column's weights and zero the laterals: the PNN starts
    /// as an exact functional copy of the base policy.
    CopyBase,
    /// Fresh random column and laterals.
    Random,
}

/// Two-column progressive policy with a tanh-Gaussian head on column 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnnPolicy {
    base: GaussianPolicy,
    column: Vec<Linear>,
    laterals: Vec<Linear>,
    action_dim: usize,
}

/// Forward intermediates of a PNN pass.
#[derive(Debug, Clone)]
pub struct PnnCache {
    input: Mat,
    base: MlpCache,
    post2: Vec<Mat>,
}

impl PnnCache {
    /// Raw column-2 output `(mean | log_std)`.
    pub fn output(&self) -> &Mat {
        self.post2.last().expect("column is non-empty")
    }
}

/// Sample cache pairing the forward intermediates with the head sample.
#[derive(Debug, Clone)]
pub struct PnnSampleCache {
    forward: PnnCache,
    /// The head sample (actions, log-probs, intermediates).
    pub head: HeadSample,
}

impl PnnSampleCache {
    /// Sampled actions.
    pub fn actions(&self) -> &Mat {
        &self.head.actions
    }

    /// Per-sample log-probabilities.
    pub fn log_prob(&self) -> &[f32] {
        &self.head.log_prob
    }
}

impl PnnPolicy {
    /// Wraps a frozen base policy with a new trainable column.
    pub fn new<R: Rng>(base: GaussianPolicy, init: PnnInit, rng: &mut R) -> Self {
        let action_dim = base.action_dim();
        let layers = base.trunk().layers();
        let column: Vec<Linear> = match init {
            PnnInit::CopyBase => layers.to_vec(),
            PnnInit::Random => layers
                .iter()
                .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
                .collect(),
        };
        let mut laterals: Vec<Linear> = layers
            .windows(2)
            .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        if init == PnnInit::CopyBase {
            for lat in &mut laterals {
                lat.w.map_inplace(|_| 0.0);
                lat.b.iter_mut().for_each(|b| *b = 0.0);
            }
        }
        PnnPolicy {
            base,
            column,
            laterals,
            action_dim,
        }
    }

    /// The frozen base policy (column 1).
    pub fn base(&self) -> &GaussianPolicy {
        &self.base
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.base.obs_dim()
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Forward pass through both columns, caching intermediates.
    ///
    /// Non-finite observation entries are zeroed once, before either
    /// column sees them (the same guard as [`crate::mlp::Mlp::forward`]);
    /// the cache keeps the sanitized input for the backward pass.
    pub fn forward_cached(&self, obs: &Mat) -> PnnCache {
        let mut input = obs.clone();
        input.sanitize_nonfinite();
        let base = self.base.trunk().forward_cached(&input);
        let n = self.column.len();
        let mut post2 = Vec::with_capacity(n);
        let mut h = input.clone();
        for i in 0..n {
            let mut z = self.column[i].forward(&h);
            if i >= 1 {
                z.add_assign(&self.laterals[i - 1].forward(&base.hidden()[i - 1]));
            }
            let act = self.base.trunk().activation(i);
            h = act.forward(&z);
            post2.push(h.clone());
        }
        PnnCache { input, base, post2 }
    }

    /// Raw column-2 output without caching.
    pub fn forward(&self, obs: &Mat) -> Mat {
        let mut cache = self.forward_cached(obs);
        cache.post2.pop().expect("column is non-empty")
    }

    /// Deterministic action `tanh(mean)`.
    pub fn mean_action(&self, obs: &Mat) -> Mat {
        let raw = self.forward_cached(obs);
        let (mut mean, _) = raw.output().split_cols(self.action_dim);
        mean.map_inplace(f32::tanh);
        mean
    }

    /// Samples actions with reparameterization.
    pub fn sample<R: Rng>(&self, obs: &Mat, rng: &mut R) -> PnnSampleCache {
        let noise = randn_mat(obs.rows(), self.action_dim, rng);
        self.sample_with_noise(obs, noise)
    }

    /// Samples with caller-provided noise.
    pub fn sample_with_noise(&self, obs: &Mat, noise: Mat) -> PnnSampleCache {
        let forward = self.forward_cached(obs);
        let head = sample_head(forward.output(), self.action_dim, noise);
        PnnSampleCache { forward, head }
    }

    /// Backpropagates action / log-prob gradients into the **trainable**
    /// parameters (column 2 and laterals). The base column is frozen: no
    /// gradients are accumulated there.
    pub fn backward_sample(
        &mut self,
        cache: &PnnSampleCache,
        grad_action: &Mat,
        grad_logp: &[f32],
    ) {
        let grad_raw = head_backward(&cache.head, grad_action, grad_logp);
        self.backward_raw(&cache.forward, &grad_raw);
    }

    /// Backpropagates a gradient on the raw column-2 output.
    pub fn backward_raw(&mut self, cache: &PnnCache, grad_out: &Mat) {
        let n = self.column.len();
        assert_eq!(cache.post2.len(), n, "cache/column depth mismatch");
        let mut g = grad_out.clone();
        for i in (0..n).rev() {
            let act = self.base.trunk().activation(i);
            g = act.backward(&cache.post2[i], &g);
            if i >= 1 {
                // Lateral branch: gradient into the adapter parameters only;
                // the base column is frozen, so nothing flows past it.
                self.laterals[i - 1].accumulate_grads(&cache.base.hidden()[i - 1], &g);
                g = self.column[i].backward(&cache.post2[i - 1], &g);
            } else {
                // The observations take no gradient.
                self.column[0].accumulate_grads(&cache.input, &g);
            }
        }
    }

    /// Clears gradients of all trainable parameters.
    pub fn zero_grad(&mut self) {
        for l in &mut self.column {
            l.zero_grad();
        }
        for l in &mut self.laterals {
            l.zero_grad();
        }
    }

    /// Visits trainable `(params, grads)` slices (column 2, then laterals).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.column {
            l.visit_params(f);
        }
        for l in &mut self.laterals {
            l.visit_params(f);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.column.iter().map(Linear::param_count).sum::<usize>()
            + self.laterals.iter().map(Linear::param_count).sum::<usize>()
    }

    /// The trainable parts `(column, laterals)` — used by checkpointing.
    pub fn parts(&self) -> (&[Linear], &[Linear]) {
        (&self.column, &self.laterals)
    }

    /// Replaces the trainable parts wholesale (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape mismatch.
    pub fn set_parts(&mut self, column: Vec<Linear>, laterals: Vec<Linear>) -> Result<(), String> {
        if column.len() != self.column.len() {
            return Err(format!(
                "column depth {} != expected {}",
                column.len(),
                self.column.len()
            ));
        }
        if laterals.len() != self.laterals.len() {
            return Err(format!(
                "lateral count {} != expected {}",
                laterals.len(),
                self.laterals.len()
            ));
        }
        for (i, (new, old)) in column.iter().zip(&self.column).enumerate() {
            if new.in_dim() != old.in_dim() || new.out_dim() != old.out_dim() {
                return Err(format!("column layer {i} shape mismatch"));
            }
        }
        for (i, (new, old)) in laterals.iter().zip(&self.laterals).enumerate() {
            if new.in_dim() != old.in_dim() || new.out_dim() != old.out_dim() {
                return Err(format!("lateral {i} shape mismatch"));
            }
        }
        self.column = column;
        self.laterals = laterals;
        Ok(())
    }

    /// Convenience: act on a single observation through column 2.
    pub fn act<R: Rng>(&self, obs: &[f32], rng: &mut R, deterministic: bool) -> Vec<f32> {
        let m = Mat::from_row(obs);
        if deterministic {
            self.mean_action(&m).row(0).to_vec()
        } else {
            self.sample(&m, rng).head.actions.row(0).to_vec()
        }
    }
}

/// A frozen [`PnnPolicy`] with both columns' transposed weights
/// pre-packed, for allocation-free single-observation inference — the
/// Simplex switcher's deployment path. Clones share the policy and the
/// packs (O(1)).
#[derive(Debug, Clone)]
pub struct PackedPnn {
    pnn: Arc<PnnPolicy>,
    base: Arc<[Mat]>,
    column: Arc<[Mat]>,
    laterals: Arc<[Mat]>,
}

impl From<PnnPolicy> for PackedPnn {
    /// Packs both columns and the laterals once.
    fn from(pnn: PnnPolicy) -> Self {
        PackedPnn {
            base: pnn.base.trunk().pack_weights().into(),
            column: pack_layers(&pnn.column).into(),
            laterals: pack_layers(&pnn.laterals).into(),
            pnn: Arc::new(pnn),
        }
    }
}

impl PackedPnn {
    /// The wrapped policy.
    pub fn pnn(&self) -> &PnnPolicy {
        &self.pnn
    }

    /// Action of the hardened column 2. Bit-identical to
    /// [`PnnPolicy::act`] in both modes, with the same RNG draws;
    /// allocation-free once the scratch has warmed up.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        let ActScratch {
            obs: x,
            trunk: Scratch { a, b },
            action,
            hidden,
            lateral,
        } = s;
        x.copy_from_row(obs);
        x.sanitize_nonfinite();
        let pnn = &*self.pnn;
        let base = pnn.base.trunk();
        let n = pnn.column.len();
        // Column 1's hidden activations feed the laterals; its output
        // layer only serves column 1's own action and is skipped here.
        hidden.resize_with(n - 1, Mat::default);
        for i in 0..n - 1 {
            let (done, rest) = hidden.split_at_mut(i);
            let src = if i == 0 { &*x } else { &done[i - 1] };
            base.layers()[i].forward_prepacked_into(src, &self.base[i], &mut rest[0]);
            base.activation(i).apply_inplace(&mut rest[0]);
        }
        // Column 2: `z = column(h) + lateral(base_h)`, in the add order of
        // `forward_cached`.
        let (mut h, mut z) = (a, b);
        for i in 0..n {
            let src = if i == 0 { &*x } else { &*h };
            pnn.column[i].forward_prepacked_into(src, &self.column[i], z);
            if i >= 1 {
                pnn.laterals[i - 1].forward_prepacked_into(
                    &hidden[i - 1],
                    &self.laterals[i - 1],
                    lateral,
                );
                z.add_assign(lateral);
            }
            base.activation(i).apply_inplace(z);
            std::mem::swap(&mut h, &mut z);
        }
        // `PnnPolicy::sample` draws its noise before the forward pass;
        // the forward draws nothing, so drawing in the head is the same
        // stream.
        act_head(h.row(0), pnn.action_dim, rng, deterministic, action);
        action
    }

    /// Action of the frozen base column 1. Bit-identical to
    /// `self.pnn().base().act_with(..)`, with the same RNG draws.
    pub fn act_base_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        act_prepacked(
            self.pnn.base.trunk(),
            &self.base,
            self.pnn.action_dim,
            obs,
            rng,
            deterministic,
            s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(21);
        GaussianPolicy::new(5, &[12, 12], 2, &mut rng)
    }

    #[test]
    fn copy_base_init_is_functionally_identical() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(1);
        let pnn = PnnPolicy::new(b.clone(), PnnInit::CopyBase, &mut rng);
        let obs = Mat::from_vec(3, 5, (0..15).map(|i| (i as f32) * 0.1 - 0.7).collect());
        assert_eq!(pnn.mean_action(&obs), b.mean_action(&obs));
        // Same noise → same sample.
        let noise = randn_mat(3, 2, &mut rng);
        let s1 = pnn.sample_with_noise(&obs, noise.clone());
        let s2 = b.sample_with_noise(&obs, noise);
        assert_eq!(s1.actions(), s2.actions());
        assert_eq!(s1.log_prob(), s2.log_prob());
    }

    #[test]
    fn random_init_differs_from_base() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(2);
        let pnn = PnnPolicy::new(b.clone(), PnnInit::Random, &mut rng);
        let obs = Mat::from_vec(1, 5, vec![0.1; 5]);
        assert_ne!(pnn.mean_action(&obs), b.mean_action(&obs));
    }

    #[test]
    fn training_column_leaves_base_untouched() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pnn = PnnPolicy::new(b.clone(), PnnInit::CopyBase, &mut rng);
        let obs = Mat::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.07).sin()).collect());
        // A few gradient steps pushing actions toward +1.
        let mut adam = crate::adam::Adam::with_lr(0.01);
        for _ in 0..20 {
            let noise = randn_mat(4, 2, &mut rng);
            let s = pnn.sample_with_noise(&obs, noise);
            let mut ga = Mat::zeros(4, 2);
            for b_ in 0..4 {
                for i in 0..2 {
                    ga.set(b_, i, s.actions().get(b_, i) - 1.0);
                }
            }
            pnn.zero_grad();
            pnn.backward_sample(&s, &ga, &[0.0; 4]);
            adam.step(|f| pnn.visit_params(f));
        }
        // Base column weights unchanged.
        let b_obs = Mat::from_row(&[0.2, 0.1, -0.3, 0.4, 0.0]);
        assert_eq!(pnn.base().mean_action(&b_obs), b.mean_action(&b_obs));
        // Column 2 has moved.
        assert_ne!(pnn.mean_action(&b_obs), b.mean_action(&b_obs));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pnn = PnnPolicy::new(b, PnnInit::Random, &mut rng);
        let obs = Mat::from_vec(2, 5, (0..10).map(|i| (i as f32 * 0.3).cos()).collect());
        // Loss = sum of raw outputs.
        let cache = pnn.forward_cached(&obs);
        let grad_out = Mat::from_vec(2, 4, vec![1.0; 8]);
        pnn.zero_grad();
        pnn.backward_raw(&cache, &grad_out);

        let loss = |p: &PnnPolicy| p.forward_cached(&obs).output().data().iter().sum::<f32>();
        let eps = 1e-2f32;
        // Column weight check.
        for layer_idx in [0usize, 2] {
            let mut pp = pnn.clone();
            let v = pp.column[layer_idx].w.get(0, 0);
            pp.column[layer_idx].w.set(0, 0, v + eps);
            let up = loss(&pp);
            pp.column[layer_idx].w.set(0, 0, v - eps);
            let down = loss(&pp);
            let fd = (up - down) / (2.0 * eps);
            let got = pnn.column[layer_idx].grad_w.get(0, 0);
            assert!(
                (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                "column[{layer_idx}] fd {fd} vs {got}"
            );
        }
        // Lateral weight check.
        for lat_idx in [0usize, 1] {
            let mut pp = pnn.clone();
            let v = pp.laterals[lat_idx].w.get(0, 0);
            pp.laterals[lat_idx].w.set(0, 0, v + eps);
            let up = loss(&pp);
            pp.laterals[lat_idx].w.set(0, 0, v - eps);
            let down = loss(&pp);
            let fd = (up - down) / (2.0 * eps);
            let got = pnn.laterals[lat_idx].grad_w.get(0, 0);
            assert!(
                (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                "lateral[{lat_idx}] fd {fd} vs {got}"
            );
        }
    }

    #[test]
    fn visit_params_excludes_base() {
        let b = base();
        let base_params = b.trunk().param_count();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pnn = PnnPolicy::new(b, PnnInit::CopyBase, &mut rng);
        let mut count = 0;
        pnn.visit_params(&mut |p, _| count += p.len());
        assert_eq!(count, pnn.param_count());
        // Trainable = column (same size as base) + laterals (12*12 + 12 + 12*4 + 4).
        let lateral_params = 12 * 12 + 12 + 12 * 4 + 4;
        assert_eq!(count, base_params + lateral_params);
    }

    /// A trained-looking PNN at the deployed widths: random column and
    /// laterals so both columns and every lateral carry signal.
    fn deployed_pnn() -> PnnPolicy {
        let mut rng = StdRng::seed_from_u64(12);
        let base = GaussianPolicy::new(60, &[128, 128], 2, &mut rng);
        PnnPolicy::new(base, PnnInit::Random, &mut rng)
    }

    fn obs_at(step: usize) -> Vec<f32> {
        (0..60)
            .map(|i| ((i * 5 + step * 11) as f32 * 0.21).cos() * 1.5)
            .collect()
    }

    fn bits(a: &[f32]) -> Vec<u32> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    /// The packed hardened-column act matches `PnnPolicy::act` bit for
    /// bit in both modes, drawing the same RNG stream; the packed base
    /// column matches the base policy's `act_with` likewise.
    #[test]
    fn packed_act_matches_act_and_rng_stream() {
        let pnn = deployed_pnn();
        let packed = PackedPnn::from(pnn.clone());
        let mut s = ActScratch::default();
        let mut plain = ActScratch::default();
        for deterministic in [true, false] {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for step in 0..6 {
                let obs = obs_at(step);
                let want = pnn.act(&obs, &mut r1, deterministic);
                let got = packed.act_with(&obs, &mut r2, deterministic, &mut s);
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "column 2 step {step} det={deterministic}"
                );
                let want = pnn
                    .base()
                    .act_with(&obs, &mut r1, deterministic, &mut plain);
                let got = packed.act_base_with(&obs, &mut r2, deterministic, &mut s);
                assert_eq!(
                    bits(got),
                    bits(want),
                    "column 1 step {step} det={deterministic}"
                );
            }
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "RNG streams diverged");
        }
    }

    /// One NaN feature must not collapse the hardened column: the action
    /// equals that of the same observation with the entry zeroed, on the
    /// allocating and the packed path alike.
    #[test]
    fn nan_observation_acts_like_zeroed_entry_in_both_columns() {
        let pnn = deployed_pnn();
        let packed = PackedPnn::from(pnn.clone());
        let mut s = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut poisoned = obs_at(3);
        poisoned[17] = f32::NAN;
        let mut zeroed = poisoned.clone();
        zeroed[17] = 0.0;
        let want = pnn.act(&zeroed, &mut rng, true);
        assert_ne!(bits(&want), bits(&pnn.act(&obs_at(3), &mut rng, true)));
        assert_eq!(bits(&pnn.act(&poisoned, &mut rng, true)), bits(&want));
        assert_eq!(
            bits(packed.act_with(&poisoned, &mut rng, true, &mut s)),
            bits(&want)
        );
        let base_want = pnn.base().act(&zeroed, &mut rng, true);
        assert_eq!(
            bits(packed.act_base_with(&poisoned, &mut rng, true, &mut s)),
            bits(&base_want)
        );
    }

    #[test]
    fn act_is_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        let pnn = PnnPolicy::new(base(), PnnInit::Random, &mut rng);
        for _ in 0..10 {
            let a = pnn.act(&[0.5; 5], &mut rng, false);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }
}
