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

use crate::gaussian::{
    act_head, head_backward, randn_mat, sample_head, GaussianPolicy, HeadSample,
};
use crate::linear::Linear;
use crate::mat::Mat;
use crate::scratch::ActScratch;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    /// Column 1's hidden activations (the laterals' inputs).
    base: Vec<Mat>,
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
    /// Wraps a frozen base policy with a new trainable column: a copy of
    /// the base column's weights, with zero laterals, so the PNN starts as
    /// an exact functional copy of the base policy. The laterals are
    /// drawn from `rng` before they are zeroed, which keeps the caller's
    /// random stream where training expects it.
    pub fn new<R: Rng>(base: GaussianPolicy, rng: &mut R) -> Self {
        let action_dim = base.action_dim();
        let layers = base.trunk().layers();
        let column = layers.to_vec();
        let mut laterals: Vec<Linear> = layers
            .windows(2)
            .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        for lat in &mut laterals {
            lat.edit_w(|w| w.map_inplace(|_| 0.0));
            lat.b.iter_mut().for_each(|b| *b = 0.0);
        }
        PnnPolicy {
            base,
            column,
            laterals,
            action_dim,
        }
    }

    /// Assembles a PNN from a frozen base and the trainable parts `new`
    /// would have built for it, as a checkpoint decodes them: one column
    /// layer per base trunk layer, shaped like it, and one lateral per
    /// adjacent pair of trunk layers, mapping the first one's output to
    /// the second one's.
    ///
    /// # Errors
    ///
    /// Returns a description of the first count or shape mismatch.
    pub fn from_parts(
        base: GaussianPolicy,
        column: Vec<Linear>,
        laterals: Vec<Linear>,
    ) -> Result<Self, String> {
        let layers = base.trunk().layers();
        if column.len() != layers.len() {
            return Err(format!(
                "column depth {} != expected {}",
                column.len(),
                layers.len()
            ));
        }
        if laterals.len() != layers.len() - 1 {
            return Err(format!(
                "lateral count {} != expected {}",
                laterals.len(),
                layers.len() - 1
            ));
        }
        for (i, (c, l)) in column.iter().zip(layers).enumerate() {
            if (c.in_dim(), c.out_dim()) != (l.in_dim(), l.out_dim()) {
                return Err(format!("column layer {i} shape mismatch"));
            }
        }
        for (i, (lat, pair)) in laterals.iter().zip(layers.windows(2)).enumerate() {
            if (lat.in_dim(), lat.out_dim()) != (pair[0].out_dim(), pair[1].out_dim()) {
                return Err(format!("lateral {i} shape mismatch"));
            }
        }
        let action_dim = base.action_dim();
        Ok(PnnPolicy {
            base,
            column,
            laterals,
            action_dim,
        })
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
        let (mut base, mut post2) = (Vec::new(), Vec::new());
        self.forward_into(&input, &mut base, &mut post2, &mut Mat::default());
        PnnCache { input, base, post2 }
    }

    /// The one forward pass of both columns, from the sanitized input `x`:
    /// column 1's hidden activations into `base` (its output layer only
    /// serves column 1's own action and is skipped), then column 2's
    /// post-activations into `post`, each layer
    /// `f(column(h2) + lateral(h1))` with `lateral` holding one lateral
    /// product at a time. Allocation-free once the buffers have warmed up.
    fn forward_into(&self, x: &Mat, base: &mut Vec<Mat>, post: &mut Vec<Mat>, lateral: &mut Mat) {
        let trunk = self.base.trunk();
        let n = self.column.len();
        base.resize_with(n - 1, Mat::default);
        for i in 0..n - 1 {
            let (done, rest) = base.split_at_mut(i);
            let src = if i == 0 { x } else { &done[i - 1] };
            trunk.layers()[i].forward_into(src, &mut rest[0]);
            trunk.activation(i).apply_inplace(&mut rest[0]);
        }
        post.resize_with(n, Mat::default);
        for i in 0..n {
            let (done, rest) = post.split_at_mut(i);
            let src = if i == 0 { x } else { &done[i - 1] };
            let z = &mut rest[0];
            self.column[i].forward_into(src, z);
            if i >= 1 {
                self.laterals[i - 1].forward_into(&base[i - 1], lateral);
                z.add_assign(lateral);
            }
            trunk.activation(i).apply_inplace(z);
        }
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
                self.laterals[i - 1].accumulate_grads(&cache.base[i - 1], &g);
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

    /// Convenience: act on a single observation through column 2.
    pub fn act<R: Rng>(&self, obs: &[f32], rng: &mut R, deterministic: bool) -> Vec<f32> {
        let mut s = ActScratch::default();
        self.act_with(obs, rng, deterministic, &mut s);
        s.action
    }

    /// Allocation-free [`PnnPolicy::act`] through the scratch's reusable
    /// buffers: `tanh(mean)` of column 2 when `deterministic`, otherwise a
    /// sample. Bit-identical to [`PnnPolicy::mean_action`] and
    /// [`PnnPolicy::sample`] on the 1-row observation, with the same RNG
    /// draws.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        let ActScratch {
            obs: x,
            action,
            hidden,
            column,
            lateral,
            ..
        } = s;
        x.copy_from_row(obs);
        x.sanitize_nonfinite();
        self.forward_into(x, hidden, column, lateral);
        // `sample` draws its noise before the forward pass; the forward
        // draws nothing, so drawing in the head is the same stream.
        let raw = column.last().expect("column is non-empty");
        act_head(raw.row(0), self.action_dim, rng, deterministic, action);
        action
    }
}

/// A frozen [`PnnPolicy`] behind an `Arc`, for single-observation
/// inference — the Simplex switcher's deployment path. The first act
/// through any clone packs both columns' layers; clones share the policy
/// and its packs (O(1)).
#[derive(Debug, Clone)]
pub struct PackedPnn {
    pnn: Arc<PnnPolicy>,
}

impl From<PnnPolicy> for PackedPnn {
    fn from(pnn: PnnPolicy) -> Self {
        PackedPnn { pnn: Arc::new(pnn) }
    }
}

impl PackedPnn {
    /// The wrapped policy.
    pub fn pnn(&self) -> &PnnPolicy {
        &self.pnn
    }

    /// Action of the hardened column 2: [`PnnPolicy::act_with`].
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.pnn.act_with(obs, rng, deterministic, s)
    }

    /// Action of the frozen base column 1: the base policy's
    /// [`GaussianPolicy::act_with`].
    pub fn act_base_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.pnn.base.act_with(obs, rng, deterministic, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A PNN whose column and laterals are all fresh random draws from
    /// `rng`, column first: unlike `PnnPolicy::new`'s, its laterals are
    /// non-zero.
    fn random_pnn<R: rand::Rng>(base: GaussianPolicy, rng: &mut R) -> PnnPolicy {
        let layers = base.trunk().layers();
        let column = layers
            .iter()
            .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
            .collect();
        let laterals = layers
            .windows(2)
            .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
    }

    fn base() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(21);
        GaussianPolicy::new(5, &[12, 12], 2, &mut rng)
    }

    #[test]
    fn copy_base_init_is_functionally_identical() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(1);
        let pnn = PnnPolicy::new(b.clone(), &mut rng);
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
        let pnn = random_pnn(b.clone(), &mut rng);
        let obs = Mat::from_vec(1, 5, vec![0.1; 5]);
        assert_ne!(pnn.mean_action(&obs), b.mean_action(&obs));
    }

    #[test]
    fn training_column_leaves_base_untouched() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pnn = PnnPolicy::new(b.clone(), &mut rng);
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
        let mut pnn = random_pnn(b, &mut rng);
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
            let v = pp.column[layer_idx].w().get(0, 0);
            pp.column[layer_idx].edit_w(|w| w.set(0, 0, v + eps));
            let up = loss(&pp);
            pp.column[layer_idx].edit_w(|w| w.set(0, 0, v - eps));
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
            let v = pp.laterals[lat_idx].w().get(0, 0);
            pp.laterals[lat_idx].edit_w(|w| w.set(0, 0, v + eps));
            let up = loss(&pp);
            pp.laterals[lat_idx].edit_w(|w| w.set(0, 0, v - eps));
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
        let mut pnn = PnnPolicy::new(b, &mut rng);
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
        random_pnn(base, &mut rng)
    }

    fn obs_at(step: usize) -> Vec<f32> {
        (0..60)
            .map(|i| ((i * 5 + step * 11) as f32 * 0.21).cos() * 1.5)
            .collect()
    }

    fn bits(a: &[f32]) -> Vec<u32> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    /// The single-observation column-2 act matches the cached forward
    /// pass (`mean_action`, and `sample` with its head) bit for bit in
    /// both modes, drawing the same RNG stream; the packed wrapper's base
    /// column matches the base policy's `act_with` likewise, and a
    /// second packed handle shares the packs the first one built.
    #[test]
    fn act_with_matches_cached_forward_and_rng_stream() {
        let pnn = deployed_pnn();
        let packed = PackedPnn::from(pnn.clone());
        let mut s = ActScratch::default();
        let mut plain = ActScratch::default();
        for deterministic in [true, false] {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for step in 0..6 {
                let obs = obs_at(step);
                let m = Mat::from_row(&obs);
                let want = if deterministic {
                    pnn.mean_action(&m)
                } else {
                    pnn.sample(&m, &mut r1).head.actions
                };
                let got = packed.act_with(&obs, &mut r2, deterministic, &mut s);
                assert_eq!(
                    bits(got),
                    bits(want.row(0)),
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
        let twin = packed.clone();
        let (column, laterals) = twin.pnn().parts();
        assert!(column.iter().chain(laterals).all(Linear::is_packed));
        assert!(twin
            .pnn()
            .base()
            .trunk()
            .layers()
            .iter()
            .all(Linear::is_packed));
    }

    /// The cached forward pass leaves column 1's output layer alone: the
    /// laterals read only its hidden activations.
    #[test]
    fn forward_cached_skips_the_base_output_layer() {
        let pnn = deployed_pnn();
        let cache = pnn.forward_cached(&Mat::from_row(&obs_at(1)));
        assert_eq!(cache.base.len(), 2);
        let layers = pnn.base().trunk().layers();
        assert!(layers[..2].iter().all(Linear::is_packed));
        assert!(!layers[2].is_packed(), "column 1's output layer never ran");
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
        let pnn = random_pnn(base(), &mut rng);
        for _ in 0..10 {
            let a = pnn.act(&[0.5; 5], &mut rng, false);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }
}
