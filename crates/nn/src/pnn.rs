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
    act_head, fill_randn, head_backward_into, sample_head_into, tanh_mean_into, GaussianPolicy,
    HeadSample,
};
use crate::linear::Linear;
use crate::mat::Mat;
use crate::scratch::{ActScratch, BatchActScratch, SampleBackScratch, Scratch};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Two-column progressive policy with a tanh-Gaussian head on column 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnnPolicy {
    base: GaussianPolicy,
    column: Vec<Linear>,
    laterals: Vec<Linear>,
    action_dim: usize,
}

/// Everything needed to backpropagate through one sampled batch of a
/// [`PnnPolicy`]: the sanitized input, column 1's hidden activations (the
/// laterals' inputs), column 2's post-activations, one lateral product
/// buffer and the head sample. Reused across updates, so a warm training
/// loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PnnSampleCache {
    input: Mat,
    base: Vec<Mat>,
    column: Vec<Mat>,
    lateral: Mat,
    /// The head sample (actions, log-probs, intermediates).
    pub head: HeadSample,
}

impl AsRef<HeadSample> for PnnSampleCache {
    fn as_ref(&self) -> &HeadSample {
        &self.head
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

    /// Resizes the scratch's staging matrix to `(batch, obs_dim)` and
    /// returns it for the caller to fill row by row (contents are
    /// unspecified until every row is written), as
    /// [`GaussianPolicy::stage`] does. Follow with
    /// [`PnnPolicy::infer_staged`].
    pub fn stage<'s>(&self, batch: usize, s: &'s mut BatchActScratch) -> &'s mut Mat {
        s.obs.resize(batch, self.obs_dim());
        &mut s.obs
    }

    /// Deterministic batched inference through column 2 over the rows
    /// staged in `s` (see [`PnnPolicy::stage`]): non-finite entries are
    /// zeroed in place, both columns run one forward pass over every row,
    /// and the result is the `(batch, action_dim)` matrix of `tanh(mean)`.
    /// Row `b` is bit-identical to serial `act_with(row_b, .., true, ..)`,
    /// since the kernels accumulate each output element the same way at
    /// any row count. Allocation-free once the scratch has warmed to the
    /// largest batch seen.
    pub fn infer_staged<'s>(&self, s: &'s mut BatchActScratch) -> &'s Mat {
        debug_assert_eq!(s.obs.cols(), self.obs_dim(), "stage() before infer");
        let BatchActScratch {
            obs,
            actions,
            hidden,
            column,
            lateral,
            ..
        } = s;
        obs.sanitize_nonfinite();
        self.forward_into(obs, hidden, column, lateral);
        let raw = column.last().expect("column is non-empty");
        tanh_mean_into(raw, self.action_dim, actions);
        actions
    }

    /// Samples actions with reparameterization into a reusable cache for
    /// [`PnnPolicy::backward_sample_with`]: the `(batch, action_dim)`
    /// noise is drawn first, row-major, then non-finite observation
    /// entries are zeroed once, before either column sees them (the same
    /// guard as [`crate::mlp::Mlp::forward`]), and both columns run.
    /// Allocation-free once the cache has warmed up.
    pub fn sample_into<R: Rng>(&self, obs: &Mat, rng: &mut R, cache: &mut PnnSampleCache) {
        let PnnSampleCache {
            input,
            base,
            column,
            lateral,
            head,
        } = cache;
        fill_randn(&mut head.noise, obs.rows(), self.action_dim, rng);
        input.copy_from(obs);
        input.sanitize_nonfinite();
        self.forward_into(input, base, column, lateral);
        let raw = column.last().expect("column is non-empty");
        sample_head_into(raw, self.action_dim, head);
    }

    /// Backpropagates action / log-prob gradients into the **trainable**
    /// parameters (column 2 and laterals) through the scratch's ping-pong
    /// pair; allocation-free once the scratch has warmed up. The base
    /// column is frozen: no gradients are accumulated there, and the
    /// observations take none either.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was not filled by this network's
    /// [`PnnPolicy::sample_into`].
    pub fn backward_sample_with(
        &mut self,
        cache: &PnnSampleCache,
        grad_action: &Mat,
        grad_logp: &[f32],
        s: &mut SampleBackScratch,
    ) {
        let n = self.column.len();
        assert_eq!(cache.column.len(), n, "cache/column depth mismatch");
        let Scratch { a, b } = &mut s.trunk;
        head_backward_into(&cache.head, grad_action, grad_logp, a);
        let mut cur_is_a = true;
        for i in (0..n).rev() {
            let (g, next) = if cur_is_a {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            self.base
                .trunk()
                .activation(i)
                .backward_inplace(&cache.column[i], g);
            if i >= 1 {
                // Lateral branch: gradient into the adapter parameters only;
                // the base column is frozen, so nothing flows past it.
                self.laterals[i - 1].accumulate_grads(&cache.base[i - 1], g);
                self.column[i].accumulate_grads(&cache.column[i - 1], g);
                self.column[i].input_grad_into(g, next);
                cur_is_a = !cur_is_a;
            } else {
                self.column[0].accumulate_grads(&cache.input, g);
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
    #[cfg(test)]
    pub fn param_count(&self) -> usize {
        self.column.iter().map(Linear::param_count).sum::<usize>()
            + self.laterals.iter().map(Linear::param_count).sum::<usize>()
    }

    /// The trainable parts `(column, laterals)` — used by checkpointing.
    pub fn parts(&self) -> (&[Linear], &[Linear]) {
        (&self.column, &self.laterals)
    }

    /// Convenience: act on a single observation through column 2.
    #[cfg(test)]
    pub fn act<R: Rng>(&self, obs: &[f32], rng: &mut R, deterministic: bool) -> Vec<f32> {
        let mut s = ActScratch::default();
        self.act_with(obs, rng, deterministic, &mut s);
        s.action
    }

    /// One action for one observation, through the scratch's reusable
    /// buffers: `tanh(mean)` of column 2 when `deterministic`, otherwise a
    /// sample. Bit-identical to [`PnnPolicy::infer_staged`] and
    /// [`PnnPolicy::sample_into`] on the 1-row observation, with the same
    /// RNG draws.
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
        // `sample_into` draws its noise before the forward pass; the forward
        // draws nothing, so drawing in the head is the same stream.
        let raw = column.last().expect("column is non-empty");
        act_head(raw.row(0), self.action_dim, rng, deterministic, action);
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::SampleCache;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

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

    /// Column 2's deterministic `tanh(mean)` for every row of `obs`,
    /// through the staged batch path.
    fn staged(pnn: &PnnPolicy, obs: &Mat) -> Mat {
        let mut s = BatchActScratch::default();
        pnn.stage(obs.rows(), &mut s).copy_from(obs);
        pnn.infer_staged(&mut s).clone()
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
        assert_eq!(staged(&pnn, &obs), b.mean_action(&obs));
        // Same noise → same sample.
        let mut s1 = PnnSampleCache::default();
        pnn.sample_into(&obs, &mut StdRng::seed_from_u64(2), &mut s1);
        let mut s2 = SampleCache::default();
        b.sample_into(&obs, &mut StdRng::seed_from_u64(2), &mut s2);
        assert_eq!(s1.head.actions, s2.head.actions);
        assert_eq!(s1.head.log_prob, s2.head.log_prob);
    }

    #[test]
    fn random_init_differs_from_base() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(2);
        let pnn = random_pnn(b.clone(), &mut rng);
        let obs = Mat::from_vec(1, 5, vec![0.1; 5]);
        assert_ne!(staged(&pnn, &obs), b.mean_action(&obs));
    }

    #[test]
    fn training_column_leaves_base_untouched() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pnn = PnnPolicy::new(b.clone(), &mut rng);
        let obs = Mat::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.07).sin()).collect());
        // A few gradient steps pushing actions toward +1.
        let mut adam = crate::adam::Adam::with_lr(0.01);
        let (mut s, mut scratch) = (PnnSampleCache::default(), SampleBackScratch::default());
        for _ in 0..20 {
            pnn.sample_into(&obs, &mut rng, &mut s);
            let mut ga = Mat::zeros(4, 2);
            for b_ in 0..4 {
                for i in 0..2 {
                    ga.set(b_, i, s.head.actions.get(b_, i) - 1.0);
                }
            }
            pnn.zero_grad();
            pnn.backward_sample_with(&s, &ga, &[0.0; 4], &mut scratch);
            adam.step(|f| pnn.visit_params(f));
        }
        // Base column weights unchanged.
        let b_obs = Mat::from_row(&[0.2, 0.1, -0.3, 0.4, 0.0]);
        assert_eq!(pnn.base().mean_action(&b_obs), b.mean_action(&b_obs));
        // Column 2 has moved.
        assert_ne!(staged(&pnn, &b_obs), b.mean_action(&b_obs));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pnn = random_pnn(b, &mut rng);
        let obs = Mat::from_vec(2, 5, (0..10).map(|i| (i as f32 * 0.3).cos()).collect());
        // Loss = sum(actions) + 0.5 * sum(log_prob), with fixed noise:
        // every evaluation re-seeds the noise stream, so each draws the
        // same.
        let sample = |p: &PnnPolicy, cache: &mut PnnSampleCache| {
            p.sample_into(&obs, &mut StdRng::seed_from_u64(17), cache);
        };
        let mut cache = PnnSampleCache::default();
        sample(&pnn, &mut cache);
        let grad_action = Mat::from_vec(2, 2, vec![1.0; 4]);
        pnn.zero_grad();
        let mut scratch = SampleBackScratch::default();
        pnn.backward_sample_with(&cache, &grad_action, &[0.5; 2], &mut scratch);

        let loss = |p: &PnnPolicy| {
            let mut s = PnnSampleCache::default();
            sample(p, &mut s);
            s.head.actions.data().iter().sum::<f32>() + 0.5 * s.head.log_prob.iter().sum::<f32>()
        };
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

    /// The single-observation column-2 act matches the batch paths
    /// (`infer_staged`, and `sample_into` with its head) bit for bit in
    /// both modes, drawing the same RNG stream; the base column's act
    /// matches the base policy's `act_with` likewise, and a second `Arc`
    /// handle shares the packs the first one built.
    #[test]
    fn act_with_matches_cached_forward_and_rng_stream() {
        let pnn = deployed_pnn();
        let packed = Arc::new(pnn.clone());
        let mut s = ActScratch::default();
        let mut plain = ActScratch::default();
        let mut sampled = PnnSampleCache::default();
        for deterministic in [true, false] {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for step in 0..6 {
                let obs = obs_at(step);
                let m = Mat::from_row(&obs);
                let want = if deterministic {
                    staged(&pnn, &m)
                } else {
                    pnn.sample_into(&m, &mut r1, &mut sampled);
                    sampled.head.actions.clone()
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
                let got = packed.base().act_with(&obs, &mut r2, deterministic, &mut s);
                assert_eq!(
                    bits(got),
                    bits(want),
                    "column 1 step {step} det={deterministic}"
                );
            }
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "RNG streams diverged");
        }
        let twin = packed.clone();
        let (column, laterals) = twin.parts();
        assert!(column.iter().chain(laterals).all(Linear::is_packed));
        assert!(twin.base().trunk().layers().iter().all(Linear::is_packed));
    }

    /// Every row of staged inference equals the serial deterministic
    /// `act_with` of that row bit for bit, non-finite entries included,
    /// at batch sizes that grow and shrink through one reused scratch,
    /// and the staged rows need not be sanitized by the caller.
    #[test]
    fn infer_staged_rows_match_serial_act_with() {
        let pnn = Arc::new(deployed_pnn());
        let mut batch = BatchActScratch::default();
        let mut serial = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut step = 0;
        for rows in [1usize, 5, 64, 3, 64, 1] {
            let obs: Vec<Vec<f32>> = (0..rows)
                .map(|r| {
                    step += 1;
                    let mut o = obs_at(step);
                    if r % 2 == 1 {
                        o[(step * 7) % 60] = poison[step % poison.len()];
                    }
                    o
                })
                .collect();
            let stage = pnn.stage(rows, &mut batch);
            for (r, o) in obs.iter().enumerate() {
                stage.row_mut(r).copy_from_slice(o);
            }
            let got = pnn.infer_staged(&mut batch).clone();
            assert_eq!((got.rows(), got.cols()), (rows, 2));
            for (r, o) in obs.iter().enumerate() {
                let want = pnn.act_with(o, &mut rng, true, &mut serial);
                assert_eq!(bits(got.row(r)), bits(want), "batch {rows} row {r}");
            }
        }
    }

    /// Sampling leaves column 1's output layer alone: the laterals read
    /// only its hidden activations.
    #[test]
    fn sample_into_skips_the_base_output_layer() {
        let pnn = deployed_pnn();
        let mut cache = PnnSampleCache::default();
        let mut rng = StdRng::seed_from_u64(1);
        pnn.sample_into(&Mat::from_row(&obs_at(1)), &mut rng, &mut cache);
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
        let packed = Arc::new(pnn.clone());
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
            bits(packed.base().act_with(&poisoned, &mut rng, true, &mut s)),
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
