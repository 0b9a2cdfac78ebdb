//! Tanh-squashed Gaussian policy head — the stochastic actor of SAC.
//!
//! The trunk network maps observations to `(mean, log_std)`; actions are
//! `a = tanh(mean + sigma * n)` with `n ~ N(0, I)` (the reparameterization
//! trick), and log-probabilities include the tanh change-of-variables
//! correction. The head math is factored out ([`HeadSample`],
//! [`sample_head_into`], [`head_backward_into`]) so both the plain
//! [`GaussianPolicy`] and the progressive-network policy (see
//! [`crate::pnn`]) share one tested implementation.

use crate::activation::Activation;
use crate::mat::Mat;
use crate::mlp::{Mlp, MlpCache};
use crate::scratch::{ActScratch, BatchActScratch, SampleBackScratch};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lower clamp on `log_std` (PyTorch-SAC convention).
pub const LOG_STD_MIN: f32 = -5.0;
/// Upper clamp on `log_std`.
pub const LOG_STD_MAX: f32 = 2.0;
const LOG_2PI: f32 = 1.837_877_1;
const TANH_EPS: f32 = 1e-6;

/// Draws a standard normal `f32` via Box–Muller.
pub fn randn_f32<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    }
}

/// Resizes `m` and refills it with standard normal noise, one
/// [`randn_f32`] draw per element in row-major order.
pub fn fill_randn<R: Rng>(m: &mut Mat, rows: usize, cols: usize, rng: &mut R) {
    m.resize(rows, cols);
    for v in m.data_mut() {
        *v = randn_f32(rng);
    }
}

/// A sampled batch from a tanh-Gaussian head, with everything needed for
/// the backward pass.
#[derive(Debug, Clone, Default)]
pub struct HeadSample {
    /// Pre-squash mean, `(batch, action_dim)`.
    pub mean: Mat,
    /// Clamped log standard deviation.
    pub log_std: Mat,
    /// Whether each `log_std` element hit a clamp (zero gradient there).
    pub clamped: Vec<bool>,
    /// Reparameterization noise `n`.
    pub noise: Mat,
    /// Squashed actions `a = tanh(mean + sigma * n)`.
    pub actions: Mat,
    /// Per-sample log-probabilities.
    pub log_prob: Vec<f32>,
}

/// Splits a raw head output `(batch, 2*action_dim)` into mean and clamped
/// log-std, then computes squashed actions and log-probabilities under the
/// `(batch, action_dim)` reparameterization noise that `out.noise` must
/// already hold. Allocation-free once the buffers have warmed up.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn sample_head_into(raw: &Mat, action_dim: usize, out: &mut HeadSample) {
    assert_eq!(
        raw.cols(),
        2 * action_dim,
        "raw head output must be 2*action_dim wide"
    );
    assert_eq!(
        (out.noise.rows(), out.noise.cols()),
        (raw.rows(), action_dim)
    );
    let batch = raw.rows();
    let HeadSample {
        mean,
        log_std,
        clamped,
        noise,
        actions,
        log_prob,
    } = out;
    mean.resize(batch, action_dim);
    log_std.resize(batch, action_dim);
    actions.resize(batch, action_dim);
    clamped.clear();
    clamped.resize(batch * action_dim, false);
    log_prob.clear();
    log_prob.resize(batch, 0.0);
    for b in 0..batch {
        let raw_row = raw.row(b);
        let mean_row = mean.row_mut(b);
        mean_row.copy_from_slice(&raw_row[..action_dim]);
        let ls_row = log_std.row_mut(b);
        for (i, (ls, &v)) in ls_row.iter_mut().zip(&raw_row[action_dim..]).enumerate() {
            *ls = v;
            if v < LOG_STD_MIN {
                *ls = LOG_STD_MIN;
                clamped[b * action_dim + i] = true;
            } else if v > LOG_STD_MAX {
                *ls = LOG_STD_MAX;
                clamped[b * action_dim + i] = true;
            }
        }
        // One fused pass: squash and accumulate the log-density in
        // ascending element order.
        let lp = &mut log_prob[b];
        for (((a, &m), &ls), &n) in actions
            .row_mut(b)
            .iter_mut()
            .zip(&*mean_row)
            .zip(&*ls_row)
            .zip(noise.row(b))
        {
            let sigma = ls.exp();
            let u = m + sigma * n;
            *a = u.tanh();
            *lp += -0.5 * n * n - 0.5 * LOG_2PI - ls - (1.0 - *a * *a + TANH_EPS).ln();
        }
    }
}

/// Converts gradients on actions (`dL/da`) and log-probabilities
/// (`dL/dlogp`, per sample) into the gradient with respect to the raw head
/// output `(mean | log_std)`, written into a reusable
/// `(batch, 2 * action_dim)` buffer: the mean and log-std halves of each
/// row directly, with no temporaries.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn head_backward_into(
    sample: &HeadSample,
    grad_action: &Mat,
    grad_logp: &[f32],
    grad_raw: &mut Mat,
) {
    let batch = sample.actions.rows();
    let action_dim = sample.actions.cols();
    assert_eq!(
        (grad_action.rows(), grad_action.cols()),
        (batch, action_dim)
    );
    assert_eq!(grad_logp.len(), batch);
    grad_raw.resize(batch, 2 * action_dim);
    for (b, &gl) in grad_logp.iter().enumerate() {
        let clamped = &sample.clamped[b * action_dim..(b + 1) * action_dim];
        let (gm_row, gls_row) = grad_raw.row_mut(b).split_at_mut(action_dim);
        for (i, (gm, gls)) in gm_row.iter_mut().zip(gls_row).enumerate() {
            let a = sample.actions.row(b)[i];
            let sigma = sample.log_std.row(b)[i].exp();
            let n = sample.noise.row(b)[i];
            let one_m_a2 = 1.0 - a * a;
            let da_dmean = one_m_a2;
            let da_dls = one_m_a2 * sigma * n;
            let dlogp_dmean = 2.0 * a * one_m_a2 / (one_m_a2 + TANH_EPS);
            let dlogp_dls = -1.0 + 2.0 * a * da_dls / (one_m_a2 + TANH_EPS);
            let ga = grad_action.row(b)[i];
            *gm = ga * da_dmean + gl * dlogp_dmean;
            let mut g = ga * da_dls + gl * dlogp_dls;
            if clamped[i] {
                g = 0.0;
            }
            *gls = g;
        }
    }
}

/// A stochastic policy `pi(a | s)` with a plain MLP trunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianPolicy {
    trunk: Mlp,
    action_dim: usize,
}

/// Everything needed to backpropagate through one sampled batch of a
/// [`GaussianPolicy`].
#[derive(Debug, Clone, Default)]
pub struct SampleCache {
    trunk: MlpCache,
    /// The head sample (actions, log-probs, intermediates).
    pub head: HeadSample,
}

impl AsRef<HeadSample> for SampleCache {
    fn as_ref(&self) -> &HeadSample {
        &self.head
    }
}

impl GaussianPolicy {
    /// Builds a policy with the given trunk hidden sizes.
    ///
    /// # Panics
    ///
    /// Panics if `obs_dim` or `action_dim` is zero.
    pub fn new<R: Rng>(obs_dim: usize, hidden: &[usize], action_dim: usize, rng: &mut R) -> Self {
        assert!(obs_dim > 0 && action_dim > 0, "dims must be positive");
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(2 * action_dim);
        GaussianPolicy {
            trunk: Mlp::new(&sizes, Activation::Relu, Activation::Identity, rng),
            action_dim,
        }
    }

    /// Wraps a trunk with the architecture [`GaussianPolicy::new`]
    /// builds (ReLU hidden layers, an identity output of width
    /// `2 * action_dim`), as a checkpoint decodes it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch: an output width other
    /// than `2 * action_dim` (or a zero `action_dim`), or a layer whose
    /// activation differs from that architecture's.
    pub fn from_trunk(trunk: Mlp, action_dim: usize) -> Result<Self, String> {
        if action_dim == 0 || action_dim.checked_mul(2) != Some(trunk.out_dim()) {
            return Err(format!(
                "trunk output {} does not match 2 * action_dim {action_dim}",
                trunk.out_dim()
            ));
        }
        let last = trunk.num_layers() - 1;
        for i in 0..=last {
            let want = if i == last {
                Activation::Identity
            } else {
                Activation::Relu
            };
            if trunk.activation(i) != want {
                return Err(format!(
                    "trunk layer {i} activation {:?}, a policy needs {want:?}",
                    trunk.activation(i)
                ));
            }
        }
        Ok(GaussianPolicy { trunk, action_dim })
    }

    /// A copy for frozen use whose layers share the built packs (see
    /// `Linear::clone_frozen`).
    pub(crate) fn clone_frozen(&self) -> GaussianPolicy {
        GaussianPolicy {
            trunk: self.trunk.clone_frozen(),
            action_dim: self.action_dim,
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.trunk.in_dim()
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// The underlying trunk network.
    pub fn trunk(&self) -> &Mlp {
        &self.trunk
    }

    /// Mutable access to the trunk (for optimizers via `visit_params`).
    pub fn trunk_mut(&mut self) -> &mut Mlp {
        &mut self.trunk
    }

    /// Deterministic action `tanh(mean)` for a batch of observations.
    pub fn mean_action(&self, obs: &Mat) -> Mat {
        let raw = self.trunk.forward(obs);
        let (mut mean, _) = raw.split_cols(self.action_dim);
        mean.map_inplace(f32::tanh);
        mean
    }

    /// Samples actions with reparameterization into a reusable cache for
    /// [`GaussianPolicy::backward_sample_with`]: the `(batch, action_dim)`
    /// noise is drawn first, row-major, then the trunk runs and the head
    /// squashes. Allocation-free once the cache has warmed up.
    pub fn sample_into<R: Rng>(&self, obs: &Mat, rng: &mut R, cache: &mut SampleCache) {
        let SampleCache { trunk, head } = cache;
        fill_randn(&mut head.noise, obs.rows(), self.action_dim, rng);
        self.trunk.forward_cached_into(obs, trunk);
        sample_head_into(trunk.output(), self.action_dim, head);
    }

    /// Backpropagates `dL/da` (per action element) and `dL/dlogp` (per
    /// sample) through the sampling path of `cache` into the trunk
    /// parameters, through reusable buffers: allocation-free once the
    /// scratch has warmed up. The observation gradient is not computed
    /// (SAC never uses it).
    pub fn backward_sample_with(
        &mut self,
        cache: &SampleCache,
        grad_action: &Mat,
        grad_logp: &[f32],
        s: &mut SampleBackScratch,
    ) {
        let SampleBackScratch { grad_raw, trunk } = s;
        head_backward_into(&cache.head, grad_action, grad_logp, grad_raw);
        self.trunk
            .backward_params_with(&cache.trunk, grad_raw, trunk);
    }

    /// Backpropagates a gradient on the *deterministic* action `tanh(mean)`
    /// into the trunk parameters and returns the observation gradient
    /// (the state-space attack's signal).
    pub fn backward_mean(&mut self, obs: &Mat, grad_tanh_mean: &Mat) -> Mat {
        let trunk = self.trunk.forward_cached(obs);
        let raw = trunk.output();
        // Zero on the log-std half.
        let mut grad_raw = Mat::zeros(raw.rows(), raw.cols());
        for b in 0..raw.rows() {
            for i in 0..self.action_dim {
                let t = raw.get(b, i).tanh();
                grad_raw.set(b, i, grad_tanh_mean.get(b, i) * (1.0 - t * t));
            }
        }
        self.trunk.backward(&trunk, &grad_raw)
    }

    /// Convenience: act on a single observation.
    ///
    /// With `deterministic`, returns `tanh(mean)`; otherwise a sample.
    pub fn act<R: Rng>(&self, obs: &[f32], rng: &mut R, deterministic: bool) -> Vec<f32> {
        let mut s = ActScratch::default();
        self.act_with(obs, rng, deterministic, &mut s);
        s.action
    }

    /// Allocation-free [`GaussianPolicy::act`]: evaluates the trunk through
    /// the scratch's reusable buffers and returns a slice of the action
    /// vector held by the scratch.
    ///
    /// Computes bit-identical actions to `act` and draws RNG values in
    /// exactly the same order, so scratch and allocating paths are
    /// interchangeable mid-stream without perturbing seeded runs.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        let ActScratch {
            obs: obs_m,
            trunk,
            action,
            ..
        } = s;
        obs_m.copy_from_row(obs);
        let raw = self.trunk.forward_with(obs_m, trunk);
        act_head(raw.row(0), self.action_dim, rng, deterministic, action);
        action
    }

    /// Micro-batched deterministic inference: stacks `obs` into one
    /// `(batch, obs_dim)` matrix, runs a single trunk forward, and returns
    /// a `(batch, action_dim)` matrix of `tanh(mean)` actions.
    ///
    /// Row `b` of the result is **bit-identical** to
    /// `act_with(obs[b], .., deterministic = true, ..)`: the GEMM kernels
    /// compute every output element as one ascending-`k` accumulation
    /// regardless of how many rows share the call, so batching changes
    /// throughput but never numerics. The serving layer relies on this —
    /// micro-batching under a deadline window must not make answers depend
    /// on which requests happened to share a batch. Allocation-free once
    /// the scratch has warmed to the largest batch seen.
    ///
    /// # Panics
    ///
    /// Panics if any observation slice is not `obs_dim` long.
    pub fn act_batch_with<'s>(&self, obs: &[&[f32]], s: &'s mut BatchActScratch) -> &'s Mat {
        let stage = self.stage(obs.len(), s);
        for (b, o) in obs.iter().enumerate() {
            stage.row_mut(b).copy_from_slice(o);
        }
        self.infer_staged(s)
    }

    /// Resizes the scratch's staging matrix to `(batch, obs_dim)` and
    /// returns it for the caller to fill row by row (contents are
    /// unspecified until every row is written), for a writer that puts
    /// each observation in place, as the fleet driver's feature extractor
    /// does. Follow with [`GaussianPolicy::infer_staged`].
    pub fn stage<'s>(&self, batch: usize, s: &'s mut BatchActScratch) -> &'s mut Mat {
        s.obs.resize(batch, self.obs_dim());
        &mut s.obs
    }

    /// The forward half of [`GaussianPolicy::act_batch_with`], over the
    /// observation rows already staged in `s.obs` (see
    /// [`GaussianPolicy::stage`]): one trunk forward, then `tanh(mean)` of
    /// every row, each bit-identical to serial
    /// `act_with(row_b, .., true, ..)`.
    pub fn infer_staged<'s>(&self, s: &'s mut BatchActScratch) -> &'s Mat {
        debug_assert_eq!(s.obs.cols(), self.obs_dim(), "stage() before infer");
        let BatchActScratch {
            obs,
            trunk,
            actions,
            ..
        } = s;
        let raw = self.trunk.forward_with(obs, trunk);
        tanh_mean_into(raw, self.action_dim, actions);
        actions
    }
}

/// The batched deterministic head behind every `infer_staged` (plain and
/// progressive policies): `actions` becomes the `(rows, action_dim)`
/// matrix of `tanh(mean)` over the raw head rows, each element the same
/// `tanh` [`act_head`] takes of it.
pub(crate) fn tanh_mean_into(raw: &Mat, action_dim: usize, actions: &mut Mat) {
    actions.resize(raw.rows(), action_dim);
    for b in 0..raw.rows() {
        let mean = &raw.row(b)[..action_dim];
        for (a, m) in actions.row_mut(b).iter_mut().zip(mean) {
            *a = m.tanh();
        }
    }
}

/// The single-observation action head behind every `act_with` entry point
/// (plain and progressive policies): writes `tanh(mean)` into
/// `action` when `deterministic`, otherwise a sample
/// `tanh(mean + exp(log_std) * n)` with `log_std` clamped as in
/// [`sample_head_into`] and one standard normal draw `n` per action
/// element in ascending order — the same values and the same RNG stream
/// as [`sample_head_into`] over noise drawn before the forward pass.
pub(crate) fn act_head<R: Rng>(
    raw: &[f32],
    action_dim: usize,
    rng: &mut R,
    deterministic: bool,
    action: &mut Vec<f32>,
) {
    action.clear();
    if deterministic {
        action.extend(raw[..action_dim].iter().map(|m| m.tanh()));
    } else {
        for i in 0..action_dim {
            let mean = raw[i];
            let ls = raw[action_dim + i].clamp(LOG_STD_MIN, LOG_STD_MAX);
            let n = randn_f32(rng);
            action.push((mean + ls.exp() * n).tanh());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(5);
        GaussianPolicy::new(4, &[16], 2, &mut rng)
    }

    /// `act_with` must be a drop-in for `act`: identical actions AND
    /// identical RNG consumption, for both deterministic and stochastic
    /// paths, across repeated scratch reuse.
    #[test]
    fn act_with_matches_act_and_rng_stream() {
        let p = policy();
        let mut s = ActScratch::default();
        for deterministic in [true, false] {
            let mut r1 = StdRng::seed_from_u64(33);
            let mut r2 = StdRng::seed_from_u64(33);
            for step in 0..5 {
                let obs = [0.1 * step as f32, -0.4, 0.9, 0.2];
                let a = p.act(&obs, &mut r1, deterministic);
                let b = p.act_with(&obs, &mut r2, deterministic, &mut s);
                assert_eq!(a.as_slice(), b, "step {step} det={deterministic}");
            }
            // Both RNGs must have advanced identically.
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn actions_are_bounded() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = Mat::from_vec(8, 4, (0..32).map(|_| randn_f32(&mut rng) * 3.0).collect());
        let mut s = SampleCache::default();
        p.sample_into(&obs, &mut rng, &mut s);
        for &a in s.head.actions.data() {
            assert!((-1.0..=1.0).contains(&a), "action {a} out of range");
        }
        for &a in p.mean_action(&obs).data() {
            assert!((-1.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn log_prob_matches_analytic_density() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = GaussianPolicy::new(2, &[8], 1, &mut rng);
        let obs = Mat::from_row(&[0.3, -0.2]);
        let mut s = SampleCache::default();
        p.sample_into(&obs, &mut StdRng::seed_from_u64(10), &mut s);
        let n = s.head.noise.get(0, 0);
        let mean = s.head.mean.get(0, 0);
        let ls = s.head.log_std.get(0, 0);
        let sigma = ls.exp();
        let u = mean + sigma * n;
        let a = u.tanh();
        let gauss = -0.5 * (n * n) - 0.5 * LOG_2PI - ls;
        let correction = (1.0 - a * a + TANH_EPS).ln();
        assert!((s.head.log_prob[0] - (gauss - correction)).abs() < 1e-5);
        assert!((s.head.actions.get(0, 0) - a).abs() < 1e-6);
    }

    #[test]
    fn sample_backward_matches_finite_differences() {
        // Loss = sum(actions) + 0.5 * sum(log_prob); verify trunk weight
        // gradients against finite differences with fixed noise: every
        // evaluation re-seeds the noise stream, so each draws the same.
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = GaussianPolicy::new(3, &[8], 2, &mut rng);
        let obs = Mat::from_vec(2, 3, vec![0.1, -0.4, 0.8, -0.2, 0.5, 0.3]);
        let sample = |p: &GaussianPolicy, cache: &mut SampleCache| {
            p.sample_into(&obs, &mut StdRng::seed_from_u64(17), cache);
        };

        let loss = |p: &GaussianPolicy| {
            let mut s = SampleCache::default();
            sample(p, &mut s);
            s.head.actions.data().iter().sum::<f32>() + 0.5 * s.head.log_prob.iter().sum::<f32>()
        };

        let mut cache = SampleCache::default();
        sample(&p, &mut cache);
        let grad_action = Mat::from_vec(2, 2, vec![1.0; 4]);
        let grad_logp = vec![0.5f32; 2];
        p.trunk_mut().zero_grad();
        let mut scratch = SampleBackScratch::default();
        p.backward_sample_with(&cache, &grad_action, &grad_logp, &mut scratch);

        let eps = 1e-2f32;
        for layer_idx in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 1)] {
                let mut pp = p.clone();
                let v = pp.trunk().layers()[layer_idx].w().get(r, c);
                pp.trunk_mut().layers_mut()[layer_idx].edit_w(|w| w.set(r, c, v + eps));
                let up = loss(&pp);
                pp.trunk_mut().layers_mut()[layer_idx].edit_w(|w| w.set(r, c, v - eps));
                let down = loss(&pp);
                let fd = (up - down) / (2.0 * eps);
                let got = p.trunk().layers()[layer_idx].grad_w.get(r, c);
                assert!(
                    (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                    "layer {layer_idx} dW[{r},{c}] fd {fd} vs {got}"
                );
            }
        }
    }

    #[test]
    fn backward_mean_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let obs = Mat::from_vec(1, 3, vec![0.2, -0.1, 0.6]);
        let loss = |p: &GaussianPolicy| p.mean_action(&obs).data().iter().sum::<f32>();
        p.trunk_mut().zero_grad();
        let grad = Mat::from_vec(1, 1, vec![1.0]);
        p.backward_mean(&obs, &grad);
        let eps = 1e-2f32;
        let mut pp = p.clone();
        let v = pp.trunk().layers()[0].w().get(0, 0);
        pp.trunk_mut().layers_mut()[0].edit_w(|w| w.set(0, 0, v + eps));
        let up = loss(&pp);
        pp.trunk_mut().layers_mut()[0].edit_w(|w| w.set(0, 0, v - eps));
        let down = loss(&pp);
        let fd = (up - down) / (2.0 * eps);
        let got = p.trunk().layers()[0].grad_w.get(0, 0);
        assert!((fd - got).abs() < 0.02, "fd {fd} vs {got}");
    }

    #[test]
    fn clamped_log_std_blocks_gradient() {
        // Force an absurdly large raw log_std by constructing the head
        // sample directly.
        let raw = Mat::from_row(&[0.0, 99.0]); // mean 0, log_std clamps to MAX
        let mut s = HeadSample {
            noise: Mat::from_row(&[0.5]),
            ..HeadSample::default()
        };
        sample_head_into(&raw, 1, &mut s);
        assert_eq!(s.log_std.get(0, 0), LOG_STD_MAX);
        assert!(s.clamped[0]);
        let mut g = Mat::default();
        head_backward_into(&s, &Mat::from_row(&[1.0]), &[1.0], &mut g);
        // Gradient w.r.t. the log_std half must be zeroed.
        assert_eq!(g.get(0, 1), 0.0);
    }

    #[test]
    fn act_single_shapes() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(p.act(&[0.0; 4], &mut rng, true).len(), 2);
        assert_eq!(p.act(&[0.0; 4], &mut rng, false).len(), 2);
    }

    /// Micro-batched inference must equal serial single-observation
    /// inference BIT-FOR-BIT, for batch sizes on both sides of the GEMM
    /// row-tile boundary, with one scratch reused across growing and
    /// shrinking batches.
    #[test]
    fn act_batch_with_is_bit_identical_to_serial_act() {
        let p = policy();
        let mut batch_s = BatchActScratch::default();
        let mut single_s = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(11);
        for &batch in &[1usize, 3, 4, 5, 9, 2] {
            let obs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..4).map(|_| randn_f32(&mut rng) * 2.0).collect())
                .collect();
            let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
            let acted = p.act_batch_with(&refs, &mut batch_s);
            assert_eq!((acted.rows(), acted.cols()), (batch, 2));
            for (b, o) in obs.iter().enumerate() {
                let serial = p.act_with(o, &mut rng, true, &mut single_s);
                for (i, (&got, &want)) in acted.row(b).iter().zip(serial).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "batch {batch} row {b} dim {i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn act_batch_with_handles_empty_batch() {
        let p = policy();
        let mut s = BatchActScratch::default();
        let acted = p.act_batch_with(&[], &mut s);
        assert_eq!(acted.rows(), 0);
    }

    /// Writing rows into the staging matrix directly must equal the
    /// gather-style entry — the fleet driver fills rows in place.
    #[test]
    fn staged_entry_matches_gather_entry() {
        let p = policy();
        let mut s1 = BatchActScratch::default();
        let mut s2 = BatchActScratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        for &batch in &[6usize, 1, 17] {
            let obs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..4).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                .collect();
            let stage = p.stage(batch, &mut s1);
            for (b, o) in obs.iter().enumerate() {
                stage.row_mut(b).copy_from_slice(o);
            }
            let staged = p.infer_staged(&mut s1).clone();
            let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
            let gathered = p.act_batch_with(&refs, &mut s2);
            assert_eq!(&staged, gathered);
        }
    }

    /// One seed gives one sample, whether the cache is fresh or was
    /// warmed on another batch size.
    #[test]
    fn deterministic_sampling_per_seed() {
        let p = policy();
        let obs = Mat::from_row(&[0.1, 0.2, 0.3, 0.4]);
        let mut fresh = SampleCache::default();
        p.sample_into(&obs, &mut StdRng::seed_from_u64(7), &mut fresh);
        let mut reused = SampleCache::default();
        let wide = Mat::from_vec(3, 4, (0..12).map(|i| (i as f32).sin()).collect());
        p.sample_into(&wide, &mut StdRng::seed_from_u64(8), &mut reused);
        p.sample_into(&obs, &mut StdRng::seed_from_u64(7), &mut reused);
        assert_eq!(fresh.head.actions, reused.head.actions);
        assert_eq!(fresh.head.log_prob, reused.head.log_prob);
    }
}
