//! Multi-layer perceptron with explicit forward caches and backprop.

use crate::activation::Activation;
use crate::linear::Linear;
use crate::mat::Mat;
use crate::scratch::Scratch;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network: alternating [`Linear`] layers and activations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    acts: Vec<Activation>,
}

/// Which gradients [`Mlp::backprop`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grads {
    ParamsAndInput,
    /// Parameter gradients only: the first layer's input gradient is
    /// skipped.
    Params,
    /// Neither: the sweep stops at the first layer's output gradient.
    Hidden,
}

/// Forward-pass intermediates needed by [`Mlp::backward`].
///
/// `post[i]` is the post-activation output of layer `i`; `post.last()` is the
/// network output. The original input is kept separately.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    input: Mat,
    post: Vec<Mat>,
}

impl MlpCache {
    /// The network output this cache corresponds to.
    pub fn output(&self) -> &Mat {
        self.post.last().expect("cache has at least one layer")
    }

    /// Post-activation hidden states, one per layer (last entry = output).
    pub fn hidden(&self) -> &[Mat] {
        &self.post
    }

    /// The input that produced this cache.
    pub fn input(&self) -> &Mat {
        &self.input
    }
}

impl Mlp {
    /// Builds an MLP from layer sizes, e.g. `[obs, 128, 128, out]`.
    ///
    /// Hidden layers use `hidden_act`; the final layer uses `out_act`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng>(
        sizes: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let n = sizes.len() - 1;
        let layers = (0..n)
            .map(|i| Linear::new(sizes[i], sizes[i + 1], rng))
            .collect();
        let acts = (0..n)
            .map(|i| if i + 1 == n { out_act } else { hidden_act })
            .collect();
        Mlp { layers, acts }
    }

    /// Builds an MLP from its layers and one activation per layer, as a
    /// checkpoint decodes them.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch: no layers, an
    /// activation count that differs from the layer count, or a layer
    /// whose input width does not chain with the previous output.
    pub fn from_parts(layers: Vec<Linear>, acts: Vec<Activation>) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("an MLP needs at least one layer".into());
        }
        if acts.len() != layers.len() {
            return Err(format!(
                "{} activations for {} layers",
                acts.len(),
                layers.len()
            ));
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[1].in_dim() != pair[0].out_dim() {
                return Err(format!(
                    "layer {} input dim {} does not chain with previous output {}",
                    i + 1,
                    pair[1].in_dim(),
                    pair[0].out_dim()
                ));
            }
        }
        Ok(Mlp { layers, acts })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Read access to the layers (used by PNN lateral connections).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers, for weight surgery in tests.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Activation of layer `i`.
    pub fn activation(&self, i: usize) -> Activation {
        self.acts[i]
    }

    /// Forward pass without keeping intermediates (inference).
    ///
    /// Non-finite input entries (a poisoned sensor, an upstream NaN) are
    /// zeroed before the first layer so they cannot propagate; healthy
    /// inputs pass through bit-identically.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut s = Scratch::default();
        self.forward_with(x, &mut s).clone()
    }

    /// Forward pass through reusable ping-pong buffers — the
    /// allocation-free core of [`Mlp::forward`]. Returns a reference into
    /// the scratch holding the network output; repeated calls with the
    /// same scratch allocate nothing once the buffers have warmed up.
    ///
    /// Applies the same non-finite input guard as [`Mlp::forward`] and
    /// computes bit-identical outputs.
    pub fn forward_with<'s>(&self, x: &Mat, s: &'s mut Scratch) -> &'s Mat {
        let Scratch { a, b } = s;
        a.copy_from(x);
        a.sanitize_nonfinite();
        let mut cur_is_a = true;
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let (src, dst) = if cur_is_a {
                (&*a, &mut *b)
            } else {
                (&*b, &mut *a)
            };
            layer.forward_into(src, dst);
            act.apply_inplace(dst);
            cur_is_a = !cur_is_a;
        }
        if cur_is_a {
            a
        } else {
            b
        }
    }

    /// Forward pass that records intermediates for [`Mlp::backward`].
    ///
    /// Applies the same non-finite input guard as [`Mlp::forward`]; the
    /// cache stores the sanitized input so backward sees consistent data.
    pub fn forward_cached(&self, x: &Mat) -> MlpCache {
        let mut cache = MlpCache::default();
        self.forward_cached_into(x, &mut cache);
        cache
    }

    /// [`Mlp::forward_cached`] into a reusable cache — allocation-free once
    /// the cache's buffers have warmed up, bit-identical outputs.
    pub fn forward_cached_into(&self, x: &Mat, cache: &mut MlpCache) {
        cache.input.copy_from(x);
        cache.input.sanitize_nonfinite();
        cache.post.resize_with(self.layers.len(), Mat::default);
        for (i, (layer, act)) in self.layers.iter().zip(&self.acts).enumerate() {
            // Split so the source (input or post[i-1]) and destination
            // post[i] can be borrowed at once.
            let (done, rest) = cache.post.split_at_mut(i);
            let src = if i == 0 { &cache.input } else { &done[i - 1] };
            let h = &mut rest[0];
            layer.forward_into(src, h);
            act.apply_inplace(h);
        }
    }

    /// Backward pass from `grad_out` (gradient of the loss w.r.t. the
    /// network output). Accumulates parameter gradients and returns the
    /// gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match this network's depth.
    pub fn backward(&mut self, cache: &MlpCache, grad_out: &Mat) -> Mat {
        let mut s = Scratch::default();
        self.backward_with(cache, grad_out, &mut s).clone()
    }

    /// Backward pass through reusable ping-pong buffers — the
    /// allocation-free core of [`Mlp::backward`]. Parameter gradients
    /// accumulate exactly as in [`Mlp::backward`]; the returned reference
    /// points into the scratch and holds the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match this network's depth.
    pub fn backward_with<'s>(
        &mut self,
        cache: &MlpCache,
        grad_out: &Mat,
        s: &'s mut Scratch,
    ) -> &'s Mat {
        let in_a = self.backprop(cache, grad_out, s, Grads::ParamsAndInput);
        s.half(in_a)
    }

    /// [`Mlp::backward_with`] for callers that only train: accumulates the
    /// same parameter gradients, bit for bit, but skips the input
    /// gradient of the first layer, which nothing would read.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match this network's depth.
    pub fn backward_params_with(&mut self, cache: &MlpCache, grad_out: &Mat, s: &mut Scratch) {
        self.backprop(cache, grad_out, s, Grads::Params);
    }

    /// The last `tail` columns of [`Mlp::backward_with`]'s input gradient,
    /// bit for bit, written into `out` (resized and overwritten): the first layer
    /// multiplies only the matching `tail` weight columns, so the other
    /// input columns cost nothing. SAC's actor objective needs the
    /// critics' gradient in the action columns of their `[obs | action]`
    /// input and nothing else. Parameter gradients are left untouched;
    /// allocation-free once `s` and `out` have warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match this network's depth, or if
    /// `tail` is zero or exceeds the input width.
    pub fn input_grad_tail_with(
        &mut self,
        cache: &MlpCache,
        grad_out: &Mat,
        tail: usize,
        s: &mut Scratch,
        out: &mut Mat,
    ) {
        let in_a = self.backprop(cache, grad_out, s, Grads::Hidden);
        let (g, w_tail) = if in_a {
            (&s.a, &mut s.b)
        } else {
            (&s.b, &mut s.a)
        };
        self.layers[0].input_grad_tail_into(g, tail, w_tail, out);
    }

    /// The shared backward sweep: activation backward, then per layer
    /// whichever of the parameter and input gradients `grads` asks for.
    /// Returns whether the last gradient written (the input gradient
    /// unless `grads` stops short of it) is in `s.a`.
    fn backprop(
        &mut self,
        cache: &MlpCache,
        grad_out: &Mat,
        s: &mut Scratch,
        grads: Grads,
    ) -> bool {
        assert_eq!(
            cache.post.len(),
            self.layers.len(),
            "cache/network depth mismatch"
        );
        let Scratch { a, b } = s;
        a.copy_from(grad_out);
        // A single NaN in the output gradient would poison every parameter
        // gradient below it; zeroing the entry just skips that sample's
        // contribution.
        a.sanitize_nonfinite();
        let params = matches!(grads, Grads::ParamsAndInput | Grads::Params);
        let first_input = grads == Grads::ParamsAndInput;
        let mut cur_is_a = true;
        for i in (0..self.layers.len()).rev() {
            let (g, next) = if cur_is_a {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            self.acts[i].backward_inplace(&cache.post[i], g);
            if params {
                let input = if i == 0 {
                    &cache.input
                } else {
                    &cache.post[i - 1]
                };
                self.layers[i].accumulate_grads(input, g);
            }
            if i > 0 || first_input {
                self.layers[i].input_grad_into(g, next);
                cur_is_a = !cur_is_a;
            }
        }
        cur_is_a
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visits every `(params, grads)` slice in deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Copies all parameters from a same-shaped network.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.copy_params_from(b);
        }
    }

    /// Polyak-averages all parameters towards `other`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn polyak_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.polyak_from(b, tau);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Mlp {
        let mut rng = StdRng::seed_from_u64(11);
        Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Identity, &mut rng)
    }

    #[test]
    fn shapes_and_dims() {
        let n = net();
        assert_eq!(n.in_dim(), 4);
        assert_eq!(n.out_dim(), 3);
        assert_eq!(n.num_layers(), 2);
        assert_eq!(n.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let x = Mat::zeros(5, 4);
        assert_eq!((n.forward(&x).rows(), n.forward(&x).cols()), (5, 3));
    }

    #[test]
    fn cached_forward_matches_plain_forward() {
        let n = net();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Mat::from_vec(3, 4, (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let cache = n.forward_cached(&x);
        assert_eq!(cache.output(), &n.forward(&x));
        assert_eq!(cache.hidden().len(), 2);
        assert_eq!(cache.input(), &x);
    }

    #[test]
    fn full_backward_matches_finite_differences() {
        let mut n = net();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Mat::from_vec(2, 4, (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let cache = n.forward_cached(&x);
        let grad_out = Mat::from_vec(2, 3, vec![1.0; 6]); // loss = sum(outputs)
        n.zero_grad();
        let grad_in = n.backward(&cache, &grad_out);

        let loss = |n: &Mlp, x: &Mat| n.forward(x).data().iter().sum::<f32>();
        let eps = 1e-2f32;

        // Input gradients.
        for c in 0..4 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let up = loss(&n, &xp);
            xp.set(0, c, x.get(0, c) - eps);
            let down = loss(&n, &xp);
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grad_in.get(0, c)).abs() < 0.05,
                "dX[0,{c}] fd {fd} vs {}",
                grad_in.get(0, c)
            );
        }

        // A few weight gradients in both layers.
        for layer_idx in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 1)] {
                let mut np = n.clone();
                let v = np.layers[layer_idx].w().get(r, c);
                np.layers[layer_idx].edit_w(|w| w.set(r, c, v + eps));
                let up = loss(&np, &x);
                np.layers[layer_idx].edit_w(|w| w.set(r, c, v - eps));
                let down = loss(&np, &x);
                let fd = (up - down) / (2.0 * eps);
                let got = n.layers[layer_idx].grad_w.get(r, c);
                assert!(
                    (fd - got).abs() < 0.05,
                    "layer {layer_idx} dW[{r},{c}] fd {fd} vs {got}"
                );
            }
        }
    }

    #[test]
    fn copy_and_polyak() {
        let mut a = net();
        let mut rng = StdRng::seed_from_u64(77);
        let b = Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Identity, &mut rng);
        a.copy_params_from(&b);
        let x = Mat::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(a.forward(&x), b.forward(&x));

        let mut c = net();
        c.polyak_from(&b, 1.0);
        assert_eq!(c.forward(&x), b.forward(&x));
    }

    #[test]
    fn visit_params_count() {
        let mut n = net();
        let mut total = 0;
        n.visit_params(&mut |p, _| total += p.len());
        assert_eq!(total, n.param_count());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&[3], Activation::Relu, Activation::Identity, &mut rng);
    }

    #[test]
    fn scratch_forward_and_backward_match_allocating_paths() {
        use crate::scratch::Scratch;
        let n = net();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Scratch::default();
        // Reuse one scratch across calls with different batch sizes: every
        // call must still match the allocating path bit-for-bit.
        for batch in [1usize, 4, 2] {
            let x = Mat::from_vec(
                batch,
                4,
                (0..batch * 4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            );
            assert_eq!(n.forward_with(&x, &mut s), &n.forward(&x));
        }

        let mut a = net();
        let mut b = net();
        let x = Mat::from_vec(2, 4, (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let cache = a.forward_cached(&x);
        let grad_out = Mat::from_vec(2, 3, vec![0.5; 6]);
        a.zero_grad();
        b.zero_grad();
        let gi_alloc = a.backward(&cache, &grad_out);
        let gi_scratch = b.backward_with(&cache, &grad_out, &mut s).clone();
        assert_eq!(gi_alloc, gi_scratch);
        assert_eq!(a, b, "accumulated gradients must match exactly");
    }

    /// `backward_params_with` accumulates exactly the full backward pass's
    /// parameter gradients.
    #[test]
    fn partial_backward_passes_match_full_backward() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Mat::from_vec(5, 4, (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let grad_out = Mat::from_vec(5, 3, (0..15).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let mut full = net();
        let cache = full.forward_cached(&x);
        full.zero_grad();
        full.backward(&cache, &grad_out);

        let mut params = net();
        params.zero_grad();
        params.backward_params_with(&cache, &grad_out, &mut Scratch::default());
        assert_eq!(params, full, "parameter gradients must match exactly");
    }

    /// The tail input gradient is exactly the last columns of the full
    /// backward pass's, at a critic's shape (2 action columns of a 62-wide
    /// input, the 128-row training batch) and at every tail width of a
    /// small net, the whole input included, while the parameter gradients
    /// stay as they were.
    #[test]
    fn input_grad_tail_matches_last_columns_of_full_input_grad() {
        let mut rng = StdRng::seed_from_u64(5);
        let critic = Mlp::new(
            &[62, 128, 128, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let cases = [
            (critic, 128usize, vec![2usize]),
            (net(), 5, vec![1, 2, 3, 4]),
        ];
        for (mut n, batch, tails) in cases {
            let in_dim = n.in_dim();
            let x = Mat::from_vec(
                batch,
                in_dim,
                (0..batch * in_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let out_dim = n.out_dim();
            let grad_out = Mat::from_vec(
                batch,
                out_dim,
                (0..batch * out_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let cache = n.forward_cached(&x);
            let full = n.clone().backward(&cache, &grad_out);
            let before = n.clone();
            let mut s = Scratch::default();
            let mut tail_grad = Mat::from_vec(1, 1, vec![9.9]); // dirty
            for tail in tails {
                n.input_grad_tail_with(&cache, &grad_out, tail, &mut s, &mut tail_grad);
                assert_eq!((tail_grad.rows(), tail_grad.cols()), (batch, tail));
                for b in 0..batch {
                    for (t, &g) in tail_grad.row(b).iter().enumerate() {
                        let want = full.get(b, in_dim - tail + t);
                        assert_eq!(g.to_bits(), want.to_bits(), "tail {tail} [{b}, {t}]");
                    }
                }
            }
            assert_eq!(n, before, "parameter gradients must be untouched");
        }
    }

    #[test]
    fn forward_survives_nan_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&[3, 8, 2], Activation::Relu, Activation::Identity, &mut rng);
        let poisoned = Mat::from_row(&[f32::NAN, 0.5, f32::INFINITY]);
        let out = mlp.forward(&poisoned);
        assert!(out.data().iter().all(|v| v.is_finite()));
        // The guard zeroes poisoned entries, so the output matches the
        // zero-substituted input exactly.
        let clean = Mat::from_row(&[0.0, 0.5, 0.0]);
        assert_eq!(out, mlp.forward(&clean));
    }

    #[test]
    fn backward_survives_nan_gradient() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Mat::from_row(&[0.3, -0.7]);
        let cache = mlp.forward_cached(&x);
        let bad_grad = Mat::from_row(&[f32::NAN]);
        let gin = mlp.backward(&cache, &bad_grad);
        assert!(gin.data().iter().all(|v| v.is_finite()));
        let mut all_finite = true;
        mlp.visit_params(&mut |_, grads| {
            all_finite &= grads.iter().all(|g| g.is_finite());
        });
        assert!(all_finite, "parameter gradients stayed finite");
    }
}
