//! Adam optimizer operating over `visit_params`-style parameter slices.

use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Optional global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 3e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: 10.0,
        }
    }
}

/// Adam state for one network.
///
/// The moment buffers are keyed by visit order, so the same optimizer must
/// always be used with the same network (the slice sizes are checked).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Adam {
    /// Configuration.
    pub config: AdamConfig,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an optimizer with the given config and empty state.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Convenience constructor with only the learning rate changed.
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(AdamConfig {
            lr,
            ..AdamConfig::default()
        })
    }

    /// Number of update steps taken.
    #[cfg(test)]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The full optimizer state `(t, m, v)` — step counter plus first/second
    /// moment buffers in visit order — for checkpointing.
    pub fn state(&self) -> (u64, &[Vec<f32>], &[Vec<f32>]) {
        (self.t, &self.m, &self.v)
    }

    /// Rebuilds an optimizer from a state captured with [`Adam::state`].
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` disagree in shape (a malformed checkpoint must
    /// not silently train with mismatched moments).
    pub fn from_state(config: AdamConfig, t: u64, m: Vec<Vec<f32>>, v: Vec<Vec<f32>>) -> Self {
        assert_eq!(
            m.len(),
            v.len(),
            "Adam moment buffers differ in slice count"
        );
        for (i, (ms, vs)) in m.iter().zip(&v).enumerate() {
            assert_eq!(
                ms.len(),
                vs.len(),
                "Adam moment slice {i} differs in length"
            );
        }
        Adam { config, t, m, v }
    }

    /// Applies one Adam update to a network exposing
    /// `visit_params(&mut FnMut(&mut [f32], &mut [f32]))`.
    ///
    /// Call with the network's accumulated gradients; gradients are *not*
    /// cleared (callers decide when to `zero_grad`).
    ///
    /// # Panics
    ///
    /// Panics if the parameter layout changed between calls.
    pub fn step(&mut self, visit: impl FnOnce(&mut dyn FnMut(&mut [f32], &mut [f32]))) {
        self.t += 1;
        let t = self.t as f32;
        let c = self.config;
        let bias1 = 1.0 - c.beta1.powf(t);
        let bias2 = 1.0 - c.beta2.powf(t);

        // Optional global grad-norm clipping needs two passes; approximate
        // with per-slice clipping to keep the single-visit API. Per-slice is
        // standard practice for small networks and keeps things simple.
        let mut idx = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        visit(&mut |params: &mut [f32], grads: &mut [f32]| {
            if m.len() == idx {
                m.push(vec![0.0; params.len()]);
                v.push(vec![0.0; params.len()]);
            }
            assert_eq!(
                m[idx].len(),
                params.len(),
                "parameter layout changed between Adam steps"
            );
            assert_eq!(grads.len(), params.len(), "gradient slice length");
            if c.grad_clip > 0.0 {
                clip_slice(grads, c.grad_clip);
            }
            // One zipped pass: no bounds checks, so the element-wise
            // update vectorizes.
            for (((p, &g), mi), vi) in params
                .iter_mut()
                .zip(grads.iter())
                .zip(m[idx].iter_mut())
                .zip(v[idx].iter_mut())
            {
                *mi = c.beta1 * *mi + (1.0 - c.beta1) * g;
                *vi = c.beta2 * *vi + (1.0 - c.beta2) * g * g;
                let mhat = *mi / bias1;
                let vhat = *vi / bias2;
                *p -= c.lr * mhat / (vhat.sqrt() + c.eps);
            }
            idx += 1;
        });
    }
}

/// Scales `grads` down to norm `clip` when their norm exceeds it. The
/// norm is the square root of a sequential `f32` sum of squares — a
/// latency-bound chain, so it runs only when [`clip_cannot_fire`] cannot
/// rule the clip out. The result is bit-identical to running it always.
fn clip_slice(grads: &mut [f32], clip: f32) {
    if clip_cannot_fire(grads, clip) {
        return;
    }
    let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
    if norm > clip {
        let scale = clip / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
}

/// Whether the clip norm of [`clip_slice`] is provably at most `clip`,
/// from a lane-parallel `f64` sum `s` of the same `f32` squares.
///
/// The chain's `n - 1` rounded additions of non-negative terms stay
/// within `S · (1 + γ)` of the exact sum `S`, where
/// `γₙ = n·u / (1 − n·u)` and `u = 2⁻²⁴`; using `γₙ` rather than `γₙ₋₁`
/// leaves a margin of about `u` that covers the `f64` rounding of `s` and
/// of this test for any slice shorter than 2²⁴ elements. So
/// `s · (1 + γₙ) < clip²` (exact in `f64`) puts the chain's sum below
/// `clip²`, and its correctly rounded square root at most `clip`. NaN, ∞
/// and overflowing squares fail the test and fall back to the chain.
fn clip_cannot_fire(grads: &[f32], clip: f32) -> bool {
    const LANES: usize = 8;
    if grads.len() >= 1 << 24 {
        return false;
    }
    let mut acc = [0.0f64; LANES];
    let chunks = grads.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &g) in acc.iter_mut().zip(chunk) {
            *a += f64::from(g * g);
        }
    }
    let s = acc.iter().sum::<f64>() + tail.iter().map(|&g| f64::from(g * g)).sum::<f64>();
    let nu = grads.len() as f64 * f64::from(f32::EPSILON) / 2.0;
    let gamma = nu / (1.0 - nu);
    s * (1.0 + gamma) < f64::from(clip) * f64::from(clip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mat::Mat;
    use crate::mlp::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minimizes_quadratic() {
        // Single "parameter vector" [x, y]; loss = x^2 + (y - 3)^2.
        let mut params = vec![5.0f32, -4.0];
        let mut adam = Adam::with_lr(0.05);
        for _ in 0..2000 {
            let mut grads = vec![2.0 * params[0], 2.0 * (params[1] - 3.0)];
            adam.step(|f| f(&mut params, &mut grads));
        }
        assert!(params[0].abs() < 1e-2, "x = {}", params[0]);
        assert!((params[1] - 3.0).abs() < 1e-2, "y = {}", params[1]);
    }

    #[test]
    fn trains_mlp_regression() {
        // Fit y = 2*x0 - x1 with a small MLP.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[2, 16, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut adam = Adam::with_lr(1e-2);
        let mut final_loss = f32::INFINITY;
        for _ in 0..500 {
            let xs: Vec<f32> = (0..16)
                .flat_map(|_| {
                    let a: f32 = rng.gen_range(-1.0..1.0);
                    let b: f32 = rng.gen_range(-1.0..1.0);
                    [a, b]
                })
                .collect();
            let x = Mat::from_vec(16, 2, xs);
            let target: Vec<f32> = (0..16).map(|r| 2.0 * x.get(r, 0) - x.get(r, 1)).collect();
            let cache = net.forward_cached(&x);
            let pred = cache.output();
            let mut grad = Mat::zeros(16, 1);
            let mut loss = 0.0;
            #[allow(clippy::needless_range_loop)]
            for r in 0..16 {
                let err = pred.get(r, 0) - target[r];
                loss += err * err / 16.0;
                grad.set(r, 0, 2.0 * err / 16.0);
            }
            final_loss = loss;
            net.zero_grad();
            net.backward(&cache, &grad);
            adam.step(|f| net.visit_params(f));
        }
        assert!(final_loss < 0.01, "final loss {final_loss}");
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut params = vec![0.0f32];
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            grad_clip: 1.0,
            ..AdamConfig::default()
        });
        let mut grads = vec![1e6f32];
        adam.step(|f| f(&mut params, &mut grads));
        // After clipping the first step is at most ~lr in magnitude.
        assert!(params[0].abs() <= 0.11, "step {}", params[0]);
    }

    #[test]
    fn step_counter_increments() {
        let mut adam = Adam::with_lr(0.01);
        let mut p = vec![1.0f32];
        let mut g = vec![1.0f32];
        assert_eq!(adam.steps(), 0);
        adam.step(|f| f(&mut p, &mut g));
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn state_round_trip_continues_identically() {
        // Two optimizers over the same parameters: one runs straight
        // through, the other is checkpointed and rebuilt mid-stream. The
        // trajectories must match bit for bit.
        let mut pa = vec![5.0f32, -4.0];
        let mut pb = pa.clone();
        let mut a = Adam::with_lr(0.05);
        let mut b = Adam::with_lr(0.05);
        let grad = |p: &[f32]| vec![2.0 * p[0], 2.0 * (p[1] - 3.0)];
        for _ in 0..25 {
            let mut ga = grad(&pa);
            a.step(|f| f(&mut pa, &mut ga));
            let mut gb = grad(&pb);
            b.step(|f| f(&mut pb, &mut gb));
        }
        let (t, m, v) = b.state();
        let mut b = Adam::from_state(b.config, t, m.to_vec(), v.to_vec());
        for _ in 0..25 {
            let mut ga = grad(&pa);
            a.step(|f| f(&mut pa, &mut ga));
            let mut gb = grad(&pb);
            b.step(|f| f(&mut pb, &mut gb));
        }
        assert_eq!(pa, pb);
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    #[should_panic(expected = "differ in slice count")]
    fn from_state_rejects_mismatched_moments() {
        let _ = Adam::from_state(AdamConfig::default(), 1, vec![vec![0.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "layout changed")]
    fn layout_change_panics() {
        let mut adam = Adam::with_lr(0.01);
        let mut p = vec![1.0f32];
        let mut g = vec![1.0f32];
        adam.step(|f| f(&mut p, &mut g));
        let mut p2 = vec![1.0f32, 2.0];
        let mut g2 = vec![1.0f32, 2.0];
        adam.step(|f| f(&mut p2, &mut g2));
    }

    /// The reference clip: always the chain.
    fn chain_clip(grads: &mut [f32], clip: f32) {
        let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > clip {
            let scale = clip / norm;
            for g in grads.iter_mut() {
                *g *= scale;
            }
        }
    }

    fn assert_clip_matches_chain(grads: &[f32], clip: f32, what: &str) {
        let (mut fast, mut slow) = (grads.to_vec(), grads.to_vec());
        clip_slice(&mut fast, clip);
        chain_clip(&mut slow, clip);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&slow), "{what} (len {})", grads.len());
        if clip_cannot_fire(grads, clip) {
            let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
            assert!(norm <= clip, "{what}: proof passed but the chain clips");
        }
    }

    /// At every length from 1 to 16 384, slices scaled to land just
    /// below, on and just above the clip bound (as the chain measures
    /// it), and far on either side, clip exactly as the chain does.
    #[test]
    fn clip_matches_chain_around_the_bound_at_every_length() {
        let mut rng = StdRng::seed_from_u64(17);
        let base: Vec<f32> = (0..16_384).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let clip = 10.0f32;
        let mut scaled = Vec::with_capacity(base.len());
        let mut fired = [0usize; 2];
        for n in 1..=base.len() {
            let prefix = &base[..n];
            let norm = prefix.iter().map(|g| g * g).sum::<f32>().sqrt();
            let offsets: &[f32] = if n <= 256 || n % 97 == 0 || n == base.len() {
                &[-1e-3, -1e-6, -2e-7, -6e-8, 0.0, 6e-8, 2e-7, 1e-6, 1e-3, 1e3]
            } else {
                &[-6e-8, 0.0, 6e-8]
            };
            for &d in offsets {
                let scale = clip / norm * (1.0 + d);
                scaled.clear();
                scaled.extend(prefix.iter().map(|g| g * scale));
                assert_clip_matches_chain(&scaled, clip, &format!("offset {d}"));
                fired[usize::from(clip_cannot_fire(&scaled, clip))] += 1;
            }
        }
        assert!(fired[0] > 0 && fired[1] > 0, "both branches ran: {fired:?}");
    }

    /// Non-finite, overflowing, subnormal and empty slices take the chain
    /// (or provably need no clip) and clip exactly as it does.
    #[test]
    fn clip_matches_chain_on_special_values() {
        let clip = 10.0f32;
        let tiny = f32::from_bits(1); // the smallest subnormal
        let cases: Vec<(&str, Vec<f32>)> = vec![
            ("empty", vec![]),
            ("single at the bound", vec![clip]),
            ("single just above", vec![clip.next_up()]),
            ("single just below", vec![clip.next_down()]),
            ("NaN", vec![1.0, f32::NAN, 2.0]),
            ("+inf", vec![1.0, f32::INFINITY]),
            ("-inf", vec![f32::NEG_INFINITY, 0.5, 0.5]),
            ("square overflows f32", vec![1e20, 1.0]),
            ("sum overflows f32", vec![1.5e19; 4]),
            ("subnormals", vec![tiny; 33]),
            ("subnormal squares", vec![1e-30; 9]),
            ("mixed subnormal", vec![tiny, 3.0, -tiny, 4.0]),
            ("zeros", vec![0.0; 17]),
            ("negative zeros", vec![-0.0; 5]),
        ];
        for (what, grads) in cases {
            assert_clip_matches_chain(&grads, clip, what);
        }
    }

    /// A whole Adam step with the proof equals one with the chain always
    /// run, across clip settings that never, sometimes and always fire.
    #[test]
    fn step_matches_the_chain_step() {
        let mut rng = StdRng::seed_from_u64(23);
        for clip in [0.5f32, 10.0, 1e6] {
            let config = AdamConfig {
                grad_clip: clip,
                ..AdamConfig::default()
            };
            let mut adam = Adam::new(config);
            let mut reference = Adam::new(AdamConfig {
                grad_clip: 0.0,
                ..config
            });
            let mut pa: Vec<f32> = (0..300).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut pb = pa.clone();
            for step in 0..20 {
                let scale = 0.01 * (1 << (step % 12)) as f32;
                let g: Vec<f32> = (0..300).map(|_| rng.gen_range(-scale..scale)).collect();
                let mut ga = g.clone();
                adam.step(|f| f(&mut pa, &mut ga));
                // The reference clips by the chain, then steps unclipped.
                let mut gb = g;
                chain_clip(&mut gb, clip);
                reference.step(|f| f(&mut pb, &mut gb));
                assert_eq!(ga, gb, "clip {clip} step {step}: gradients");
                assert_eq!(pa, pb, "clip {clip} step {step}: parameters");
            }
        }
    }

    use rand::Rng;
}
