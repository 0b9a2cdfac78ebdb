//! Fully-connected layer with explicit gradient buffers.

use crate::mat::Mat;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Column-sum buffer behind [`Linear::accumulate_grads`]; its capacity
    /// persists across calls, so steady-state training allocates nothing.
    static COL_SUMS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A dense layer computing `y = x @ W^T + b`.
///
/// Gradients accumulate into `grad_w` / `grad_b` across backward passes
/// until [`Linear::zero_grad`] is called, matching
/// the usual deep-learning training loop.
///
/// The layer owns `W^T`, its *pack*: the layout every forward pass
/// multiplies against. The pack is built on the layer's first forward
/// (through `&self`, so a frozen network behind an `Arc` packs once for
/// all its users) and every `&mut` method that changes `W` rewrites an
/// existing pack in place, so a warm training loop never allocates one.
/// Clones and decoded layers start unpacked; a frozen copy
/// ([`Linear::clone_frozen`]) shares its source's pack until either side
/// changes its weights. Equality and serde ignore the pack — it is a
/// pure function of `W`.
#[derive(Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, shape `(out, in)`. Private so that no write can leave the
    /// pack stale; see [`Linear::edit_w`].
    w: Mat,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// Accumulated weight gradients, shape `(out, in)`.
    pub grad_w: Mat,
    /// Accumulated bias gradients, length `out`.
    pub grad_b: Vec<f32>,
    /// `w` transposed, `(in, out)`, once a forward pass has needed it;
    /// shared with frozen copies that have not changed their weights.
    #[serde(skip)]
    pack: OnceLock<Arc<Mat>>,
}

impl Clone for Linear {
    /// Clones the parameters and gradients; the clone starts unpacked.
    fn clone(&self) -> Self {
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: self.grad_w.clone(),
            grad_b: self.grad_b.clone(),
            pack: OnceLock::new(),
        }
    }
}

impl PartialEq for Linear {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w
            && self.b == other.b
            && self.grad_w == other.grad_w
            && self.grad_b == other.grad_b
    }
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights (`U(-k, k)`,
    /// `k = sqrt(1/in)`) and zero bias, the PyTorch default.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        let k = (1.0 / in_dim as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-k..=k))
            .collect();
        Linear::from_parts(Mat::from_vec(out_dim, in_dim, data), vec![0.0; out_dim])
    }

    /// A layer with the given weights `(out, in)` and bias (length `out`),
    /// zero gradients and no pack (checkpoint decoding).
    ///
    /// # Panics
    ///
    /// Panics if the bias length is not `w.rows()` or `w` is empty.
    pub fn from_parts(w: Mat, b: Vec<f32>) -> Self {
        assert!(w.rows() > 0 && w.cols() > 0, "layer dims must be positive");
        assert_eq!(b.len(), w.rows(), "bias length must match the output dim");
        Linear {
            grad_w: Mat::zeros(w.rows(), w.cols()),
            grad_b: vec![0.0; w.rows()],
            w,
            b,
            pack: OnceLock::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// The weights, shape `(out, in)`.
    pub fn w(&self) -> &Mat {
        &self.w
    }

    /// Weight surgery: applies `edit` to the weights, then rewrites the
    /// pack if one exists.
    pub fn edit_w(&mut self, edit: impl FnOnce(&mut Mat)) {
        edit(&mut self.w);
        self.refresh_pack();
    }

    /// A copy for frozen use: a clone that shares the pack, if one is
    /// built, so the copy packs nothing anew. (A training snapshot keeps
    /// the plain clone: the live side's next update would leave it
    /// holding a pack nothing forwards through.)
    pub(crate) fn clone_frozen(&self) -> Self {
        let copy = self.clone();
        if let Some(pack) = self.pack.get() {
            let _ = copy.pack.set(Arc::clone(pack));
        }
        copy
    }

    /// The pack, built on first use.
    fn pack(&self) -> &Mat {
        self.pack.get_or_init(|| {
            let mut t = Mat::default();
            self.w.transpose_into(&mut t);
            Arc::new(t)
        })
    }

    /// Rewrites an existing pack from the current weights, in place when
    /// this layer holds the only handle, else into a pack of its own (the
    /// frozen copies sharing the old one keep it); an unpacked layer stays
    /// unpacked.
    fn refresh_pack(&mut self) {
        if let Some(shared) = self.pack.get_mut() {
            match Arc::get_mut(shared) {
                Some(t) => self.w.transpose_into(t),
                None => {
                    let mut t = Mat::default();
                    self.w.transpose_into(&mut t);
                    *shared = Arc::new(t);
                }
            }
        }
    }

    /// The pack, if a forward pass has built it.
    #[cfg(test)]
    pub(crate) fn built_pack(&self) -> Option<&Mat> {
        self.pack.get().map(|p| &**p)
    }

    /// Whether a forward pass has built the pack.
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        self.built_pack().is_some()
    }

    /// Forward pass: `x @ W^T + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    #[cfg(test)]
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut y = Mat::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a reusable output buffer (allocation-free once
    /// the buffer and the pack have warmed up):
    /// one bias-fused product against the pack — the broadcast sweep for
    /// fewer than [`crate::mat::TILE`] rows, the register-tiled GEMM above.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_prepacked_bias_into(&self.w, self.pack(), &self.b, y);
    }

    /// Backward pass. `x` must be the input that produced `grad_out`'s
    /// forward pass. Accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    #[cfg(test)]
    pub fn backward(&mut self, x: &Mat, grad_out: &Mat) -> Mat {
        let mut grad_in = Mat::default();
        self.backward_into(x, grad_out, &mut grad_in);
        grad_in
    }

    /// Backward pass writing the input gradient into a reusable buffer:
    /// accumulates the weight and bias gradients, then writes
    /// `grad_in = grad_out @ W`.
    #[cfg(test)]
    pub fn backward_into(&mut self, x: &Mat, grad_out: &Mat, grad_in: &mut Mat) {
        self.accumulate_grads(x, grad_out);
        self.input_grad_into(grad_out, grad_in);
    }

    /// The parameter half of the backward pass: `grad_w += grad_out^T @ x`
    /// (directly into `grad_w` via `matmul_tn_acc` — no temporary matrix)
    /// and `grad_b +=` the column sums of `grad_out`. Each column sum
    /// starts at `0.0`, adds the batch rows in ascending order in a
    /// reused thread-local buffer, then lands on `grad_b` in one add.
    pub(crate) fn accumulate_grads(&mut self, x: &Mat, grad_out: &Mat) {
        grad_out.matmul_tn_acc(x, &mut self.grad_w);
        COL_SUMS.with(|sums| {
            let sums = &mut *sums.borrow_mut();
            grad_out.sum_rows_into(sums);
            for (g, &s) in self.grad_b.iter_mut().zip(sums.iter()) {
                *g += s;
            }
        });
    }

    /// The input half of the backward pass: `grad_in = grad_out @ W`,
    /// leaving the parameter gradients untouched.
    pub(crate) fn input_grad_into(&self, grad_out: &Mat, grad_in: &mut Mat) {
        grad_out.matmul_into(&self.w, grad_in);
    }

    /// The last `tail` columns of [`Linear::input_grad_into`], bit for
    /// bit: those weight columns are copied into `w_tail` (`out x tail`)
    /// and `grad_in = grad_out @ w_tail` folds every element exactly as
    /// the full product does.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is zero or exceeds `in_dim()`.
    pub(crate) fn input_grad_tail_into(
        &self,
        grad_out: &Mat,
        tail: usize,
        w_tail: &mut Mat,
        grad_in: &mut Mat,
    ) {
        let skip = self.in_dim() - tail;
        w_tail.resize(self.out_dim(), tail);
        for (dst, src) in w_tail
            .data_mut()
            .chunks_exact_mut(tail)
            .zip(self.w.data().chunks_exact(self.in_dim()))
        {
            dst.copy_from_slice(&src[skip..]);
        }
        grad_out.matmul_into(w_tail, grad_in);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Visits `(params, grads)` slices in a deterministic order, for
    /// optimizers; the pack is rewritten after the weight slice.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.data_mut(), self.grad_w.data_mut());
        self.refresh_pack();
        f(&mut self.b, &mut self.grad_b);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.data().len() + self.b.len()
    }

    /// Copies parameters from another layer of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[cfg(test)]
    pub fn copy_params_from(&mut self, other: &Linear) {
        assert_eq!(self.w.rows(), other.w.rows());
        assert_eq!(self.w.cols(), other.w.cols());
        self.w.copy_from(&other.w);
        self.b.copy_from_slice(&other.b);
        self.refresh_pack();
    }

    /// Polyak update: `theta <- tau * other + (1 - tau) * theta`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn polyak_from(&mut self, other: &Linear, tau: f32) {
        assert_eq!(self.w.rows(), other.w.rows());
        assert_eq!(self.w.cols(), other.w.cols());
        for (t, s) in self.w.data_mut().iter_mut().zip(other.w.data()) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, s) in self.b.iter_mut().zip(&other.b) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        self.refresh_pack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(42);
        Linear::new(3, 2, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer();
        l.b = vec![1.0, -1.0];
        let x = Mat::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → pure bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut l = layer();
        let x = Mat::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.3, -0.7]);
        // Loss = sum(y); grad_out = ones.
        let grad_out = Mat::from_vec(2, 2, vec![1.0; 4]);
        l.zero_grad();
        let grad_in = l.backward(&x, &grad_out);

        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &Mat| l.forward(x).data().iter().sum::<f32>();
        // Weight gradient check (spot check a few entries).
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 1)] {
            let mut lp = l.clone();
            let v = lp.w.get(r, c);
            lp.edit_w(|w| w.set(r, c, v + eps));
            let up = loss(&lp, &x);
            lp.edit_w(|w| w.set(r, c, v - eps));
            let down = loss(&lp, &x);
            let fd = (up - down) / (2.0 * eps);
            let got = l.grad_w.get(r, c);
            assert!((fd - got).abs() < 1e-2, "dW[{r},{c}] fd {fd} vs {got}");
        }
        // Input gradient check.
        for &(r, c) in &[(0usize, 0usize), (1, 1)] {
            let mut xp = x.clone();
            let v = xp.get(r, c);
            xp.set(r, c, v + eps);
            let up = loss(&l, &xp);
            xp.set(r, c, v - eps);
            let down = loss(&l, &xp);
            let fd = (up - down) / (2.0 * eps);
            let got = grad_in.get(r, c);
            assert!((fd - got).abs() < 1e-2, "dX[{r},{c}] fd {fd} vs {got}");
        }
        // Bias gradient: sum over batch of ones = batch size.
        assert_eq!(l.grad_b, vec![2.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer();
        let x = Mat::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let g = Mat::from_vec(1, 2, vec![1.0, 1.0]);
        l.backward(&x, &g);
        let after_one = l.grad_b.clone();
        l.backward(&x, &g);
        assert_eq!(l.grad_b[0], after_one[0] * 2.0);
        l.zero_grad();
        assert_eq!(l.grad_b, vec![0.0, 0.0]);
    }

    #[test]
    fn polyak_moves_towards_source() {
        let mut a = layer();
        let mut rng = StdRng::seed_from_u64(7);
        let b = Linear::new(3, 2, &mut rng);
        let before = a.w.get(0, 0);
        a.polyak_from(&b, 0.5);
        let expect = 0.5 * b.w.get(0, 0) + 0.5 * before;
        assert!((a.w.get(0, 0) - expect).abs() < 1e-7);
        // tau = 1 copies exactly.
        a.polyak_from(&b, 1.0);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn param_visit_covers_all() {
        let mut l = layer();
        let mut count = 0;
        l.visit_params(&mut |p, g| {
            assert_eq!(p.len(), g.len());
            count += p.len();
        });
        assert_eq!(count, l.param_count());
        assert_eq!(count, 3 * 2 + 2);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(Linear::new(4, 4, &mut r1), Linear::new(4, 4, &mut r2));
    }

    fn rand_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
        let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
        Mat::from_vec(rows, cols, data)
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Shapes covering every strip of the packed sweep (64, 4 and 1
    /// columns) and the tiled GEMM's remainders.
    const SHAPES: [(usize, usize); 5] = [(3, 2), (60, 128), (128, 128), (128, 4), (62, 1)];

    /// After every `&mut` path that changes the weights, after a clone
    /// and after rebuilding from parts (checkpoint decoding), a forward
    /// pass equals that of a fresh, never-packed layer bit for bit, at
    /// one row (the packed sweep) and at seven (the GEMM).
    #[test]
    fn pack_follows_every_weight_change() {
        let mut rng = StdRng::seed_from_u64(9);
        for (inp, out) in SHAPES {
            let xs = [rand_mat(1, inp, &mut rng), rand_mat(7, inp, &mut rng)];
            let check = |l: &Linear, what: &str| {
                let fresh = Linear::from_parts(l.w.clone(), l.b.clone());
                for x in &xs {
                    assert_eq!(
                        bits(&l.forward(x)),
                        bits(&fresh.forward(x)),
                        "{inp}->{out} after {what}, {} rows",
                        x.rows()
                    );
                }
                assert!(l.is_packed());
            };
            let mut l = Linear::new(inp, out, &mut rng);
            let other = Linear::new(inp, out, &mut rng);
            check(&l, "first forward");
            let g = rand_mat(7, out, &mut rng);
            let mut adam = crate::adam::Adam::with_lr(0.05);
            for step in 0..3 {
                l.zero_grad();
                l.accumulate_grads(&xs[1], &g);
                adam.step(|f| l.visit_params(f));
                check(&l, &format!("Adam step {step}"));
            }
            l.polyak_from(&other, 0.3);
            check(&l, "polyak_from");
            l.copy_params_from(&other);
            check(&l, "copy_params_from");
            l.edit_w(|w| w.set(0, 0, 0.75));
            check(&l, "edit_w");
            let twin = l.clone();
            assert!(!twin.is_packed(), "clones start unpacked");
            assert_eq!(twin, l, "equality ignores the pack");
            check(&twin, "clone");
            let mut frozen = l.clone_frozen();
            assert!(
                std::ptr::eq(frozen.built_pack().unwrap(), l.built_pack().unwrap()),
                "a frozen copy shares the pack"
            );
            check(&frozen, "clone_frozen");
            // A write to either side un-shares: each pack follows its own
            // weights.
            frozen.edit_w(|w| w.set(0, 0, -0.5));
            check(&frozen, "edit_w of a frozen copy");
            check(&l, "edit_w of its frozen copy");
            assert!(!std::ptr::eq(
                frozen.built_pack().unwrap(),
                l.built_pack().unwrap()
            ));
            let decoded = Linear::from_parts(l.w.clone(), l.b.clone());
            assert!(!decoded.is_packed(), "decoded layers start unpacked");
            check(&decoded, "from_parts");
        }
    }

    /// A single-row forward on live weights (a training rollout's act)
    /// is the fused reference dot product plus the bias, bit for bit.
    #[test]
    fn single_row_forward_matches_fused_reference() {
        let mut rng = StdRng::seed_from_u64(10);
        for (inp, out) in SHAPES {
            let mut l = Linear::new(inp, out, &mut rng);
            l.b = (0..out).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for _ in 0..3 {
                let x = rand_mat(1, inp, &mut rng);
                let want = crate::mat::reference::matmul_nt_fused(&x, &l.w);
                let got = l.forward(&x);
                for (j, (&g, &w)) in got.row(0).iter().zip(want.row(0)).enumerate() {
                    assert_eq!(g.to_bits(), (w + l.b[j]).to_bits(), "{inp}->{out} col {j}");
                }
            }
        }
    }

    #[test]
    fn never_forwarded_layers_stay_unpacked() {
        let mut l = layer();
        let other = layer();
        l.visit_params(&mut |_, _| {});
        l.polyak_from(&other, 0.5);
        l.copy_params_from(&other);
        assert!(!l.is_packed());
        l.forward(&Mat::zeros(1, 3));
        assert!(l.is_packed());
    }
}
