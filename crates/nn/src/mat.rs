//! A minimal dense `f32` matrix for batched neural-network math.
//!
//! Row-major storage; rows index batch elements, columns index features.
//! Only the operations the training stack needs are provided — this is not a
//! general linear-algebra library.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Creates a 1-row matrix from a slice (a single observation/action).
    pub fn from_row(row: &[f32]) -> Self {
        Mat::from_vec(1, row.len(), row.to_vec())
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Replaces every non-finite entry (NaN, ±∞) with zero and returns how
    /// many entries were replaced. A no-op scan on healthy data — used as a
    /// numeric guard at network entry points so one poisoned sensor value
    /// cannot propagate through a forward or backward pass.
    pub fn sanitize_nonfinite(&mut self) -> usize {
        let mut replaced = 0;
        for v in &mut self.data {
            if !v.is_finite() {
                *v = 0.0;
                replaced += 1;
            }
        }
        replaced
    }

    /// Reshapes the matrix in place to `rows x cols`, reusing the existing
    /// allocation where possible. Element contents are unspecified after the
    /// call — callers are expected to overwrite every entry (or use
    /// [`Mat::fill`] first). Intended for scratch buffers on hot paths.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Makes `self` an element-wise copy of `other`, reusing the existing
    /// allocation where possible.
    pub fn copy_from(&mut self, other: &Mat) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Makes `self` a 1-row copy of `row` (allocation-free [`Mat::from_row`]).
    pub fn copy_from_row(&mut self, row: &[f32]) {
        self.resize(1, row.len());
        self.data.copy_from_slice(row);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` written into `out` (resized and overwritten) —
    /// allocation-free when `out`'s buffer is already large enough.
    ///
    /// Backed by the register-tiled kernel (`gemm_acc`): independent
    /// accumulators per output tile break the FP latency chain while every
    /// output element still folds its products in ascending-`k` order with
    /// one fused multiply-add per product, so results are independent of
    /// tiling and repeated calls are exactly deterministic. Note
    /// non-finite inputs propagate: `0.0 * NaN` is `NaN` here (use
    /// [`Mat::sanitize_nonfinite`] to guard entry points).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        out.fill(0.0);
        gemm_acc(
            Lhs::Rows(&self.data),
            self.rows,
            self.cols,
            other.cols,
            &other.data,
            &mut out.data,
        );
    }

    /// `acc += self^T @ other` — accumulates the weight-gradient product
    /// (`grad_out^T @ x`) directly into an existing matrix such as
    /// `grad_w`, with no temporary. The kernel reads `self^T` in place —
    /// a tile's rows at batch step `p` are contiguous in row `p` of
    /// `self` — so nothing is packed.
    ///
    /// Per output element the batch-row products accumulate in ascending
    /// order into a register starting at `+0.0` before one add folds them
    /// into `acc`, on every path, so the result is `acc + fold` bit for
    /// bit whatever `acc` holds.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `acc` is not
    /// `self.cols x other.cols`.
    pub fn matmul_tn_acc(&self, other: &Mat, acc: &mut Mat) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dims: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (acc.rows, acc.cols),
            (self.cols, other.cols),
            "matmul_tn_acc accumulator shape"
        );
        gemm_acc(
            Lhs::Cols(&self.data),
            self.cols,
            self.rows,
            other.cols,
            &other.data,
            &mut acc.data,
        );
    }

    /// Writes `self^T` into `out` (resized; reuses `out`'s buffer). This is
    /// the pack step that lets the `self @ other^T` products share the
    /// plain row-major kernel. Walked in strips of 16 source rows: each
    /// source column of a strip becomes one contiguous 16-float run of
    /// `out` (a cache line), read from 16 row streams that stay
    /// cache-resident across the sweep. The last `rows mod 16` rows are
    /// copied element by element.
    pub fn transpose_into(&self, out: &mut Mat) {
        const STRIP: usize = 16;
        out.resize(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        let mut rb = 0;
        while rb + STRIP <= rows {
            let src: [&[f32]; STRIP] =
                std::array::from_fn(|r| &self.data[(rb + r) * cols..][..cols]);
            for (c, dst) in out.data.chunks_exact_mut(rows).enumerate() {
                let dst: &mut [f32; STRIP] = (&mut dst[rb..rb + STRIP])
                    .try_into()
                    .expect("STRIP-wide run");
                for r in 0..STRIP {
                    dst[r] = src[r][c];
                }
            }
            rb += STRIP;
        }
        for r in rb..rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * rows + r] = v;
            }
        }
    }

    /// `self @ other^T + bias` (row broadcast) with a caller-supplied
    /// pre-packed transpose of `other` — every layer's forward pass (see
    /// [`crate::linear::Linear`], which keeps `other^T` as its pack).
    /// `other_t` must be `other^T` (see [`Mat::transpose_into`]).
    ///
    /// Each output element is its products folded in ascending shared
    /// order, one fused multiply-add each, starting from zero, plus the
    /// bias in one add: the tiled path seeds the output with the bias and
    /// lands every tile's register fold on top (`bias + acc` vs
    /// `acc + bias` — IEEE addition commutes bitwise), while the
    /// small-batch `nt_packed_sweep` path adds the bias after the fold.
    /// So results are independent of batch size and tiling.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch between `self`, `other`, `other_t`, or
    /// `bias`.
    pub fn matmul_nt_prepacked_bias_into(
        &self,
        other: &Mat,
        other_t: &Mat,
        bias: &[f32],
        out: &mut Mat,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dims: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (other_t.rows, other_t.cols),
            (other.cols, other.rows),
            "other_t is not other transposed"
        );
        assert_eq!(bias.len(), other.rows, "bias length");
        out.resize(self.rows, other.rows);
        if self.rows < TILE {
            nt_packed_sweep(self, other_t, bias, out);
            return;
        }
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(bias);
        }
        gemm_acc(
            Lhs::Rows(&self.data),
            self.rows,
            self.cols,
            other.rows,
            &other_t.data,
            &mut out.data,
        );
    }

    /// Element-wise in-place map.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise addition in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum over rows (bias gradients) into a reusable `cols`-length buffer
    /// (resized and overwritten). Each column starts at `0.0` and adds the rows in ascending order;
    /// the sweep runs row by row, so every pass reads contiguous memory.
    pub(crate) fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Horizontal concatenation `[self | other]` written into `out`
    /// (resized and overwritten) — allocation-free once the buffer has
    /// warmed up.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "hcat needs equal row counts");
        out.resize(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Splits columns at `at`, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.cols`.
    pub fn split_cols(&self, at: usize) -> (Mat, Mat) {
        assert!(at <= self.cols);
        let mut left = Mat::zeros(self.rows, at);
        let mut right = Mat::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Mean of all elements (e.g. of a column of losses).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// An empty `0x0` matrix — the natural seed for scratch buffers that are
/// resized on first use.
impl Default for Mat {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

/// Row height of the smallest multi-row GEMM tile (also the minimum
/// operand extent for the pack-and-tile paths to pay off).
pub const TILE: usize = 4;

/// Whether the target has 512-bit vectors. The target's `avx512f`
/// feature fixes it at compile time; it picks the interior tile shape
/// and nothing else.
const WIDE: bool = cfg!(target_feature = "avx512f");

/// Row height of the interior GEMM tile. A 6 × 64 tile keeps 24 of
/// AVX-512's 32 vector registers as accumulators; narrower vector units
/// keep 4 × 32, which a 6 × 64 tile would spill.
const MR: usize = if WIDE { 6 } else { TILE };

/// Column width of the GEMM micro-kernel: four 16-lane vectors per row on
/// AVX-512, two otherwise.
const NTILE: usize = if WIDE { 64 } else { 32 };

thread_local! {
    /// The zero-padded remainder strip of [`gemm_acc`]. Thread-local so
    /// parallel experiment workers never contend; its capacity persists
    /// across calls, so steady-state padding allocates nothing.
    static PAD: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Widest output [`gemm_acc`] walks in tall [`TALL`]-row tiles — the
/// critic heads (1 column) and policy heads (`2 * action_dim` ≤ 4). Also
/// the narrow strip width of [`nt_packed_sweep`].
const NARROW: usize = 4;

/// Row height of the tall tile for outputs at most [`NARROW`] columns
/// wide: sixteen independent accumulator chains per column, where a
/// few-row tile would leave the FMA pipes waiting on a handful.
const TALL: usize = 16;

/// The left operand of [`gemm_acc`], logically `m x k`.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// Stored row-major as `m x k`.
    Rows(&'a [f32]),
    /// Stored row-major as `k x m` and read as its transpose in place: at
    /// step `p` a tile's rows are contiguous in row `p` (the `grad_outᵀ`
    /// of [`Mat::matmul_tn_acc`]), so the product needs no pack.
    Cols(&'a [f32]),
}

impl Lhs<'_> {
    fn len(self) -> usize {
        match self {
            Lhs::Rows(a) | Lhs::Cols(a) => a.len(),
        }
    }
}

/// `out += a @ b` for a logical `m x k` left operand (see [`Lhs`]) and
/// row-major `k x n` / `m x n` slices — the one GEMM kernel every
/// multi-row matmul variant funnels into.
///
/// Every output element is produced by the same micro-kernel
/// ([`Gemm::fold`]): its products fold in ascending-`k` order into a
/// register accumulator that starts at `+0.0`, one explicit
/// `f32::mul_add` per product (one rounding, the same on every ISA), and
/// then one add lands the accumulator on `out`. Only the tile shape varies, never the fold, so
/// results are independent of tiling and batch width and bit-identical
/// run to run:
///
/// - rows walk in [`MR`]-row tiles (after [`TALL`]-row ones when
///   `n ≤` [`NARROW`]), then [`TILE`]-row tiles, then 1-row tiles;
/// - columns walk in [`NTILE`]-wide strips read straight from `b`; the
///   `n mod NTILE` columns left over are first copied into a zero-padded
///   strip of [`NTILE`] lanes ([`NARROW`] for narrow outputs) and run
///   through the same micro-kernel, whose padding lanes are discarded.
///
/// Shape checks are `debug_assert!` only — the public `Mat` methods have
/// already validated dimensions.
fn gemm_acc(a: Lhs<'_>, m: usize, k: usize, n: usize, b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "gemm_acc: a is not m x k");
    debug_assert_eq!(b.len(), k * n, "gemm_acc: b is not k x n");
    debug_assert_eq!(out.len(), m * n, "gemm_acc: out is not m x n");
    if k == 0 || n == 0 {
        return;
    }
    let j_pad = n - n % NTILE;
    let w = match n - j_pad {
        0 => 0,
        _ if n <= NARROW => NARROW,
        _ => NTILE,
    };
    PAD.with(|pad| {
        let pad = &mut *pad.borrow_mut();
        if w > 0 {
            pad.clear();
            for brow in b.chunks_exact(n) {
                pad.extend_from_slice(&brow[j_pad..]);
                pad.resize(pad.len() + w - (n - j_pad), 0.0);
            }
        }
        let g = Gemm {
            a,
            m,
            k,
            n,
            b,
            pad,
            w,
        };
        let mut i = 0;
        if n <= NARROW {
            while i + TALL <= m {
                g.padded::<TALL, NARROW>(i, out);
                i += TALL;
            }
        }
        while i + MR <= m {
            g.row_block::<MR>(i, out);
            i += MR;
        }
        // Empty when `MR == TILE`.
        while i + TILE <= m {
            g.row_block::<TILE>(i, out);
            i += TILE;
        }
        while i < m {
            g.row_block::<1>(i, out);
            i += 1;
        }
    });
}

/// One [`gemm_acc`] call's operands, with the padded remainder strip
/// (`k x w`; `w == 0` when `n` is a multiple of [`NTILE`]).
struct Gemm<'a> {
    a: Lhs<'a>,
    m: usize,
    k: usize,
    n: usize,
    b: &'a [f32],
    pad: &'a [f32],
    w: usize,
}

impl Gemm<'_> {
    /// Output rows `i..i + R`, every column: the [`NTILE`] strips, then
    /// the padded remainder.
    #[inline(always)]
    fn row_block<const R: usize>(&self, i: usize, out: &mut [f32]) {
        let n = self.n;
        let j_pad = n - n % NTILE;
        let mut j = 0;
        while j < j_pad {
            // Full strips land through fixed-size rows: with every index
            // constant, the inlined tile stays in registers.
            let c = self.fold::<R, NTILE>(i, self.b, n, j);
            for (r, cr) in c.iter().enumerate() {
                let dst: &mut [f32; NTILE] = (&mut out[(i + r) * n + j..][..NTILE])
                    .try_into()
                    .expect("NTILE-wide strip");
                for t in 0..NTILE {
                    dst[t] += cr[t];
                }
            }
            j += NTILE;
        }
        match self.w {
            0 => {}
            NARROW => self.padded::<R, NARROW>(i, out),
            _ => self.padded::<R, NTILE>(i, out),
        }
    }

    /// Rows `i..i + R` of the `n mod NTILE` remainder columns, folded over
    /// the `W`-lane padded strip; only the real lanes land on `out`.
    ///
    /// The real lanes are staged through a `W`-wide copy of the output so
    /// the tile lands as in [`Gemm::row_block`], with constant indices,
    /// and its accumulators stay in registers. Landing it on `out`
    /// directly, whose width varies, pins the tile to memory; so does
    /// returning the fold from an out-of-line call, for a 6 × 64 tile.
    #[inline(always)]
    fn padded<const R: usize, const W: usize>(&self, i: usize, out: &mut [f32]) {
        let n = self.n;
        let j_pad = n - n % NTILE;
        let c = self.fold::<R, W>(i, self.pad, W, 0);
        let mut staged = [[0.0f32; W]; R];
        for (r, st) in staged.iter_mut().enumerate() {
            let dst = &out[(i + r) * n + j_pad..(i + r + 1) * n];
            st[..dst.len()].copy_from_slice(dst);
        }
        for (st, cr) in staged.iter_mut().zip(&c) {
            for t in 0..W {
                st[t] += cr[t];
            }
        }
        for (r, st) in staged.iter().enumerate() {
            let dst = &mut out[(i + r) * n + j_pad..(i + r + 1) * n];
            let width = dst.len();
            dst.copy_from_slice(&st[..width]);
        }
    }

    /// The micro-kernel: an `R x W` register tile over rows `i..i + R` of
    /// `a` and the `W`-lane strip at column `jb` of the row-major `k x ldb`
    /// matrix `src` (`b` itself or the padded strip). Every lane folds its
    /// products in ascending `k` from `+0.0`.
    #[inline(always)]
    fn fold<const R: usize, const W: usize>(
        &self,
        i: usize,
        src: &[f32],
        ldb: usize,
        jb: usize,
    ) -> [[f32; W]; R] {
        let (m, k) = (self.m, self.k);
        let mut c = [[0.0f32; W]; R];
        match self.a {
            Lhs::Rows(a) => {
                // R row slices of exactly k elements: `p < k` keeps the
                // loads below free of bounds checks.
                let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
                for (p, brow) in (0..k).zip(src.chunks_exact(ldb)) {
                    let bp: &[f32; W] = brow[jb..jb + W].try_into().expect("W-wide strip");
                    let xs: [f32; R] = std::array::from_fn(|r| rows[r][p]);
                    for t in 0..W {
                        for r in 0..R {
                            c[r][t] = xs[r].mul_add(bp[t], c[r][t]);
                        }
                    }
                }
            }
            Lhs::Cols(a) => {
                for (arow, brow) in a.chunks_exact(m).zip(src.chunks_exact(ldb)) {
                    let xs: &[f32; R] = arow[i..i + R].try_into().expect("R-row tile");
                    let bp: &[f32; W] = brow[jb..jb + W].try_into().expect("W-wide strip");
                    for t in 0..W {
                        for r in 0..R {
                            c[r][t] = xs[r].mul_add(bp[t], c[r][t]);
                        }
                    }
                }
            }
        }
        c
    }
}

/// Column width of the widest register strip of [`nt_packed_sweep`]: 64
/// accumulators (four 16-lane vectors) per broadcast input element.
const STRIP: usize = 64;

/// Small-batch `self @ other^T + bias` against the pre-packed `other^T`
/// (`k x n`, row-major): each input element is broadcast across a strip
/// of contiguous packed weights, so every strip lane is its own
/// ascending-`k` fused chain and the loads are unit-stride. Columns walk
/// in fixed-width strips of 64, then 4 and 1 (narrow policy heads), each
/// held in registers. The bias lands after the fold, so outputs are
/// bit-identical to the tiled path's.
fn nt_packed_sweep(a: &Mat, other_t: &Mat, bias: &[f32], out: &mut Mat) {
    let n = other_t.cols;
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        let mut j = 0;
        while j + STRIP <= n {
            sweep_strip::<STRIP>(a_row, &other_t.data, n, j, bias, out_row);
            j += STRIP;
        }
        while j + NARROW <= n {
            sweep_strip::<NARROW>(a_row, &other_t.data, n, j, bias, out_row);
            j += NARROW;
        }
        while j < n {
            sweep_strip::<1>(a_row, &other_t.data, n, j, bias, out_row);
            j += 1;
        }
    }
}

/// One `W`-wide column strip `j..j + W` of [`nt_packed_sweep`]'s output
/// row: `out[t] = (sum_p a_row[p] * other_t[p][j + t]) + bias[j + t]`,
/// folded in ascending `p`.
#[inline(always)]
fn sweep_strip<const W: usize>(
    a_row: &[f32],
    other_t: &[f32],
    n: usize,
    j: usize,
    bias: &[f32],
    out_row: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (&x, w_row) in a_row.iter().zip(other_t.chunks_exact(n)) {
        let wp: &[f32; W] = w_row[j..j + W].try_into().expect("W-wide strip");
        for t in 0..W {
            acc[t] = x.mul_add(wp[t], acc[t]);
        }
    }
    for ((o, &c), &b) in out_row[j..j + W].iter_mut().zip(&acc).zip(&bias[j..j + W]) {
        *o = c + b;
    }
}

/// Naive reference kernels the fast paths are property-tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::Mat;

    /// `a @ b` with the fast kernels' per-element fold: ascending `k`, one
    /// fused multiply-add per product, starting from zero.
    pub fn matmul_fused(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc = a.get(i, p).mul_add(b.get(p, j), acc);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Textbook `a @ b^T`.
    pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(j, p);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `a @ b^T` with the fast kernels' per-element fold: ascending `k`,
    /// one fused multiply-add per product, starting from zero.
    pub fn matmul_nt_fused(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc = a.get(i, p).mul_add(b.get(j, p), acc);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// [`matmul_nt_fused`] plus `bias` on every row, in one add per
    /// element after the fold.
    pub fn matmul_nt_bias_fused(a: &Mat, b: &Mat, bias: &[f32]) -> Mat {
        let mut out = matmul_nt_fused(a, b);
        for r in 0..out.rows() {
            for (o, &c) in out.row_mut(r).iter_mut().zip(bias) {
                *o += c;
            }
        }
        out
    }

    /// `acc + a^T @ b` with the fused fold: each element's products fold
    /// from zero in ascending batch order, then one add lands the fold on
    /// `acc`.
    pub fn matmul_tn_acc_fused(a: &Mat, b: &Mat, acc: &Mat) -> Mat {
        let mut out = acc.clone();
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut sum = 0.0f32;
                for p in 0..a.rows() {
                    sum = a.get(p, i).mul_add(b.get(p, j), sum);
                }
                out.set(i, j, out.get(i, j) + sum);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::default();
        a.matmul_into(b, &mut out);
        out
    }

    fn matmul_tn(a: &Mat, b: &Mat) -> Mat {
        let mut acc = Mat::zeros(a.cols(), b.cols());
        a.matmul_tn_acc(b, &mut acc);
        acc
    }

    /// `a @ b^T + bias` through a fresh pack of `b^T`.
    fn prepacked(a: &Mat, b: &Mat, bias: &[f32]) -> Mat {
        let mut bt = Mat::default();
        b.transpose_into(&mut bt);
        let mut out = Mat::default();
        a.matmul_nt_prepacked_bias_into(b, &bt, bias, &mut out);
        out
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn prepacked_nt_equals_explicit_transpose() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let bt = {
            let mut t = Mat::zeros(3, 4);
            for r in 0..4 {
                for c in 0..3 {
                    t.set(c, r, b.get(r, c));
                }
            }
            t
        };
        assert_eq!(prepacked(&a, &b, &[0.0; 4]), matmul(&a, &bt));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Mat::from_vec(4, 2, (0..8).map(|i| i as f32).collect());
        let b = Mat::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.5).collect());
        let at = {
            let mut t = Mat::zeros(2, 4);
            for r in 0..4 {
                for c in 0..2 {
                    t.set(c, r, a.get(r, c));
                }
            }
            t
        };
        assert_eq!(matmul_tn(&a, &b), matmul(&at, &b));
    }

    #[test]
    fn sum_rows_into_sums_columns_into_a_dirty_buffer() {
        let m = Mat::from_vec(3, 2, vec![1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        let mut out = vec![9.9; 5];
        m.sum_rows_into(&mut out);
        assert_eq!(out, vec![3.0, -6.0]);
    }

    #[test]
    fn hcat_and_split_round_trip() {
        let a = Mat::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Mat::from_vec(2, 1, vec![5., 6.]);
        let mut c = Mat::default();
        a.hcat_into(&b, &mut c);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1., 2., 5.]);
        let (l, r) = c.split_cols(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn map_and_mean() {
        let mut m = Mat::from_vec(1, 4, vec![1., 2., 3., 4.]);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn from_row_is_single_row() {
        let m = Mat::from_row(&[1.0, 2.0]);
        assert_eq!((m.rows(), m.cols()), (1, 2));
    }

    /// Regression for the removed zero-skip: IEEE-754 says `0.0 * NaN` is
    /// `NaN`, but the old `if a == 0.0 { continue }` branch silently
    /// dropped the product, masking poisoned operands. The kernels must
    /// surface the NaN so `sanitize_nonfinite` can catch it downstream.
    #[test]
    fn matmul_propagates_nan_through_zero_coefficients() {
        let a = Mat::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Mat::from_vec(2, 1, vec![f32::NAN, 2.0]);
        let mut c = matmul(&a, &b);
        assert!(c.get(0, 0).is_nan(), "0.0 * NaN must propagate in matmul");

        let t = Mat::from_vec(2, 1, vec![0.0, 1.0]);
        let g = Mat::from_vec(2, 1, vec![f32::NAN, 3.0]);
        let d = matmul_tn(&t, &g);
        assert!(
            d.get(0, 0).is_nan(),
            "0.0 * NaN must propagate in matmul_tn"
        );

        // The numeric guard then catches what the kernel surfaced.
        assert_eq!(c.sanitize_nonfinite(), 1);
        assert_eq!(c.data(), &[0.0]);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let a = Mat::from_vec(3, 5, (0..15).map(|i| (i as f32) * 0.37 - 2.0).collect());
        let b = Mat::from_vec(5, 4, (0..20).map(|i| (i as f32) * -0.21 + 1.5).collect());
        let w = Mat::from_vec(4, 5, (0..20).map(|i| (i as f32) * 0.11).collect());
        let mut wt = Mat::default();
        w.transpose_into(&mut wt);
        let bias = [0.5, -0.25, 0.0, 1.0];

        // Deliberately mis-shaped, dirty scratch buffers: `_into` must
        // resize and fully overwrite them.
        let mut out = Mat::from_vec(1, 2, vec![9.9, -9.9]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, reference::matmul_fused(&a, &b));

        a.matmul_nt_prepacked_bias_into(&w, &wt, &bias, &mut out);
        assert_eq!(out, reference::matmul_nt_bias_fused(&a, &w, &bias));
    }

    #[test]
    fn matmul_tn_acc_accumulates_on_top() {
        let a = Mat::from_vec(3, 2, (0..6).map(|i| i as f32).collect());
        let g = Mat::from_vec(3, 4, (0..12).map(|i| (i as f32) * 0.5).collect());
        let mut acc = matmul_tn(&a, &g);
        let once = acc.clone();
        a.matmul_tn_acc(&g, &mut acc);
        for (twice, one) in acc.data().iter().zip(once.data()) {
            assert_eq!(*twice, one * 2.0);
        }
    }

    #[test]
    fn resize_and_copy_helpers_reuse_buffers() {
        let mut m = Mat::zeros(2, 3);
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        m.fill(7.0);
        assert!(m.data().iter().all(|&v| v == 7.0));

        let src = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.copy_from_row(&[4.0, 5.0]);
        assert_eq!((m.rows(), m.cols()), (1, 2));
        assert_eq!(m.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn transpose_into_round_trips() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut t = Mat::from_vec(1, 1, vec![9.9]); // dirty, mis-shaped
        a.transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        let mut back = Mat::default();
        t.transpose_into(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn hcat_into_overwrites_a_dirty_buffer() {
        let a = Mat::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Mat::from_vec(2, 1, vec![5., 6.]);
        let mut out = Mat::from_vec(3, 3, vec![7.0; 9]);
        a.hcat_into(&b, &mut out);
        assert_eq!(out, Mat::from_vec(2, 3, vec![1., 2., 5., 3., 4., 6.]));
    }

    /// Repeated calls that reuse the same scratch buffers must be exactly
    /// deterministic: the blocked kernels' FP accumulation order depends
    /// only on shapes, never on buffer history.
    #[test]
    fn repeated_calls_with_same_scratch_are_bit_identical() {
        let a = Mat::from_vec(
            9,
            13,
            (0..117).map(|i| ((i * 37) % 19) as f32 - 9.0).collect(),
        );
        let b = Mat::from_vec(
            13,
            6,
            (0..78).map(|i| ((i * 11) % 23) as f32 * 0.25).collect(),
        );
        let bt = {
            let mut t = Mat::default();
            b.transpose_into(&mut t);
            t
        };
        let bias = vec![0.0f32; 6];
        let mut out = Mat::default();
        a.matmul_into(&b, &mut out);
        let first = out.clone();
        let mut nt_out = Mat::default();
        a.matmul_nt_prepacked_bias_into(&bt, &b, &bias, &mut nt_out);
        let nt_first = nt_out.clone();
        let mut acc = Mat::zeros(13, 6);
        a.matmul_tn_acc(&nt_out, &mut acc);
        let acc_first = acc.clone();
        for _ in 0..3 {
            a.matmul_into(&b, &mut out);
            assert_eq!(out, first);
            a.matmul_nt_prepacked_bias_into(&bt, &b, &bias, &mut nt_out);
            assert_eq!(nt_out, nt_first);
            acc.fill(0.0);
            a.matmul_tn_acc(&nt_out, &mut acc);
            assert_eq!(acc, acc_first);
        }
    }

    /// Output widths at the edges of the single-row sweep's column
    /// strips: [`NARROW`] and [`STRIP`] multiples, their
    /// neighbours, and widths that mix every strip size.
    const EDGE_NS: [usize; 10] = [1, 2, 4, 15, 16, 17, 63, 64, 65, 129];
    /// Input widths: tiny, odd, the observation and the hidden width.
    const EDGE_KS: [usize; 4] = [1, 7, 60, 128];

    /// The pre-packed bias-fused product must be bit-identical to the
    /// fused reference fold plus the bias across the kernel's regimes:
    /// the small-batch sweep (`nt_packed_sweep`, m < TILE) at every strip
    /// edge, the tiled interior, and row/column remainders (m % TILE,
    /// n % NTILE, n < NTILE).
    #[test]
    fn prepacked_bias_matches_fused_reference_bit_exactly() {
        let mut shapes = vec![
            (4usize, 60usize, 128usize), // pure tiled interior
            (128, 60, 128),              // inference layer shape
            (128, 128, 4),               // n < NTILE: all row-tail
            (6, 17, 37),                 // row and column remainders
            (5, 1, 33),                  // k = 1, column remainder
        ];
        for m in 1..TILE {
            for k in EDGE_KS {
                for n in EDGE_NS {
                    shapes.push((m, k, n));
                }
            }
        }
        for (m, k, n) in shapes {
            let a = Mat::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| ((i * 29) % 41) as f32 * 0.173 - 3.0)
                    .collect(),
            );
            let b = Mat::from_vec(
                n,
                k,
                (0..n * k)
                    .map(|i| ((i * 17) % 31) as f32 * -0.091 + 1.2)
                    .collect(),
            );
            let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 5.0).collect();
            let mut bt = Mat::default();
            b.transpose_into(&mut bt);

            let want = reference::matmul_nt_bias_fused(&a, &b, &bias);

            let mut got = Mat::from_vec(1, 2, vec![9.9, -9.9]); // dirty scratch
            a.matmul_nt_prepacked_bias_into(&b, &bt, &bias, &mut got);
            assert_eq!((got.rows(), got.cols()), (m, n));
            for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "({m}x{k}x{n})[{i}]: prepacked {g} vs reference {w}"
                );
            }
        }
    }

    /// Rows of a single-row product equal the same rows computed inside a
    /// tiled batch, bit for bit, at every strip edge, and both equal the
    /// fused reference fold plus the bias.
    #[test]
    fn small_batch_rows_match_tiled_batch_rows_bit_exactly() {
        for k in EDGE_KS {
            for n in EDGE_NS {
                let wide = Mat::from_vec(
                    9,
                    k,
                    (0..9 * k)
                        .map(|i| ((i * 23) % 37) as f32 * 0.211 - 3.5)
                        .collect(),
                );
                let b = Mat::from_vec(
                    n,
                    k,
                    (0..n * k)
                        .map(|i| ((i * 13) % 29) as f32 * -0.077 + 1.1)
                        .collect(),
                );
                let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.29 - 2.0).collect();
                let mut bt = Mat::default();
                b.transpose_into(&mut bt);
                let mut batched = Mat::default();
                wide.matmul_nt_prepacked_bias_into(&b, &bt, &bias, &mut batched);
                for m in 1..TILE {
                    let a = Mat::from_vec(m, k, wide.data()[..m * k].to_vec());
                    let fused = reference::matmul_nt_bias_fused(&a, &b, &bias);
                    let mut packed = Mat::default();
                    a.matmul_nt_prepacked_bias_into(&b, &bt, &bias, &mut packed);
                    for (i, (p, f)) in packed.data().iter().zip(fused.data()).enumerate() {
                        assert_eq!(p.to_bits(), f.to_bits(), "({m}x{k}x{n})[{i}] fused");
                    }
                    for (i, (p, w)) in packed.data().iter().zip(batched.data()).enumerate() {
                        assert_eq!(p.to_bits(), w.to_bits(), "({m}x{k}x{n})[{i}] packed");
                    }
                }
            }
        }
    }

    #[test]
    fn sanitize_nonfinite_zeroes_only_bad_entries() {
        let mut m = Mat::from_vec(
            1,
            5,
            vec![1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -2.0],
        );
        assert_eq!(m.sanitize_nonfinite(), 3);
        assert_eq!(m.data(), &[1.0, 0.0, 0.0, 0.0, -2.0]);
        // Healthy data is untouched.
        assert_eq!(m.sanitize_nonfinite(), 0);
    }

    mod properties {
        use super::super::{reference, Mat};
        use proptest::prelude::*;
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestCaseError;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// A random matrix cycling through the drawn seed values.
        fn mat(rows: usize, cols: usize, seed: &[f32]) -> Mat {
            let data = (0..rows * cols)
                .map(|i| seed[i % seed.len()])
                .collect::<Vec<_>>();
            Mat::from_vec(rows, cols, data)
        }

        /// `(m, k, n)`: half the cases draw every dimension from `1..=96`
        /// (pure-remainder shapes up to multi-tile interiors), the other
        /// half a training or tile-edge shape — any `k` up to 128, an
        /// output height from the training batch (128) or around the
        /// tile heights (6 × 64 interior, 4-row and 1-row tails), and an
        /// output width from the heads (1, 2, 4), the observation and
        /// critic inputs (60, 61, 62), the hidden layer (128) or around
        /// the 64-lane strip edges.
        struct Dims;

        impl Strategy for Dims {
            type Value = (usize, usize, usize);
            fn sample_value(&self, rng: &mut StdRng) -> Self::Value {
                if rng.gen::<bool>() {
                    (
                        rng.gen_range(1..=96),
                        rng.gen_range(1..=96),
                        rng.gen_range(1..=96),
                    )
                } else {
                    const MS: [usize; 6] = [6, 7, 12, 64, 127, 128];
                    const NS: [usize; 12] = [1, 2, 4, 60, 61, 62, 63, 64, 65, 127, 128, 129];
                    (
                        MS[rng.gen_range(0..MS.len())],
                        rng.gen_range(1..=128),
                        NS[rng.gen_range(0..NS.len())],
                    )
                }
            }
        }

        fn values() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
            (
                proptest::collection::vec(-8.0f32..8.0, 7..=31),
                proptest::collection::vec(-8.0f32..8.0, 7..=31),
            )
        }

        fn assert_bits(fast: &Mat, fused: &Mat, what: &str) -> Result<(), TestCaseError> {
            prop_assert_eq!((fast.rows(), fast.cols()), (fused.rows(), fused.cols()));
            for (i, (&f, &r)) in fast.data().iter().zip(fused.data()).enumerate() {
                prop_assert!(
                    f.to_bits() == r.to_bits(),
                    "{what}[{i}]: fast {f} vs fused {r}"
                );
            }
            Ok(())
        }

        fn assert_close(fast: &Mat, naive: &Mat, what: &str) {
            assert_eq!((fast.rows(), fast.cols()), (naive.rows(), naive.cols()));
            for (i, (&f, &n)) in fast.data().iter().zip(naive.data()).enumerate() {
                let tol = 1e-4 * n.abs().max(1.0);
                assert!((f - n).abs() <= tol, "{what}[{i}]: fast {f} vs naive {n}");
            }
        }

        proptest! {
            /// The tiled kernel equals the fused reference fold bit for
            /// bit — a kernel that reordered or split any element's sum
            /// would fail here.
            #[test]
            fn tiled_matmul_matches_fused_reference((m, k, n) in Dims, (sa, sb) in values()) {
                let a = mat(m, k, &sa);
                let b = mat(k, n, &sb);
                let mut out = Mat::default();
                a.matmul_into(&b, &mut out);
                let fused = reference::matmul_fused(&a, &b);
                assert_bits(&out, &fused, "matmul")?;
            }

            /// The pre-packed, bias-fused NT product equals the fused
            /// reference fold plus the bias bit for bit, including the
            /// small-batch direct path (`m < TILE`).
            #[test]
            fn matmul_nt_matches_fused_reference((m, k, n) in Dims, (sa, sb) in values()) {
                let a = mat(m, k, &sa);
                let b = mat(n, k, &sb);
                let bias: Vec<f32> = (0..n).map(|j| sa[j % sa.len()] * 0.5).collect();
                let biased = reference::matmul_nt_bias_fused(&a, &b, &bias);
                assert_bits(&super::prepacked(&a, &b, &bias), &biased, "prepacked")?;
            }

            /// Single-row products at the strip edges: the packed sweep
            /// equals the fused reference fold bit for bit and stays within
            /// tolerance of the unfused naive loop.
            #[test]
            fn small_batch_nt_kernels_match_fused_reference(
                (m, ki, ni) in (1usize..=3, 0usize..4, 0usize..10),
                (sa, sb) in values(),
            ) {
                let (k, n) = (super::EDGE_KS[ki], super::EDGE_NS[ni]);
                let a = mat(m, k, &sa);
                let b = mat(n, k, &sb);
                let fused = reference::matmul_nt_fused(&a, &b);
                let packed = super::prepacked(&a, &b, &vec![0.0f32; n]);
                assert_close(&packed, &reference::matmul_nt(&a, &b), "packed");
                for (&p, &f) in packed.data().iter().zip(fused.data()) {
                    prop_assert_eq!(p.to_bits(), (f + 0.0).to_bits());
                }
            }

            /// The strip transpose equals the naive element loop, into a
            /// dirty, mis-shaped buffer; every element is distinct.
            #[test]
            fn transpose_into_matches_naive_loop((rows, cols) in (1usize..=96, 1usize..=96)) {
                let a = Mat::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect());
                let mut t = Mat::from_vec(1, 2, vec![9.9, -9.9]);
                a.transpose_into(&mut t);
                prop_assert_eq!((t.rows(), t.cols()), (cols, rows));
                for r in 0..rows {
                    for c in 0..cols {
                        prop_assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits());
                    }
                }
            }

            /// The TN accumulation lands the fused fold on a non-zero
            /// accumulator in one add, bit for bit, on every kernel path.
            #[test]
            fn matmul_tn_acc_matches_fused_reference((m, k, n) in Dims, (sa, sb) in values()) {
                let a = mat(k, m, &sa);
                let b = mat(k, n, &sb);
                let base = mat(m, n, &sb);
                let mut acc = base.clone();
                a.matmul_tn_acc(&b, &mut acc);
                let fused = reference::matmul_tn_acc_fused(&a, &b, &base);
                assert_bits(&acc, &fused, "matmul_tn_acc")?;
            }
        }
    }
}
