//! Frozen-policy inference through pre-packed weights, at every batch
//! size.
//!
//! [`BatchPolicy`] is the one frozen-policy type shared by serial
//! evaluation (the end-to-end victims and learned attackers, one
//! observation per control step), the fleet simulation driver and the
//! serving layer (`drive-serve` micro-batching). It packs the trunk's
//! transposed weights once, so each forward pass is a single bias-fused
//! product per layer with no per-call transpose: a broadcast sweep over
//! the packs for fewer than [`crate::mat::TILE`] rows, the register-tiled
//! GEMM above. Outputs are bit-identical to [`GaussianPolicy::act_with`]
//! and [`GaussianPolicy::act_batch_with`] — packing and batching change
//! throughput, never numerics.
//!
//! Three call styles cover the consumers:
//! - [`BatchPolicy::act_with`]: one observation, deterministic or sampled
//!   (serial evaluation — a drop-in for [`GaussianPolicy::act_with`],
//!   RNG draws included).
//! - [`BatchPolicy::act_batch`]: gather from observation slices (the
//!   serving layer's shape — requests arrive as independent vectors).
//! - [`BatchPolicy::stage`] + [`BatchPolicy::infer_staged`]: write rows
//!   directly into the staging matrix (the fleet driver's shape — the
//!   feature extractor writes each live episode's observation in place,
//!   no intermediate copy).

use crate::gaussian::{act_head, squash_mean_rows, stage_obs_rows, GaussianPolicy};
use crate::mat::Mat;
use crate::mlp::Mlp;
use crate::scratch::{ActScratch, BatchActScratch};
use rand::Rng;
use std::sync::Arc;

/// A frozen [`GaussianPolicy`] with pre-packed weights.
///
/// The packs are a pure layout cache over the shared policy: the `Arc`
/// guarantees the weights cannot mutate while this wrapper is alive, so
/// the packs never go stale. Both the policy and the packs sit behind an
/// `Arc`, so a clone costs O(1) — callers pack once per evaluation cell
/// and hand clones to per-episode agents and attackers.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    policy: Arc<GaussianPolicy>,
    packs: Arc<[Mat]>,
}

impl From<GaussianPolicy> for BatchPolicy {
    fn from(policy: GaussianPolicy) -> Self {
        BatchPolicy::new(Arc::new(policy))
    }
}

impl BatchPolicy {
    /// Packs the policy's transposed weights once.
    pub fn new(policy: Arc<GaussianPolicy>) -> Self {
        let packs = policy.trunk().pack_weights().into();
        BatchPolicy { policy, packs }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &Arc<GaussianPolicy> {
        &self.policy
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.policy.obs_dim()
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.policy.action_dim()
    }

    /// Single-observation action through the packs, with the scratch's
    /// reusable buffers: `tanh(mean)` when `deterministic`, otherwise a
    /// sample. Bit-identical to [`GaussianPolicy::act_with`] in both
    /// modes, with the same RNG draws, and allocation-free once the
    /// scratch has warmed up.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        act_prepacked(
            self.policy.trunk(),
            &self.packs,
            self.action_dim(),
            obs,
            rng,
            deterministic,
            s,
        )
    }

    /// Resizes the scratch's staging matrix to `(batch, obs_dim)` and
    /// returns it for the caller to fill row by row (contents are
    /// unspecified until every row is written). Follow with
    /// [`BatchPolicy::infer_staged`].
    pub fn stage<'s>(&self, batch: usize, s: &'s mut BatchActScratch) -> &'s mut Mat {
        s.obs.resize(batch, self.obs_dim());
        &mut s.obs
    }

    /// Runs one forward pass over the staged observation rows, returning
    /// the `(batch, action_dim)` matrix of `tanh(mean)` actions. Row `b`
    /// is bit-identical to serial `act_with(row_b, .., true, ..)`.
    pub fn infer_staged<'s>(&self, s: &'s mut BatchActScratch) -> &'s Mat {
        let BatchActScratch {
            obs: obs_m,
            trunk,
            actions,
        } = s;
        debug_assert_eq!(obs_m.cols(), self.obs_dim(), "stage() before infer");
        let raw = self
            .policy
            .trunk()
            .forward_prepacked_with(&self.packs, obs_m, trunk);
        squash_mean_rows(raw, self.action_dim(), actions);
        actions
    }

    /// Gather-style batched inference: stacks `obs` into the staging
    /// matrix and runs [`BatchPolicy::infer_staged`]. Bit-identical to
    /// [`GaussianPolicy::act_batch_with`] while skipping its per-call
    /// weight packs.
    ///
    /// # Panics
    ///
    /// Panics if any observation slice is not `obs_dim` long.
    pub fn act_batch<'s>(&self, obs: &[&[f32]], s: &'s mut BatchActScratch) -> &'s Mat {
        stage_obs_rows(obs, self.obs_dim(), &mut s.obs);
        self.infer_staged(s)
    }
}

/// Single-observation act of a Gaussian-headed `trunk` through its packs
/// (from [`Mlp::pack_weights`]) — shared by [`BatchPolicy::act_with`] and
/// the progressive policy's base column.
pub(crate) fn act_prepacked<'s, R: Rng>(
    trunk: &Mlp,
    packs: &[Mat],
    action_dim: usize,
    obs: &[f32],
    rng: &mut R,
    deterministic: bool,
    s: &'s mut ActScratch,
) -> &'s [f32] {
    let ActScratch {
        obs: obs_m,
        trunk: bufs,
        action,
        ..
    } = s;
    obs_m.copy_from_row(obs);
    let raw = trunk.forward_prepacked_with(packs, obs_m, bufs);
    act_head(raw.row(0), action_dim, rng, deterministic, action);
    action
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::randn_f32;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn policy() -> Arc<GaussianPolicy> {
        let mut rng = StdRng::seed_from_u64(5);
        Arc::new(GaussianPolicy::new(4, &[16], 2, &mut rng))
    }

    /// The pre-packed batch path must match the unpacked
    /// `act_batch_with` BIT-FOR-BIT across batch sizes on both sides of
    /// the GEMM row-tile boundary, sharing one scratch across growing and
    /// shrinking batches.
    #[test]
    fn batch_policy_bit_identical_to_act_batch_with() {
        let p = policy();
        let bp = BatchPolicy::new(p.clone());
        let mut packed_s = BatchActScratch::default();
        let mut plain_s = BatchActScratch::default();
        let mut rng = StdRng::seed_from_u64(11);
        for &batch in &[1usize, 3, 4, 5, 9, 64, 2] {
            let obs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..4).map(|_| randn_f32(&mut rng) * 2.0).collect())
                .collect();
            let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
            let packed = bp.act_batch(&refs, &mut packed_s);
            let plain = p.act_batch_with(&refs, &mut plain_s);
            assert_eq!((packed.rows(), packed.cols()), (batch, 2));
            for b in 0..batch {
                for (i, (&got, &want)) in packed.row(b).iter().zip(plain.row(b)).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "batch {batch} row {b} dim {i}: packed {got} vs plain {want}"
                    );
                }
            }
        }
    }

    /// Writing rows into the staging matrix directly must equal the
    /// gather-style entry — the fleet driver fills rows in place.
    #[test]
    fn staged_entry_matches_gather_entry() {
        let p = policy();
        let bp = BatchPolicy::new(p);
        let mut s1 = BatchActScratch::default();
        let mut s2 = BatchActScratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        for &batch in &[6usize, 1, 17] {
            let obs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..4).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                .collect();
            let stage = bp.stage(batch, &mut s1);
            for (b, o) in obs.iter().enumerate() {
                stage.row_mut(b).copy_from_slice(o);
            }
            let staged = bp.infer_staged(&mut s1).clone();
            let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
            let gathered = bp.act_batch(&refs, &mut s2);
            assert_eq!(&staged, gathered);
        }
    }

    /// The single-observation packed act is a drop-in for
    /// `GaussianPolicy::act_with` in both modes: identical action bits
    /// AND identical RNG consumption, across scratch reuse, for a driving
    /// head (2-d) and an attacker head (1-d) at the deployed widths.
    #[test]
    fn act_with_matches_policy_act_with_and_rng_stream() {
        let mut init = StdRng::seed_from_u64(8);
        for action_dim in [2usize, 1] {
            let p = Arc::new(GaussianPolicy::new(60, &[128, 128], action_dim, &mut init));
            let bp = BatchPolicy::from((*p).clone());
            let mut packed_s = ActScratch::default();
            let mut plain_s = ActScratch::default();
            for deterministic in [true, false] {
                let mut r1 = StdRng::seed_from_u64(33);
                let mut r2 = StdRng::seed_from_u64(33);
                for step in 0..6 {
                    let obs: Vec<f32> = (0..60)
                        .map(|i| ((i * 7 + step * 3) as f32 * 0.173).sin() * 2.0)
                        .collect();
                    let want = p.act_with(&obs, &mut r1, deterministic, &mut plain_s);
                    let got = bp.act_with(&obs, &mut r2, deterministic, &mut packed_s);
                    let bits = |a: &[f32]| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "dim {action_dim} step {step} det={deterministic}"
                    );
                }
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "RNG streams diverged");
            }
        }
    }

    #[test]
    fn clones_share_the_packs() {
        let bp = BatchPolicy::new(policy());
        let twin = bp.clone();
        assert!(Arc::ptr_eq(&bp.packs, &twin.packs));
        assert!(Arc::ptr_eq(bp.policy(), twin.policy()));
    }

    #[test]
    fn handles_empty_batch() {
        let bp = BatchPolicy::new(policy());
        let mut s = BatchActScratch::default();
        assert_eq!(bp.act_batch(&[], &mut s).rows(), 0);
    }
}
