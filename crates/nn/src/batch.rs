//! Frozen-policy inference at every batch size.
//!
//! [`BatchPolicy`] is the one frozen-policy type shared by serial
//! evaluation (the end-to-end victims and learned attackers, one
//! observation per control step), the fleet simulation driver and the
//! serving layer (`drive-serve` micro-batching). It is a shared handle on
//! a [`GaussianPolicy`] whose layers hold their own transposed-weight
//! packs (see [`crate::linear::Linear`]): the first forward through any
//! clone packs them once, and every later pass is a single bias-fused
//! product per layer with no per-call transpose — a broadcast sweep over
//! the packs for fewer than [`crate::mat::TILE`] rows, the register-tiled
//! GEMM above. Outputs are bit-identical to [`GaussianPolicy::act_with`]
//! and [`GaussianPolicy::act_batch_with`] — batching changes throughput,
//! never numerics.
//!
//! Two call styles cover its consumers:
//! - [`BatchPolicy::act_with`]: one observation, deterministic or sampled
//!   (serial evaluation — a drop-in for [`GaussianPolicy::act_with`],
//!   RNG draws included).
//! - [`BatchPolicy::act_batch`]: gather from observation slices (the
//!   serving layer's shape — requests arrive as independent vectors).
//!
//! The fleet driver borrows the artifact's policy itself and writes rows
//! straight into its staging matrix ([`GaussianPolicy::stage`] +
//! [`GaussianPolicy::infer_staged`]).

use crate::gaussian::GaussianPolicy;
use crate::mat::Mat;
use crate::scratch::{ActScratch, BatchActScratch};
use rand::Rng;
use std::sync::Arc;

/// A frozen [`GaussianPolicy`] behind an `Arc`: the weights cannot change
/// while any handle is alive, so the layers' packs never go stale, and a
/// clone costs O(1) and shares them. Callers wrap a policy once per
/// evaluation cell and hand clones to per-episode agents and attackers.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    policy: Arc<GaussianPolicy>,
}

impl From<GaussianPolicy> for BatchPolicy {
    fn from(policy: GaussianPolicy) -> Self {
        BatchPolicy::new(Arc::new(policy))
    }
}

/// A frozen copy of a borrowed policy that shares its built packs: a
/// per-cell handle on an artifact that is already packed packs nothing.
impl From<&GaussianPolicy> for BatchPolicy {
    fn from(policy: &GaussianPolicy) -> Self {
        BatchPolicy::new(Arc::new(policy.clone_frozen()))
    }
}

impl BatchPolicy {
    /// Wraps a shared policy; its layers pack on the first forward.
    pub fn new(policy: Arc<GaussianPolicy>) -> Self {
        BatchPolicy { policy }
    }

    /// The wrapped policy.
    #[cfg(test)]
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

    /// Single-observation action with the scratch's reusable buffers:
    /// `tanh(mean)` when `deterministic`, otherwise a sample.
    /// [`GaussianPolicy::act_with`] itself, so allocation-free once the
    /// scratch has warmed up.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.policy.act_with(obs, rng, deterministic, s)
    }

    /// Gather-style batched inference: [`GaussianPolicy::act_batch_with`]
    /// on the shared policy.
    ///
    /// # Panics
    ///
    /// Panics if any observation slice is not `obs_dim` long.
    pub fn act_batch<'s>(&self, obs: &[&[f32]], s: &'s mut BatchActScratch) -> &'s Mat {
        self.policy.act_batch_with(obs, s)
    }
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

    /// Every row of a batched pass (the tiled GEMM from four rows up)
    /// matches the serial single-row act (the broadcast sweep) BIT-FOR-BIT
    /// across batch sizes on both sides of the GEMM row-tile boundary,
    /// sharing one scratch across growing and shrinking batches.
    #[test]
    fn batch_rows_bit_identical_to_serial_acts() {
        let p = policy();
        let bp = BatchPolicy::new(p.clone());
        let mut batch_s = BatchActScratch::default();
        let mut serial_s = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(11);
        for &batch in &[1usize, 3, 4, 5, 9, 64, 2] {
            let obs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..4).map(|_| randn_f32(&mut rng) * 2.0).collect())
                .collect();
            let refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
            let batched = bp.act_batch(&refs, &mut batch_s);
            assert_eq!((batched.rows(), batched.cols()), (batch, 2));
            for (b, o) in obs.iter().enumerate() {
                let serial = p.act_with(o, &mut rng, true, &mut serial_s);
                for (i, (&got, &want)) in batched.row(b).iter().zip(serial).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "batch {batch} row {b} dim {i}: batched {got} vs serial {want}"
                    );
                }
            }
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

    /// A frozen policy packs once per `Arc`: not before its first
    /// forward, and a forward through one clone packs every clone.
    #[test]
    fn clones_share_the_packs() {
        let bp = BatchPolicy::new(policy());
        let twin = bp.clone();
        assert!(Arc::ptr_eq(bp.policy(), twin.policy()));
        let packed = |b: &BatchPolicy| b.policy().trunk().layers().iter().all(|l| l.is_packed());
        assert!(!packed(&twin), "no forward, no pack");
        bp.act_with(
            &[0.1; 4],
            &mut StdRng::seed_from_u64(0),
            true,
            &mut ActScratch::default(),
        );
        assert!(packed(&twin));
    }

    #[test]
    fn handles_empty_batch() {
        let bp = BatchPolicy::new(policy());
        let mut s = BatchActScratch::default();
        assert_eq!(bp.act_batch(&[], &mut s).rows(), 0);
    }
}
