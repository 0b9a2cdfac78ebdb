#![warn(missing_docs)]

//! # drive-nn — dense neural networks with manual backprop
//!
//! The learning substrate of this reproduction: a small, dependency-free
//! (beyond `rand`/`serde`) neural-network library sized for the MLP policies
//! and critics of soft actor-critic training on CPU. It provides
//!
//! * [`mat::Mat`] — batched `f32` matrices,
//! * [`linear::Linear`] / [`activation::Activation`] / [`mlp::Mlp`] —
//!   layers with explicit forward caches and gradient accumulation,
//! * [`adam::Adam`] — the optimizer,
//! * [`gaussian::GaussianPolicy`] — the tanh-squashed Gaussian actor head
//!   with full reparameterized backprop (verified against finite
//!   differences),
//! * [`pnn::PnnPolicy`] — the two-column progressive network used by the
//!   paper's PNN defense (Section VI-B),
//! * [`checkpoint`] — plain-text model persistence.
//!
//! ```
//! use drive_nn::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let policy = GaussianPolicy::new(8, &[32, 32], 2, &mut rng);
//! let action = policy.act(&[0.0; 8], &mut rng, true);
//! assert_eq!(action.len(), 2);
//! ```

pub mod activation;
pub mod adam;
pub mod batch;
pub mod checkpoint;
pub mod gaussian;
pub mod linear;
pub mod mat;
pub mod mlp;
pub mod pnn;
pub mod scratch;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::adam::{Adam, AdamConfig};
    pub use crate::batch::BatchPolicy;
    pub use crate::gaussian::{fill_randn, randn_f32, GaussianPolicy, SampleCache};
    pub use crate::linear::Linear;
    pub use crate::mat::Mat;
    pub use crate::mlp::{Mlp, MlpCache};
    pub use crate::pnn::{PnnPolicy, PnnSampleCache};
    pub use crate::scratch::{ActScratch, BatchActScratch, SampleBackScratch, Scratch};
}
