#![warn(missing_docs)]

//! # drive-rl — soft actor-critic substrate
//!
//! Off-policy reinforcement learning sized for this reproduction: the
//! [`env::Env`] trait implemented by both the driving task and the attacker
//! task, a uniform [`replay::ReplayBuffer`], the full [`sac::Sac`] learner
//! (twin critics, Polyak targets, automatic entropy temperature), behaviour
//! cloning ([`bc`]) for privileged warm starts, and [`train::refine`], the
//! one SAC refinement loop that the victim, both attackers and both
//! defenses run. Its loss watchdog and crash-recovery snapshots
//! ([`snapshot`]) therefore guard every training stage.
//!
//! ```
//! use drive_rl::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let sac = Sac::new(4, 2, &[32, 32], SacConfig::default(), &mut rng);
//! assert_eq!(sac.actor.action_dim(), 2);
//! ```

pub mod actor;
pub mod bc;
pub mod env;
pub mod perf;
pub mod replay;
pub mod sac;
pub mod snapshot;
pub mod train;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::actor::Actor;
    pub use crate::bc::{clone_policy, BcConfig, Demonstrations};
    pub use crate::env::{Env, EnvStep};
    pub use crate::replay::{Batch, ReplayBuffer, Transition};
    pub use crate::sac::{Sac, SacConfig, SacLosses};
    pub use crate::snapshot::TrainSnapshot;
    pub use crate::train::{refine, Refined, Schedule, Snapshots};
}
