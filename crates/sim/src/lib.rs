#![warn(missing_docs)]

//! # drive-sim — deterministic freeway driving simulator
//!
//! A 2-D substitute for the CARLA scenario of *"Susceptibility of Autonomous
//! Driving Agents to Learning-Based Action-Space Attacks"* (DSN 2023): a
//! straight multi-lane freeway, a kinematic-bicycle ego vehicle whose
//! actuation follows the paper's Eq. (1) first-order smoothing, six slower
//! NPC vehicles to overtake, collision detection with side / rear-end /
//! barrier classification, and the attacker-relevant sensors (semantic
//! features, IMU window).
//!
//! The simulation is fully deterministic given a scenario and a seed; every
//! experiment in this repository is reproducible bit-for-bit.
//!
//! ```
//! use drive_sim::prelude::*;
//!
//! let mut world = World::new(Scenario::default());
//! // Coast straight for one control step (0.1 s).
//! let out = world.step(Actuation::new(0.0, 0.0));
//! assert_eq!(out.step, 0);
//! assert!(out.collision.is_none());
//! ```

pub mod batch;
pub mod faults;
pub mod generate;
pub mod geometry;
pub mod npc;
pub mod perf;
pub mod record;
pub mod render;
pub mod road;
pub mod scenario;
pub mod sensors;
pub mod vehicle;
pub mod waypoints;
pub mod world;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::batch::WorldBatch;
    pub use crate::faults::{FaultInjector, FaultKind, FaultSchedule, FaultSpec, FaultStats};
    pub use crate::generate::{
        GeneratedScenario, ScenarioAxes, SpeedMix, TopologyKind, TrafficDensity,
    };
    pub use crate::geometry::{normalize_angle, Obb, Pose, Vec2};
    pub use crate::npc::Npc;
    pub use crate::record::EpisodeRecord;
    pub use crate::render::{render_strip, RenderConfig};
    pub use crate::road::{Road, RoadTopology};
    pub use crate::scenario::{NpcSpawn, Scenario, ScenarioSpec};
    pub use crate::sensors::{FeatureConfig, FeatureExtractor, Imu, ImuConfig};
    pub use crate::vehicle::{Actuation, Vehicle, VehicleParams};
    pub use crate::waypoints::{Path, PathProjection, Waypoint};
    pub use crate::world::{
        classify_contact, CollisionEvent, CollisionKind, RelativeGeometry, StepOutcome,
        Termination, World,
    };
}
