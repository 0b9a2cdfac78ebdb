//! Attacker- and agent-side sensors.
//!
//! Three observation sources are modeled, mirroring Sections III-C and IV-C
//! of the paper:
//!
//! * [`FeatureExtractor`] — the compact semantic encoding of what the
//!   paper's stacked semantic-segmentation panorama conveys: ego pose within
//!   the lane plus relative kinematics of the nearest NPC vehicles, stacked
//!   over several frames. This is the policy input used for training (see
//!   DESIGN.md §1 for the substitution argument).
//! * [`SemanticCamera`] — a bird's-eye semantic occupancy grid with
//!   road / barrier / vehicle classes, the grid-shaped analogue of the
//!   paper's camera, for visualization and consistency testing.
//! * [`Imu`] — a triaxial-equivalent inertial window (longitudinal
//!   acceleration + yaw rate, the paper's informative x/z channels) sampled
//!   at 20 sps over 3.2 s, with Gaussian noise and bias.

use crate::geometry::Vec2;
use crate::world::World;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Draws a standard normal sample via Box–Muller (rand 0.8 has no normal
/// distribution without `rand_distr`).
pub fn randn<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Number of per-frame ego features produced by [`FeatureExtractor`].
pub const EGO_FEATURES: usize = 8;
/// Number of features per tracked NPC.
pub const NPC_FEATURES: usize = 4;

/// Configuration of the semantic feature extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Number of nearest NPCs encoded per frame.
    pub k_npcs: usize,
    /// Number of stacked frames (the paper stacks 3).
    pub frames: usize,
    /// Longitudinal normalization range, meters.
    pub range_lon: f64,
    /// Lateral normalization range, meters.
    pub range_lat: f64,
    /// Speed normalization, m/s.
    pub speed_norm: f64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            k_npcs: 3,
            frames: 3,
            range_lon: 50.0,
            range_lat: 10.0,
            speed_norm: 16.0,
        }
    }
}

impl FeatureConfig {
    /// Dimensionality of one frame.
    pub fn frame_dim(&self) -> usize {
        EGO_FEATURES + NPC_FEATURES * self.k_npcs
    }

    /// Dimensionality of the stacked observation.
    pub fn observation_dim(&self) -> usize {
        self.frame_dim() * self.frames
    }
}

/// Stateful frame-stacking semantic feature extractor.
///
/// Call [`FeatureExtractor::reset`] at episode start and
/// [`FeatureExtractor::observe`] once per control step; the returned vector
/// always has [`FeatureConfig::observation_dim`] entries (zero-padded before
/// enough frames have accumulated).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: FeatureConfig,
    history: VecDeque<Vec<f32>>,
    /// Reused per-frame NPC workspace for [`FeatureExtractor::observe_into`].
    npc_scratch: Vec<(f64, Vec2, f64)>,
}

impl FeatureExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: FeatureConfig) -> Self {
        FeatureExtractor {
            history: VecDeque::with_capacity(config.frames),
            config,
            npc_scratch: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Clears stacked history (call at episode start).
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// Extracts the current frame, pushes it onto the stack, and returns the
    /// stacked observation (most recent frame first).
    ///
    /// Allocates the returned vector; hot loops should hold a reused buffer
    /// and call [`FeatureExtractor::observe_into`] instead.
    pub fn observe(&mut self, world: &World) -> Vec<f32> {
        let mut out = Vec::new();
        self.observe_into(world, &mut out);
        out
    }

    /// [`FeatureExtractor::observe`], writing the stacked observation into
    /// `out` (resized to [`FeatureConfig::observation_dim`]). The evicted
    /// frame buffer is reused for the incoming frame, so steady-state calls
    /// are allocation-free.
    pub fn observe_into(&mut self, world: &World, out: &mut Vec<f32>) {
        let mut frame = if self.history.len() == self.config.frames {
            self.history.pop_back().expect("history is non-empty")
        } else {
            Vec::with_capacity(self.config.frame_dim())
        };
        extract_frame_into(&self.config, world, &mut self.npc_scratch, &mut frame);
        self.history.push_front(frame);
        let dim = self.config.frame_dim();
        out.clear();
        out.resize(self.config.observation_dim(), 0.0);
        for (i, f) in self.history.iter().enumerate() {
            out[i * dim..(i + 1) * dim].copy_from_slice(f);
        }
    }

    /// Computes a single un-stacked frame.
    #[cfg(test)]
    fn extract_frame(&self, world: &World) -> Vec<f32> {
        let mut npcs = Vec::new();
        let mut out = Vec::new();
        extract_frame_into(&self.config, world, &mut npcs, &mut out);
        out
    }
}

/// Writes one un-stacked feature frame into `out` (cleared first), using
/// `npcs` as sort workspace. Shared by the allocating and the `_into`
/// observation paths so the arithmetic has a single home.
fn extract_frame_into(
    c: &FeatureConfig,
    world: &World,
    npcs: &mut Vec<(f64, Vec2, f64)>,
    out: &mut Vec<f32>,
) {
    let road = &world.scenario().road;
    let ego = world.ego();
    let pos = ego.pose.position;
    let half_lane = road.lane_width / 2.0;

    out.clear();
    out.reserve(c.frame_dim());
    out.push((road.lane_offset(pos.y) / half_lane) as f32);
    out.push(ego.pose.heading as f32);
    out.push((ego.speed / c.speed_norm) as f32);
    out.push(ego.actuation.steer as f32);
    out.push(ego.actuation.thrust as f32);
    let (right_edge, left_edge) = road.edge_ys_at(pos.x);
    out.push(((left_edge - pos.y) / road.width()) as f32);
    out.push(((pos.y - right_edge) / road.width()) as f32);
    out.push((road.lane_of(pos.y) as f64 / (road.num_lanes.max(2) - 1) as f64) as f32);
    debug_assert_eq!(out.len(), EGO_FEATURES);

    // Nearest NPCs by absolute longitudinal distance, keeping only those
    // not already far behind.
    npcs.clear();
    npcs.extend(
        world
            .npcs()
            .iter()
            .map(|n| {
                let rel = n.vehicle.pose.position - pos;
                (rel.x, rel, n.vehicle.speed)
            })
            .filter(|(dx, _, _)| *dx > -c.range_lon / 2.0),
    );
    npcs.sort_by(|a, b| a.0.abs().total_cmp(&b.0.abs()));
    for k in 0..c.k_npcs {
        if let Some((_, rel, speed)) = npcs.get(k) {
            out.push((rel.x / c.range_lon).clamp(-1.0, 1.0) as f32);
            out.push((rel.y / c.range_lat).clamp(-1.0, 1.0) as f32);
            out.push(((speed - ego.speed) / c.speed_norm) as f32);
            out.push(1.0);
        } else {
            out.extend_from_slice(&[0.0, 0.0, 0.0, 0.0]);
        }
    }
}

/// Semantic classes rendered by the [`SemanticCamera`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SemanticClass {
    /// Outside the road and its barriers.
    Offroad,
    /// Drivable surface.
    Road,
    /// Roadside barrier.
    Barrier,
    /// Any vehicle footprint (ego or NPC).
    Vehicle,
}

impl SemanticClass {
    /// Normalized intensity used in grid observations.
    pub fn intensity(self) -> f32 {
        match self {
            SemanticClass::Offroad => 0.0,
            SemanticClass::Road => 1.0 / 3.0,
            SemanticClass::Barrier => 2.0 / 3.0,
            SemanticClass::Vehicle => 1.0,
        }
    }
}

/// Bird's-eye semantic occupancy camera centered on the ego vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticCamera {
    /// Grid columns (longitudinal).
    pub cols: usize,
    /// Grid rows (lateral).
    pub rows: usize,
    /// Meters ahead of the ego covered by the grid.
    pub range_ahead: f64,
    /// Meters behind the ego covered by the grid.
    pub range_behind: f64,
    /// Meters to each side of the ego covered by the grid.
    pub range_side: f64,
}

impl Default for SemanticCamera {
    fn default() -> Self {
        SemanticCamera {
            cols: 48,
            rows: 16,
            range_ahead: 60.0,
            range_behind: 12.0,
            range_side: 8.0,
        }
    }
}

impl SemanticCamera {
    /// Renders the class of each cell, row-major (row 0 = leftmost lateral
    /// band, column 0 = farthest behind).
    pub fn render_classes(&self, world: &World) -> Vec<SemanticClass> {
        let ego = world.ego().pose.position;
        let road = &world.scenario().road;
        let obbs: Vec<_> = std::iter::once(world.ego().obb())
            .chain(world.npcs().iter().map(|n| n.vehicle.obb()))
            .collect();
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            // Row 0 at +range_side (left), descending.
            let fy = (r as f64 + 0.5) / self.rows as f64;
            let y = ego.y + self.range_side - fy * 2.0 * self.range_side;
            for c in 0..self.cols {
                let fx = (c as f64 + 0.5) / self.cols as f64;
                let x = ego.x - self.range_behind + fx * (self.range_ahead + self.range_behind);
                let p = Vec2::new(x, y);
                let (right_edge, left_edge) = road.edge_ys_at(x);
                let class = if obbs.iter().any(|o| o.contains(p)) {
                    SemanticClass::Vehicle
                } else if road.on_road(p) {
                    SemanticClass::Road
                } else if (y >= left_edge && y <= left_edge + road.barrier_thickness)
                    || (y <= right_edge && y >= right_edge - road.barrier_thickness)
                {
                    SemanticClass::Barrier
                } else {
                    SemanticClass::Offroad
                };
                out.push(class);
            }
        }
        out
    }

    /// Renders normalized intensities suitable as a flat NN observation.
    pub fn render(&self, world: &World) -> Vec<f32> {
        self.render_classes(world)
            .into_iter()
            .map(SemanticClass::intensity)
            .collect()
    }

    /// Observation dimensionality of one rendered frame.
    pub fn dim(&self) -> usize {
        self.rows * self.cols
    }
}

/// Configuration of the [`Imu`] sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImuConfig {
    /// Samples per second (the paper uses 20 sps).
    pub sample_rate: f64,
    /// Window length in seconds (the paper uses 3.2 s).
    pub window: f64,
    /// Standard deviation of additive Gaussian noise on acceleration, m/s^2.
    pub accel_noise_std: f64,
    /// Standard deviation of additive Gaussian noise on yaw rate, rad/s.
    pub gyro_noise_std: f64,
    /// Constant bias on acceleration, m/s^2.
    pub accel_bias: f64,
    /// Constant bias on yaw rate, rad/s.
    pub gyro_bias: f64,
}

impl Default for ImuConfig {
    fn default() -> Self {
        ImuConfig {
            sample_rate: 20.0,
            window: 3.2,
            accel_noise_std: 0.05,
            gyro_noise_std: 0.005,
            accel_bias: 0.0,
            gyro_bias: 0.0,
        }
    }
}

impl ImuConfig {
    /// Number of samples in a full window.
    pub fn window_samples(&self) -> usize {
        (self.sample_rate * self.window).round() as usize
    }

    /// Observation dimensionality: two channels per sample.
    pub fn observation_dim(&self) -> usize {
        2 * self.window_samples()
    }
}

/// Rolling-window IMU with two informative channels: longitudinal
/// acceleration (body x) and yaw rate (body z). The paper discards the
/// lateral (y) channel as uninformative; so do we.
#[derive(Debug, Clone)]
pub struct Imu {
    config: ImuConfig,
    buffer: VecDeque<(f64, f64)>,
}

impl Imu {
    /// Creates an IMU with an empty (zero-filled) window.
    pub fn new(config: ImuConfig) -> Self {
        let n = config.window_samples();
        Imu {
            config,
            buffer: VecDeque::from(vec![(0.0, 0.0); n]),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ImuConfig {
        &self.config
    }

    /// Clears the window to zeros (call at episode start).
    pub fn reset(&mut self) {
        let n = self.config.window_samples();
        self.buffer = VecDeque::from(vec![(0.0, 0.0); n]);
    }

    /// Records the samples for one control step from the ego vehicle's
    /// inertial substep records, adding noise and bias from `rng`.
    ///
    /// With `dt = 0.1 s` and 20 sps this appends 2 samples per call, drawn
    /// evenly from the recorded substeps.
    pub fn record<R: Rng>(&mut self, world: &World, rng: &mut R) {
        let inertial = &world.ego().inertial;
        if inertial.is_empty() {
            return;
        }
        let dt = world.scenario().dt;
        let samples_per_step = (self.config.sample_rate * dt).round().max(1.0) as usize;
        for k in 0..samples_per_step {
            // Evenly spaced substep indices.
            let idx = ((k as f64 + 0.5) / samples_per_step as f64 * inertial.len() as f64).floor()
                as usize;
            let s = inertial[idx.min(inertial.len() - 1)];
            let ax =
                s.accel_lon + self.config.accel_bias + self.config.accel_noise_std * randn(rng);
            let wz = s.yaw_rate + self.config.gyro_bias + self.config.gyro_noise_std * randn(rng);
            if self.buffer.len() == self.config.window_samples() {
                self.buffer.pop_front();
            }
            self.buffer.push_back((ax, wz));
        }
    }

    /// The current window flattened to `[ax_0, wz_0, ax_1, wz_1, ...]`,
    /// normalized to roughly unit scale.
    pub fn window(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.window_into(&mut out);
        out
    }

    /// [`Imu::window`], writing into `out` (cleared first) so hot loops can
    /// reuse one buffer.
    pub fn window_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.config.observation_dim());
        for &(ax, wz) in &self.buffer {
            out.push((ax / 10.0) as f32);
            out.push((wz / 2.0) as f32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::vehicle::Actuation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn feature_dims_match_config() {
        let c = FeatureConfig::default();
        assert_eq!(c.frame_dim(), 8 + 4 * 3);
        assert_eq!(c.observation_dim(), 3 * 20);
        let mut fx = FeatureExtractor::new(c.clone());
        let world = World::new(Scenario::default());
        let obs = fx.observe(&world);
        assert_eq!(obs.len(), c.observation_dim());
    }

    #[test]
    fn feature_stacking_shifts_frames() {
        let mut fx = FeatureExtractor::new(FeatureConfig::default());
        let mut world = World::new(Scenario::default());
        let o1 = fx.observe(&world);
        world.step(Actuation::new(0.0, 0.5));
        let o2 = fx.observe(&world);
        let dim = fx.config().frame_dim();
        // The old frame moved to slot 1 of the new observation.
        assert_eq!(&o2[dim..2 * dim], &o1[..dim]);
        // Before enough frames exist, older slots are zero.
        assert!(o1[dim..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn feature_frame_encodes_nearest_npc_first() {
        let fx = FeatureExtractor::new(FeatureConfig::default());
        let world = World::new(Scenario::default());
        let frame = fx.extract_frame(&world);
        // First NPC slot: relative x of the nearest NPC (30 m) normalized by 50.
        let dx = frame[EGO_FEATURES];
        assert!((dx as f64 - 30.0 / 50.0).abs() < 1e-6);
        // Present flag set.
        assert_eq!(frame[EGO_FEATURES + 3], 1.0);
    }

    #[test]
    fn feature_frame_pads_missing_npcs() {
        let mut s = Scenario::default();
        s.npcs.truncate(1);
        let fx = FeatureExtractor::new(FeatureConfig::default());
        let world = World::new(s);
        let frame = fx.extract_frame(&world);
        // Slots 2 and 3 are absent → zero present flag.
        assert_eq!(frame[EGO_FEATURES + NPC_FEATURES + 3], 0.0);
        assert_eq!(frame[EGO_FEATURES + 2 * NPC_FEATURES + 3], 0.0);
    }

    #[test]
    fn reset_clears_feature_history() {
        let mut fx = FeatureExtractor::new(FeatureConfig::default());
        let world = World::new(Scenario::default());
        fx.observe(&world);
        fx.observe(&world);
        fx.reset();
        let obs = fx.observe(&world);
        let dim = fx.config().frame_dim();
        assert!(obs[dim..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn camera_sees_vehicles_and_road() {
        let cam = SemanticCamera::default();
        let world = World::new(Scenario::default());
        let classes = cam.render_classes(&world);
        assert_eq!(classes.len(), cam.dim());
        let vehicles = classes
            .iter()
            .filter(|c| **c == SemanticClass::Vehicle)
            .count();
        let road = classes
            .iter()
            .filter(|c| **c == SemanticClass::Road)
            .count();
        assert!(vehicles > 0, "ego + nearby NPCs must be visible");
        assert!(road > vehicles, "most of the view is road");
        // The grid spans beyond the road edges, so some cells are off-road.
        assert!(classes.iter().any(|c| *c != SemanticClass::Road));
    }

    #[test]
    fn camera_intensities_match_classes() {
        let cam = SemanticCamera::default();
        let world = World::new(Scenario::default());
        let classes = cam.render_classes(&world);
        let intensities = cam.render(&world);
        for (c, i) in classes.iter().zip(&intensities) {
            assert_eq!(c.intensity(), *i);
        }
    }

    #[test]
    fn camera_grid_consistent_with_features() {
        // Place a single NPC ahead-left of the ego; the feature vector must
        // report positive dx and dy, and the camera grid must contain
        // vehicle cells in the ahead-left quadrant (beyond the ego's own
        // footprint cells near the center).
        let s = Scenario {
            npcs: vec![crate::scenario::NpcSpawn {
                lane: 2,
                x: 20.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let world = World::new(s);

        let fx = FeatureExtractor::new(FeatureConfig::default());
        let frame = fx.extract_frame(&world);
        let dx = frame[EGO_FEATURES] as f64 * 50.0;
        let dy = frame[EGO_FEATURES + 1] as f64 * 10.0;
        assert!(dx > 10.0, "npc ahead: dx {dx}");
        assert!(dy > 2.0, "npc left: dy {dy}");

        let cam = SemanticCamera::default();
        let classes = cam.render_classes(&world);
        // Grid geometry: row 0 = leftmost band, col 0 = farthest behind.
        let col_of = |x_rel: f64| {
            (((x_rel + cam.range_behind) / (cam.range_ahead + cam.range_behind)) * cam.cols as f64)
                as usize
        };
        let row_of = |y_rel: f64| {
            (((cam.range_side - y_rel) / (2.0 * cam.range_side)) * cam.rows as f64) as usize
        };
        let r = row_of(dy);
        let c = col_of(dx);
        assert_eq!(
            classes[r * cam.cols + c],
            SemanticClass::Vehicle,
            "grid cell at the feature-reported NPC position must be a vehicle"
        );
    }

    #[test]
    fn imu_window_size_and_rate() {
        let c = ImuConfig::default();
        assert_eq!(c.window_samples(), 64);
        assert_eq!(c.observation_dim(), 128);
        let mut imu = Imu::new(c);
        let mut world = World::new(Scenario::default());
        let mut rng = StdRng::seed_from_u64(3);
        world.step(Actuation::new(0.0, 1.0));
        imu.record(&world, &mut rng);
        // 20 sps * 0.1 s = 2 new samples; window stays at 64 entries.
        assert_eq!(imu.window().len(), 128);
    }

    #[test]
    fn imu_detects_acceleration() {
        let mut imu = Imu::new(ImuConfig {
            accel_noise_std: 0.0,
            gyro_noise_std: 0.0,
            ..ImuConfig::default()
        });
        let mut world = World::new(Scenario::default());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            world.step(Actuation::new(0.0, 1.0));
            imu.record(&world, &mut rng);
        }
        let w = imu.window();
        // Latest accel channel entries are positive (throttling).
        let last_ax = w[w.len() - 2];
        assert!(last_ax > 0.0, "ax {last_ax}");
    }

    #[test]
    fn imu_noise_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut imu = Imu::new(ImuConfig::default());
            let mut world = World::new(Scenario::default());
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..3 {
                world.step(Actuation::new(0.1, 0.5));
                imu.record(&world, &mut rng);
            }
            imu.window()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }
}
