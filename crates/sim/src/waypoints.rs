//! Waypoint paths and path-generation primitives.
//!
//! The modular pipeline plans "safe and legal driving waypoints" (the green
//! arrows of the paper's Fig. 1a) and its PID controllers track them; the
//! end-to-end agent's shaped reward also uses the same privileged path
//! (Section III-C). This module provides the shared path representation,
//! lane-keeping and lane-change path generators, and projection queries
//! (cross-track error, heading error).

use crate::geometry::{angle_diff, Vec2};
use crate::road::Road;
use serde::{Deserialize, Serialize};

/// One sample of a planned path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Waypoint {
    /// World-frame position.
    pub position: Vec2,
    /// Tangent direction of the path at this sample, radians.
    pub heading: f64,
    /// Desired speed at this sample, m/s.
    pub target_speed: f64,
}

/// Result of projecting a query point onto a [`Path`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathProjection {
    /// Index of the nearest waypoint.
    pub index: usize,
    /// Signed lateral offset from the path, positive to the left of travel.
    pub cross_track: f64,
    /// Heading error `query_heading - path_heading`, radians in `[-pi, pi)`.
    pub heading_error: f64,
}

/// A polyline of waypoints, ordered by increasing longitudinal position.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Path {
    points: Vec<Waypoint>,
}

impl Path {
    /// Creates a path from waypoints.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[cfg(test)]
    pub fn new(points: Vec<Waypoint>) -> Self {
        assert!(
            !points.is_empty(),
            "path must contain at least one waypoint"
        );
        Path { points }
    }

    /// The waypoints in order.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.points
    }

    /// Projects a pose onto the path.
    ///
    /// Finds the nearest waypoint, then computes the signed cross-track
    /// error relative to that waypoint's tangent and the heading error.
    pub fn project(&self, position: Vec2, heading: f64) -> PathProjection {
        // Argmin by squared distance: monotone in the true distance, so the
        // winning index matches an argmin by `hypot` (exact ties keep the
        // first index under both metrics) while the scan skips a libm call
        // per waypoint. Two phases — an index-free 4-chain min reduction
        // (ILP-friendly; `f64::min` is a single instruction) and then a
        // first-index-equal scan — return exactly the sequential
        // first-minimum index, because the scan compares the very same
        // f64 values. This runs once per slot-step in the fleet's reward
        // shaping, so the scalar-fold latency chain matters.
        assert!(!self.points.is_empty(), "path is non-empty");
        let pts = &self.points[..];
        let d_at = |w: &Waypoint| (w.position - position).norm_sq();
        let (mut m0, mut m1, mut m2, mut m3) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut chunks = pts.chunks_exact(4);
        for c in &mut chunks {
            m0 = m0.min(d_at(&c[0]));
            m1 = m1.min(d_at(&c[1]));
            m2 = m2.min(d_at(&c[2]));
            m3 = m3.min(d_at(&c[3]));
        }
        for w in chunks.remainder() {
            m0 = m0.min(d_at(w));
        }
        let best = m0.min(m1).min(m2).min(m3);
        let index = pts
            .iter()
            .position(|w| d_at(w) == best)
            // All-NaN distances leave `best` at infinity with no exact
            // match; the sequential fold would keep index 0 there too.
            .unwrap_or(0);
        let w = self.points[index];
        let to_query = position - w.position;
        // Signed lateral offset: positive when the query point is to the
        // left of the path tangent.
        let cross_track = Vec2::from_angle(w.heading).cross(to_query);
        PathProjection {
            index,
            cross_track,
            heading_error: angle_diff(heading, w.heading),
        }
    }

    /// Returns the waypoint `lookahead` samples past the nearest one
    /// (saturating at the end of the path). This is the classic pure-pursuit
    /// style target used by the lateral PID controller.
    pub fn lookahead(&self, position: Vec2, lookahead: usize) -> Waypoint {
        let proj = self.project(position, 0.0);
        let idx = (proj.index + lookahead).min(self.points.len() - 1);
        self.points[idx]
    }

    /// Shifts every waypoint laterally by `dy`, in place (headings and
    /// speeds are unchanged). Used for the planner's wide-berth bias.
    pub fn offset_lateral(&mut self, dy: f64) {
        for w in &mut self.points {
            w.position.y += dy;
        }
    }

    /// Replaces this path's waypoints with a copy of `other`'s, reusing
    /// the existing buffer. Allocation-free once the buffer has grown to
    /// as many waypoints as `other` holds.
    pub fn copy_from(&mut self, other: &Path) {
        self.points.clear();
        self.points.extend_from_slice(&other.points);
    }

    /// Pre-allocates capacity for `n` waypoints (used by planners that
    /// memoize a path so the cache never allocates mid-episode).
    pub fn with_capacity(n: usize) -> Self {
        Path {
            points: Vec::with_capacity(n),
        }
    }
}

/// Smoothstep-style quintic blend: 0 at `u = 0`, 1 at `u = 1`, with zero
/// first and second derivatives at both ends. This is the standard smooth
/// lateral profile for a comfortable lane change.
pub fn quintic_blend(u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
}

/// [`lane_keep_path_into`] into a fresh path.
#[cfg(test)]
pub fn lane_keep_path(
    road: &Road,
    lane: usize,
    x0: f64,
    n: usize,
    spacing: f64,
    speed: f64,
) -> Path {
    let mut out = Path::default();
    lane_keep_path_into(road, lane, x0, n, spacing, speed, &mut out);
    out
}

/// Generates a lane-keeping path along `lane`, starting at `x0`, with `n`
/// samples spaced `spacing` meters apart, into `out` (cleared first) so
/// the waypoint buffer can be reused across control steps without
/// reallocating.
///
/// # Panics
///
/// Panics if `n == 0` or `spacing <= 0`.
pub fn lane_keep_path_into(
    road: &Road,
    lane: usize,
    x0: f64,
    n: usize,
    spacing: f64,
    speed: f64,
    out: &mut Path,
) {
    assert!(
        n > 0 && spacing > 0.0,
        "need n > 0 samples and positive spacing"
    );
    let y = road.lane_center_y(lane);
    out.points.clear();
    out.points.extend((0..n).map(|i| Waypoint {
        position: Vec2::new(x0 + i as f64 * spacing, y),
        heading: 0.0,
        target_speed: speed,
    }));
}

/// [`lane_change_path_into`] into a fresh path.
#[allow(clippy::too_many_arguments)]
#[cfg(test)]
pub fn lane_change_path(
    road: &Road,
    y0: f64,
    target_lane: usize,
    x0: f64,
    change_distance: f64,
    n: usize,
    spacing: f64,
    speed: f64,
) -> Path {
    let mut out = Path::default();
    lane_change_path_into(
        road,
        y0,
        target_lane,
        x0,
        change_distance,
        n,
        spacing,
        speed,
        &mut out,
    );
    out
}

/// Generates a lane-change path: starting from lateral position `y0` at
/// `x0`, blending into the center of `target_lane` over `change_distance`
/// meters, then continuing straight until `n` samples are produced. Writes
/// into `out` (cleared first) so the waypoint buffer can be reused across
/// control steps without reallocating.
///
/// The lateral profile is a quintic blend, so the generated headings are
/// continuous and settle back to zero.
///
/// # Panics
///
/// Panics if `n == 0`, `spacing <= 0`, or `change_distance <= 0`.
#[allow(clippy::too_many_arguments)]
pub fn lane_change_path_into(
    road: &Road,
    y0: f64,
    target_lane: usize,
    x0: f64,
    change_distance: f64,
    n: usize,
    spacing: f64,
    speed: f64,
    out: &mut Path,
) {
    assert!(
        n > 0 && spacing > 0.0,
        "need n > 0 samples and positive spacing"
    );
    assert!(change_distance > 0.0, "change distance must be positive");
    let y1 = road.lane_center_y(target_lane);
    let dy = y1 - y0;
    out.points.clear();
    out.points.extend((0..n).map(|i| {
        let x = x0 + i as f64 * spacing;
        let u = ((x - x0) / change_distance).clamp(0.0, 1.0);
        let y = y0 + dy * quintic_blend(u);
        // Tangent from the derivative of the blend.
        let du = 1.0 / change_distance;
        let dblend = {
            let u = u.clamp(0.0, 1.0);
            30.0 * u * u * (1.0 - u) * (1.0 - u)
        };
        let slope = dy * dblend * du;
        Waypoint {
            position: Vec2::new(x, y),
            heading: slope.atan(),
            target_speed: speed,
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn road() -> Road {
        Road::default()
    }

    #[test]
    fn quintic_blend_endpoints_and_monotone() {
        assert_eq!(quintic_blend(0.0), 0.0);
        assert_eq!(quintic_blend(1.0), 1.0);
        assert_eq!(quintic_blend(-1.0), 0.0);
        assert_eq!(quintic_blend(2.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = quintic_blend(i as f64 / 100.0);
            assert!(v >= prev - 1e-12, "blend must be monotone");
            prev = v;
        }
    }

    #[test]
    fn lane_keep_path_stays_on_center() {
        let r = road();
        let p = lane_keep_path(&r, 1, 0.0, 20, 2.0, 16.0);
        assert_eq!(p.waypoints().len(), 20);
        for w in p.waypoints() {
            assert!((w.position.y - r.lane_center_y(1)).abs() < 1e-12);
            assert_eq!(w.heading, 0.0);
            assert_eq!(w.target_speed, 16.0);
        }
    }

    #[test]
    fn lane_change_path_reaches_target_lane() {
        let r = road();
        let y0 = r.lane_center_y(0);
        let p = lane_change_path(&r, y0, 1, 0.0, 40.0, 40, 2.0, 16.0);
        let last = p.waypoints().last().unwrap();
        assert!((last.position.y - r.lane_center_y(1)).abs() < 1e-9);
        // Heading returns to straight at the end.
        assert!(last.heading.abs() < 1e-9);
        // Mid-change heading is positive (moving left).
        let mid = p.waypoints()[10];
        assert!(mid.heading > 0.0);
    }

    #[test]
    fn projection_cross_track_sign() {
        let r = road();
        let p = lane_keep_path(&r, 1, 0.0, 50, 2.0, 16.0);
        let y_center = r.lane_center_y(1);
        // Left of the path: positive cross-track.
        let proj = p.project(Vec2::new(10.0, y_center + 0.5), 0.0);
        assert!(proj.cross_track > 0.49 && proj.cross_track < 0.51);
        // Right of the path: negative.
        let proj = p.project(Vec2::new(10.0, y_center - 0.5), 0.0);
        assert!(proj.cross_track < -0.49);
    }

    #[test]
    fn projection_heading_error() {
        let r = road();
        let p = lane_keep_path(&r, 1, 0.0, 50, 2.0, 16.0);
        let proj = p.project(Vec2::new(10.0, 0.0), 0.2);
        assert!((proj.heading_error - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lookahead_saturates_at_path_end() {
        let r = road();
        let p = lane_keep_path(&r, 0, 0.0, 10, 2.0, 16.0);
        let w = p.lookahead(Vec2::new(100.0, r.lane_center_y(0)), 50);
        assert_eq!(w.position, p.waypoints()[9].position);
    }

    #[test]
    fn projection_picks_nearest_index() {
        let r = road();
        let p = lane_keep_path(&r, 0, 0.0, 50, 2.0, 16.0);
        let proj = p.project(Vec2::new(21.0, r.lane_center_y(0)), 0.0);
        // x = 21 with spacing 2 → nearest sample index 10 or 11.
        assert!(proj.index == 10 || proj.index == 11);
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn empty_path_rejected() {
        let _ = Path::new(vec![]);
    }

    #[test]
    fn into_builders_match_allocating_builders_and_reuse_capacity() {
        let r = Road::on_ramp(3, 3.5, 1500.0, 0.0, 250.0, 330.0);
        let mut out = Path::default();
        lane_keep_path_into(&r, 1, 3.0, 40, 2.0, 16.0, &mut out);
        assert_eq!(
            out.waypoints(),
            lane_keep_path(&r, 1, 3.0, 40, 2.0, 16.0).waypoints()
        );
        let cap = out.points.capacity();
        lane_change_path_into(
            &r,
            r.lane_center_y(1),
            2,
            5.0,
            30.0,
            40,
            2.0,
            16.0,
            &mut out,
        );
        assert_eq!(
            out.waypoints(),
            lane_change_path(&r, r.lane_center_y(1), 2, 5.0, 30.0, 40, 2.0, 16.0).waypoints()
        );
        assert_eq!(out.points.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn offset_lateral_shifts_positions_only() {
        let r = road();
        let mut p = lane_keep_path(&r, 1, 0.0, 10, 2.0, 16.0);
        let before: Vec<_> = p.waypoints().to_vec();
        p.offset_lateral(0.7);
        for (w, b) in p.waypoints().iter().zip(&before) {
            assert_eq!(w.position.x, b.position.x);
            assert_eq!(w.position.y, b.position.y + 0.7);
            assert_eq!(w.heading, b.heading);
            assert_eq!(w.target_speed, b.target_speed);
        }
    }
}
