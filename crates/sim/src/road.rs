//! Road model: a multi-lane freeway with shoulder barriers and an optional
//! topology feature (on-ramp merge or lane drop).
//!
//! The paper's scenario (CARLA Town 4 Road 23) is a freeway stretch with no
//! intersections or traffic lights; the relevant structure is lane geometry
//! and the hard barriers at the road edges. The road runs along the world +x
//! axis; lane 0 is the rightmost lane (most negative y).
//!
//! # Topology
//!
//! [`RoadTopology`] makes the road shape a first-class scenario axis. The
//! mainline lane centers are *globally fixed* — `lane_center_y` never depends
//! on x — and the topology instead moves the barrier faces with x:
//!
//! - [`RoadTopology::Straight`]: both edges constant; every x-aware query
//!   reduces to exactly the legacy straight-freeway formula (bit-identical).
//! - [`RoadTopology::OnRamp`]: an acceleration lane (index `num_lanes`,
//!   center below the mainline's right edge) runs from `ramp_start`, stops
//!   being drivable at `merge_start`, and its pavement tapers away over
//!   `[merge_start, merge_end]`.
//! - [`RoadTopology::LaneDrop`]: the leftmost mainline lane stops being
//!   drivable at `drop_start`; the left barrier tapers in by one lane width
//!   over `[drop_start, drop_end]`.

#[cfg(test)]
use crate::geometry::Vec2;
use serde::{Deserialize, Serialize};

/// Longitudinal shape of the road: where barriers sit as a function of x.
///
/// Lane y-centers are fixed for every variant; only edge positions and lane
/// drivability vary with x. `Straight` is the serde default, so scenarios
/// serialized before topology existed deserialize to the legacy freeway.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RoadTopology {
    /// The legacy freeway: constant-width, all lanes drivable everywhere.
    #[default]
    Straight,
    /// An acceleration lane on the right that must merge into lane 0.
    OnRamp {
        /// x where the ramp pavement begins.
        ramp_start: f64,
        /// x where the ramp stops being drivable (merge deadline).
        merge_start: f64,
        /// x where the ramp pavement has fully tapered away.
        merge_end: f64,
    },
    /// The leftmost mainline lane ends and traffic must merge right.
    LaneDrop {
        /// x where the leftmost lane stops being drivable.
        drop_start: f64,
        /// x where the left barrier finishes tapering in one lane width.
        drop_end: f64,
    },
}

impl RoadTopology {
    /// Short stable label used in artifact names and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            RoadTopology::Straight => "straight",
            RoadTopology::OnRamp { .. } => "on_ramp",
            RoadTopology::LaneDrop { .. } => "lane_drop",
        }
    }
}

/// Static description of the freeway.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Road {
    /// Number of parallel mainline lanes (≥ 1); an on-ramp adds one more.
    pub num_lanes: usize,
    /// Width of each lane in meters.
    pub lane_width: f64,
    /// Total drivable length in meters (episodes start at x = 0).
    pub length: f64,
    /// Thickness of the edge barriers in meters (purely for rendering /
    /// collision extents).
    pub barrier_thickness: f64,
    /// Longitudinal shape (barrier placement as a function of x).
    #[serde(default)]
    pub topology: RoadTopology,
}

impl Default for Road {
    /// Three 3.5 m lanes over 1.5 km — the Town-4-like freeway used by every
    /// scenario in this crate.
    fn default() -> Self {
        Road {
            num_lanes: 3,
            lane_width: 3.5,
            length: 1500.0,
            barrier_thickness: 0.5,
            topology: RoadTopology::Straight,
        }
    }
}

impl Road {
    /// Creates a road, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_lanes == 0` or any dimension is non-positive.
    pub fn new(num_lanes: usize, lane_width: f64, length: f64) -> Self {
        assert!(num_lanes > 0, "road must have at least one lane");
        assert!(
            lane_width > 0.0 && length > 0.0,
            "lane width and length must be positive"
        );
        Road {
            num_lanes,
            lane_width,
            length,
            barrier_thickness: 0.5,
            topology: RoadTopology::Straight,
        }
    }

    /// Creates a freeway with an on-ramp acceleration lane merging into
    /// lane 0.
    ///
    /// # Panics
    ///
    /// Panics on invalid basic dimensions or unless
    /// `0 ≤ ramp_start < merge_start < merge_end ≤ length`.
    pub fn on_ramp(
        num_lanes: usize,
        lane_width: f64,
        length: f64,
        ramp_start: f64,
        merge_start: f64,
        merge_end: f64,
    ) -> Self {
        let mut road = Road::new(num_lanes, lane_width, length);
        assert!(
            0.0 <= ramp_start && ramp_start < merge_start && merge_start < merge_end,
            "need ramp_start < merge_start < merge_end"
        );
        assert!(merge_end <= length, "merge must finish on the road");
        road.topology = RoadTopology::OnRamp {
            ramp_start,
            merge_start,
            merge_end,
        };
        road
    }

    /// Creates a freeway whose leftmost lane ends at `drop_start`.
    ///
    /// # Panics
    ///
    /// Panics on invalid basic dimensions, fewer than two lanes, or unless
    /// `0 < drop_start < drop_end ≤ length`.
    pub fn lane_drop(
        num_lanes: usize,
        lane_width: f64,
        length: f64,
        drop_start: f64,
        drop_end: f64,
    ) -> Self {
        assert!(num_lanes >= 2, "lane drop needs at least two lanes");
        let mut road = Road::new(num_lanes, lane_width, length);
        assert!(
            0.0 < drop_start && drop_start < drop_end && drop_end <= length,
            "need 0 < drop_start < drop_end <= length"
        );
        road.topology = RoadTopology::LaneDrop {
            drop_start,
            drop_end,
        };
        road
    }

    /// Total width of the drivable surface.
    pub fn width(&self) -> f64 {
        self.num_lanes as f64 * self.lane_width
    }

    /// y coordinate of the right road edge (barrier inner face).
    pub fn right_edge_y(&self) -> f64 {
        -self.width() / 2.0
    }

    /// y coordinate of the left road edge (barrier inner face).
    pub fn left_edge_y(&self) -> f64 {
        self.width() / 2.0
    }

    /// Total number of addressable lanes: mainline lanes plus the on-ramp
    /// acceleration lane (index `num_lanes`) when present.
    pub fn total_lanes(&self) -> usize {
        self.num_lanes + usize::from(self.ramp_lane().is_some())
    }

    /// Index of the on-ramp acceleration lane, if this road has one.
    pub fn ramp_lane(&self) -> Option<usize> {
        match self.topology {
            RoadTopology::OnRamp { .. } => Some(self.num_lanes),
            _ => None,
        }
    }

    /// y coordinate of the centerline of `lane` (0 = rightmost mainline
    /// lane; `num_lanes` = on-ramp lane when present).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= total_lanes()`.
    pub fn lane_center_y(&self, lane: usize) -> f64 {
        assert!(lane < self.total_lanes(), "lane {lane} out of range");
        if lane == self.num_lanes {
            // Ramp lane: one lane width below the mainline's right edge.
            self.right_edge_y() - 0.5 * self.lane_width
        } else {
            self.right_edge_y() + (lane as f64 + 0.5) * self.lane_width
        }
    }

    /// Index of the lane containing lateral position `y`, clamped to the
    /// nearest lane when `y` is off the road.
    pub fn lane_of(&self, y: f64) -> usize {
        let rel = (y - self.right_edge_y()) / self.lane_width;
        (rel.floor().max(0.0) as usize).min(self.num_lanes - 1)
    }

    /// Signed lateral offset of `y` from the center of its (clamped) lane,
    /// positive towards the left.
    pub fn lane_offset(&self, y: f64) -> f64 {
        y - self.lane_center_y(self.lane_of(y))
    }

    /// Barrier inner faces at longitudinal position `x`, as
    /// `(right_edge, left_edge)` y coordinates.
    ///
    /// For [`RoadTopology::Straight`] this is exactly
    /// `(right_edge_y(), left_edge_y())` — same expressions, bit-identical.
    pub fn edge_ys_at(&self, x: f64) -> (f64, f64) {
        match self.topology {
            RoadTopology::Straight => (self.right_edge_y(), self.left_edge_y()),
            RoadTopology::OnRamp {
                ramp_start,
                merge_start,
                merge_end,
            } => {
                let right = if x < ramp_start || x > merge_end {
                    self.right_edge_y()
                } else if x <= merge_start {
                    self.right_edge_y() - self.lane_width
                } else {
                    // Closing taper: the ramp pocket narrows linearly to
                    // nothing over [merge_start, merge_end].
                    let t = (x - merge_start) / (merge_end - merge_start);
                    self.right_edge_y() - self.lane_width * (1.0 - t)
                };
                (right, self.left_edge_y())
            }
            RoadTopology::LaneDrop {
                drop_start,
                drop_end,
            } => {
                let left = if x < drop_start {
                    self.left_edge_y()
                } else if x > drop_end {
                    self.left_edge_y() - self.lane_width
                } else {
                    let t = (x - drop_start) / (drop_end - drop_start);
                    self.left_edge_y() - self.lane_width * t
                };
                (self.right_edge_y(), left)
            }
        }
    }

    /// Topology-aware lane index at `(x, y)`: reports the ramp lane for
    /// points below the mainline's right edge while ramp pavement exists
    /// there, and the clamped mainline lane otherwise.
    pub fn lane_index_at(&self, x: f64, y: f64) -> usize {
        if let RoadTopology::OnRamp {
            ramp_start,
            merge_end,
            ..
        } = self.topology
        {
            if y <= self.right_edge_y() && x >= ramp_start && x <= merge_end {
                return self.num_lanes;
            }
        }
        self.lane_of(y)
    }

    /// Whether `lane` is fully drivable at longitudinal position `x`.
    ///
    /// A closing lane stops being "open" at its merge deadline
    /// ([`Road::lane_end_x`]) even though pavement tapers on for a while.
    pub fn lane_open_at(&self, lane: usize, x: f64) -> bool {
        match self.topology {
            RoadTopology::Straight => lane < self.num_lanes,
            RoadTopology::OnRamp {
                ramp_start,
                merge_start,
                ..
            } => {
                if lane == self.num_lanes {
                    x >= ramp_start && x < merge_start
                } else {
                    lane < self.num_lanes
                }
            }
            RoadTopology::LaneDrop { drop_start, .. } => {
                if lane + 1 == self.num_lanes {
                    x < drop_start
                } else {
                    lane < self.num_lanes
                }
            }
        }
    }

    /// x beyond which `lane` is no longer drivable, or `None` for lanes
    /// that run the whole road. Planners start merging ahead of this.
    pub fn lane_end_x(&self, lane: usize) -> Option<f64> {
        match self.topology {
            RoadTopology::Straight => None,
            RoadTopology::OnRamp { merge_start, .. } => {
                (lane == self.num_lanes).then_some(merge_start)
            }
            RoadTopology::LaneDrop { drop_start, .. } => {
                (lane + 1 == self.num_lanes).then_some(drop_start)
            }
        }
    }

    /// The adjacent lane traffic in an ending `lane` must merge into;
    /// returns `lane` itself for lanes that never end.
    pub fn merge_target(&self, lane: usize) -> usize {
        match self.lane_end_x(lane) {
            Some(_) if lane == self.num_lanes => 0,
            Some(_) => lane - 1,
            None => lane,
        }
    }

    /// Whether the point is on the drivable surface.
    #[cfg(test)]
    pub fn on_road(&self, p: Vec2) -> bool {
        let (right, left) = self.edge_ys_at(p.x);
        p.y > right && p.y < left && p.x >= 0.0 && p.x <= self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_road_dimensions() {
        let r = Road::default();
        assert_eq!(r.num_lanes, 3);
        assert!((r.width() - 10.5).abs() < 1e-12);
        assert!((r.left_edge_y() - 5.25).abs() < 1e-12);
        assert!((r.right_edge_y() + 5.25).abs() < 1e-12);
    }

    #[test]
    fn lane_centers_are_evenly_spaced() {
        let r = Road::default();
        let c0 = r.lane_center_y(0);
        let c1 = r.lane_center_y(1);
        let c2 = r.lane_center_y(2);
        assert!((c1 - c0 - r.lane_width).abs() < 1e-12);
        assert!((c2 - c1 - r.lane_width).abs() < 1e-12);
        // Middle lane of 3 is centered on y = 0.
        assert!(c1.abs() < 1e-12);
    }

    #[test]
    fn lane_of_round_trips_lane_centers() {
        let r = Road::default();
        for lane in 0..r.num_lanes {
            assert_eq!(r.lane_of(r.lane_center_y(lane)), lane);
        }
    }

    #[test]
    fn lane_of_clamps_off_road() {
        let r = Road::default();
        assert_eq!(r.lane_of(-100.0), 0);
        assert_eq!(r.lane_of(100.0), r.num_lanes - 1);
    }

    #[test]
    fn lane_offset_zero_at_center() {
        let r = Road::default();
        assert!(r.lane_offset(r.lane_center_y(1)).abs() < 1e-12);
        assert!((r.lane_offset(r.lane_center_y(1) + 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn on_road_respects_edges() {
        let r = Road::default();
        assert!(r.on_road(Vec2::new(10.0, 0.0)));
        assert!(!r.on_road(Vec2::new(10.0, 5.3)));
        assert!(!r.on_road(Vec2::new(-1.0, 0.0)));
        assert!(!r.on_road(Vec2::new(r.length + 1.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_road_rejected() {
        let _ = Road::new(0, 3.5, 100.0);
    }

    #[test]
    fn straight_x_queries_match_legacy_formulas() {
        let r = Road::default();
        for x in [-10.0, 0.0, 500.0, r.length, r.length + 10.0] {
            let (right, left) = r.edge_ys_at(x);
            assert_eq!(right, r.right_edge_y());
            assert_eq!(left, r.left_edge_y());
            for y in [-8.0, -2.0, 0.0, 2.0, 8.0] {
                assert_eq!(r.lane_index_at(x, y), r.lane_of(y));
            }
        }
        assert_eq!(r.total_lanes(), r.num_lanes);
        assert_eq!(r.ramp_lane(), None);
        assert_eq!(r.lane_end_x(2), None);
        assert_eq!(r.merge_target(2), 2);
        assert!(r.lane_open_at(0, 0.0) && r.lane_open_at(2, 1400.0));
        assert!(!r.lane_open_at(3, 0.0));
    }

    #[test]
    fn on_ramp_geometry() {
        let r = Road::on_ramp(3, 3.5, 1500.0, 0.0, 220.0, 300.0);
        assert_eq!(r.total_lanes(), 4);
        assert_eq!(r.ramp_lane(), Some(3));
        // Ramp lane center sits one half lane below the mainline right edge.
        assert!((r.lane_center_y(3) - (r.right_edge_y() - 1.75)).abs() < 1e-12);
        // Edges: full pocket before merge_start, tapering to nothing after.
        assert!((r.edge_ys_at(100.0).0 - (r.right_edge_y() - 3.5)).abs() < 1e-12);
        assert!((r.edge_ys_at(260.0).0 - (r.right_edge_y() - 1.75)).abs() < 1e-12);
        assert_eq!(r.edge_ys_at(300.1).0, r.right_edge_y());
        // Drivability and merge planning.
        assert!(r.lane_open_at(3, 100.0));
        assert!(!r.lane_open_at(3, 220.0));
        assert_eq!(r.lane_end_x(3), Some(220.0));
        assert_eq!(r.merge_target(3), 0);
        // Points on the ramp pavement are on-road and classified as lane 3.
        let ramp_y = r.lane_center_y(3);
        assert!(r.on_road(Vec2::new(100.0, ramp_y)));
        assert!(!r.on_road(Vec2::new(400.0, ramp_y)));
        assert_eq!(r.lane_index_at(100.0, ramp_y), 3);
        assert_eq!(r.lane_index_at(400.0, ramp_y), 0);
    }

    #[test]
    fn lane_drop_geometry() {
        let r = Road::lane_drop(3, 3.5, 1500.0, 400.0, 480.0);
        assert_eq!(r.total_lanes(), 3);
        // Left edge tapers in one lane width across the drop.
        assert_eq!(r.edge_ys_at(100.0).1, r.left_edge_y());
        assert!((r.edge_ys_at(440.0).1 - (r.left_edge_y() - 1.75)).abs() < 1e-12);
        assert!((r.edge_ys_at(600.0).1 - (r.left_edge_y() - 3.5)).abs() < 1e-12);
        // Lane 2 ends at the drop; lanes 0/1 run through.
        assert!(r.lane_open_at(2, 399.0) && !r.lane_open_at(2, 400.0));
        assert!(r.lane_open_at(1, 1000.0) && r.lane_open_at(0, 1000.0));
        assert_eq!(r.lane_end_x(2), Some(400.0));
        assert_eq!(r.merge_target(2), 1);
        // Lane 2's center becomes off-road once the taper crosses it.
        let y2 = r.lane_center_y(2);
        assert!(r.on_road(Vec2::new(100.0, y2)));
        assert!(!r.on_road(Vec2::new(600.0, y2)));
    }

    #[test]
    fn topology_defaults_to_straight() {
        assert_eq!(RoadTopology::default(), RoadTopology::Straight);
        assert_eq!(Road::new(3, 3.5, 1500.0).topology, RoadTopology::Straight);
        assert_eq!(RoadTopology::Straight.label(), "straight");
        assert_eq!(
            Road::on_ramp(3, 3.5, 1500.0, 0.0, 220.0, 300.0)
                .topology
                .label(),
            "on_ramp"
        );
        assert_eq!(
            Road::lane_drop(3, 3.5, 1500.0, 400.0, 480.0)
                .topology
                .label(),
            "lane_drop"
        );
    }

    #[test]
    #[should_panic(expected = "merge must finish")]
    fn on_ramp_merge_past_end_rejected() {
        let _ = Road::on_ramp(3, 3.5, 300.0, 0.0, 250.0, 400.0);
    }

    #[test]
    #[should_panic(expected = "at least two lanes")]
    fn single_lane_drop_rejected() {
        let _ = Road::lane_drop(1, 3.5, 1500.0, 400.0, 480.0);
    }
}
