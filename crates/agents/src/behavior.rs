//! Behaviour layer of the modular pipeline: lane-change decisions and local
//! waypoint planning.
//!
//! This is the paper's "aggressive mode" configuration (Section III-B): a
//! high reference speed, short following distances allowing decisive lane
//! changes, and permission to overtake in all lanes. The same planner also
//! provides the *privileged reference path* used by the end-to-end agent's
//! shaped reward (Section III-C) and by the trajectory-deviation metric of
//! Fig. 5 / Fig. 7.

use drive_sim::road::Road;
use drive_sim::waypoints::{lane_change_path_into, lane_keep_path_into, Path};
use drive_sim::world::World;
use serde::{Deserialize, Serialize};

/// Tunables of the behaviour layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorConfig {
    /// Reference cruise speed, m/s.
    pub ref_speed: f64,
    /// Distance ahead at which a slower lead triggers an overtake decision.
    pub decision_distance: f64,
    /// Required clear space behind the ego in the target lane, meters.
    pub gap_behind: f64,
    /// Required clear space ahead of the ego in the target lane, meters.
    pub gap_ahead: f64,
    /// Longitudinal distance over which a lane change completes, meters.
    pub change_distance: f64,
    /// Waypoint spacing, meters.
    pub spacing: f64,
    /// Number of waypoints in each local plan.
    pub horizon: usize,
}

impl Default for BehaviorConfig {
    /// The aggressive freeway tuning used throughout the experiments.
    fn default() -> Self {
        BehaviorConfig {
            ref_speed: 16.0,
            decision_distance: 50.0,
            gap_behind: 6.0,
            gap_ahead: 30.0,
            change_distance: 30.0,
            spacing: 2.0,
            horizon: 40,
        }
    }
}

/// The maneuver currently being executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Maneuver {
    /// Keeping the target lane.
    KeepLane,
    /// Executing a lane change that started at longitudinal position `from_x`
    /// from lateral position `from_y`, leaving `from_lane`.
    Changing {
        /// x where the change began.
        from_x: f64,
        /// y where the change began.
        from_y: f64,
        /// Lane the change departs from (for aborts).
        from_lane: usize,
    },
}

/// Memoized lane-change path. The path produced by the `Changing` branch
/// depends only on `(y0, target-lane center, x0)` and the planner's fixed
/// config, and those stay constant for the entire maneuver — so the 40
/// `atan` calls of `lane_change_path_into` run once per maneuver and every
/// following step copies the cached waypoints instead.
#[derive(Debug, Clone, Default)]
struct ChangeCache {
    /// `(y0, target-lane center y, x0)` as bits, when the cache is valid.
    key: Option<(u64, u64, u64)>,
    path: Path,
}

/// Stateful lane-change planner.
///
/// One instance per episode; call [`BehaviorPlanner::plan`] every control
/// step to obtain the current local waypoint path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BehaviorPlanner {
    config: BehaviorConfig,
    target_lane: usize,
    maneuver: Maneuver,
    /// Not part of the logical planner state (pure memoization).
    #[serde(skip, default)]
    change_cache: ChangeCache,
}

// The cache is excluded from equality: a deserialized planner (empty
// cache) must compare equal to the live planner it was saved from.
impl PartialEq for BehaviorPlanner {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.target_lane == other.target_lane
            && self.maneuver == other.maneuver
    }
}

impl BehaviorPlanner {
    /// Creates a planner starting in `initial_lane`.
    pub fn new(config: BehaviorConfig, initial_lane: usize) -> Self {
        BehaviorPlanner {
            config,
            target_lane: initial_lane,
            maneuver: Maneuver::KeepLane,
            // Pre-sized so the first memoized maneuver allocates nothing.
            change_cache: ChangeCache {
                key: None,
                path: Path::with_capacity(config.horizon),
            },
        }
    }

    /// `lane_change_path_into` through the maneuver-lifetime memo: a hit
    /// copies the cached waypoints (the inputs are bitwise those of the
    /// cached build, so the output is bitwise identical too); a miss
    /// builds normally and refreshes the cache.
    #[allow(clippy::too_many_arguments)]
    fn change_path_cached(
        &mut self,
        road: &Road,
        y0: f64,
        target_lane: usize,
        x0: f64,
        out: &mut Path,
    ) {
        let c = self.config;
        let y1 = road.lane_center_y(target_lane);
        let key = (y0.to_bits(), y1.to_bits(), x0.to_bits());
        if self.change_cache.key == Some(key) {
            out.copy_from(&self.change_cache.path);
            return;
        }
        lane_change_path_into(
            road,
            y0,
            target_lane,
            x0,
            c.change_distance,
            c.horizon,
            c.spacing,
            c.ref_speed,
            out,
        );
        self.change_cache.path.copy_from(out);
        self.change_cache.key = Some(key);
    }

    /// The lane the planner is currently steering towards.
    pub fn target_lane(&self) -> usize {
        self.target_lane
    }

    /// The maneuver in progress.
    pub fn maneuver(&self) -> Maneuver {
        self.maneuver
    }

    /// The configuration in use.
    pub fn config(&self) -> &BehaviorConfig {
        &self.config
    }

    /// Distance to the nearest NPC ahead of `x` in `lane`, if any.
    fn lead_distance(world: &World, lane: usize, x: f64) -> Option<f64> {
        let road = &world.scenario().road;
        world
            .npcs()
            .iter()
            .filter(|n| {
                let p = n.vehicle.pose.position;
                road.lane_index_at(p.x, p.y) == lane
            })
            .map(|n| n.vehicle.pose.position.x - x)
            .filter(|d| *d > 0.0)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Whether `lane` has a safe gap around longitudinal position `x`.
    fn lane_clear(&self, world: &World, lane: usize, x: f64) -> bool {
        let road = &world.scenario().road;
        !world.npcs().iter().any(|n| {
            let p = n.vehicle.pose.position;
            road.lane_index_at(p.x, p.y) == lane
                && p.x > x - self.config.gap_behind
                && p.x < x + self.config.gap_ahead
        })
    }

    /// Updates the lane decision and returns the local waypoint plan from
    /// the ego vehicle's current position.
    ///
    /// Allocates a fresh [`Path`] per call; hot loops should hold a reused
    /// buffer and call [`BehaviorPlanner::plan_into`] instead.
    pub fn plan(&mut self, world: &World) -> Path {
        let mut out = Path::default();
        self.plan_into(world, &mut out);
        out
    }

    /// [`BehaviorPlanner::plan`], writing the waypoints into `out` (cleared
    /// first). After warmup the call is allocation-free: the waypoint
    /// buffer, the candidate-lane array, and the wide-berth offset all live
    /// in reused or stack storage.
    pub fn plan_into(&mut self, world: &World, out: &mut Path) {
        let road = &world.scenario().road;
        let ego = world.ego();
        let pos = ego.pose.position;
        let c = self.config;

        match self.maneuver {
            Maneuver::Changing {
                from_x,
                from_y,
                from_lane,
            } => {
                // Abort if the target lane filled in behind/beside us before
                // we crossed the boundary (e.g. after heavy braking let a
                // trailing vehicle catch up).
                let crossed = (pos.y - road.lane_center_y(from_lane)).abs() > road.lane_width / 2.0;
                let occupied = world.npcs().iter().any(|n| {
                    let p = n.vehicle.pose.position;
                    road.lane_index_at(p.x, p.y) == self.target_lane
                        && p.x > pos.x - c.gap_behind
                        && p.x < pos.x + 10.0
                });
                if !crossed && occupied {
                    let old_target = self.target_lane;
                    self.target_lane = from_lane;
                    self.maneuver = Maneuver::Changing {
                        from_x: pos.x,
                        from_y: pos.y,
                        from_lane: old_target,
                    };
                    self.change_path_cached(road, pos.y, from_lane, pos.x, out);
                    return;
                }
                // Change completes once the blend distance has been covered
                // and the ego is near the target center.
                let target_y = road.lane_center_y(self.target_lane);
                if pos.x - from_x >= c.change_distance && (pos.y - target_y).abs() < 0.4 {
                    self.maneuver = Maneuver::KeepLane;
                } else {
                    self.change_path_cached(road, from_y, self.target_lane, from_x, out);
                    return;
                }
            }
            Maneuver::KeepLane => {}
        }

        // Forced merge: when the current target lane ends ahead (on-ramp
        // deadline or lane drop), change into the merge target before the
        // decision horizon runs out — immediately if the gap is clear, and
        // unconditionally once the deadline is close enough that waiting
        // would strand the ego on closing pavement.
        if let Some(end) = road.lane_end_x(self.target_lane) {
            let remaining = end - pos.x;
            let target = road.merge_target(self.target_lane);
            if remaining <= c.decision_distance
                && (self.lane_clear(world, target, pos.x) || remaining <= c.change_distance + 10.0)
            {
                let from_lane = self.target_lane;
                self.target_lane = target;
                self.maneuver = Maneuver::Changing {
                    from_x: pos.x,
                    from_y: pos.y,
                    from_lane,
                };
                self.change_path_cached(road, pos.y, target, pos.x, out);
                return;
            }
        }

        // Lane-change decision: a slower lead within decision distance in
        // the current target lane triggers a search for a clear lane,
        // preferring the left (overtaking) side. Lanes that are closed (or
        // about to close) within the decision horizon are never candidates.
        if let Some(lead) = Self::lead_distance(world, self.target_lane, pos.x) {
            if lead < c.decision_distance {
                // At most two adjacent lanes, left preferred: a fixed-size
                // candidate array keeps the decision allocation-free.
                let mut candidates = [0usize; 2];
                let mut n_cand = 0;
                if self.target_lane + 1 < road.num_lanes {
                    candidates[n_cand] = self.target_lane + 1;
                    n_cand += 1;
                }
                if self.target_lane > 0 {
                    candidates[n_cand] = self.target_lane - 1;
                    n_cand += 1;
                }
                if let Some(&lane) = candidates[..n_cand]
                    .iter()
                    .filter(|&&lane| road.lane_open_at(lane, pos.x + c.decision_distance))
                    .find(|&&lane| self.lane_clear(world, lane, pos.x))
                {
                    let from_lane = self.target_lane;
                    self.target_lane = lane;
                    self.maneuver = Maneuver::Changing {
                        from_x: pos.x,
                        from_y: pos.y,
                        from_lane,
                    };
                    self.change_path_cached(road, pos.y, lane, pos.x, out);
                    return;
                }
            }
        }

        // Lane keeping with a defensive "wide berth": when passing a
        // vehicle in an adjacent lane, bias the path away from it (within
        // the own lane) to maximize the margin a steering fault or attack
        // would have to cross.
        lane_keep_path_into(
            road,
            self.target_lane,
            pos.x,
            c.horizon,
            c.spacing,
            c.ref_speed,
            out,
        );
        let lane_y = road.lane_center_y(self.target_lane);
        let mut bias: f64 = 0.0;
        for npc in world.npcs() {
            let p = npc.vehicle.pose.position;
            if (p.x - pos.x).abs() < 12.0 && (p.y - lane_y).abs() < 1.5 * road.lane_width {
                let side = (p.y - lane_y).signum();
                if side != 0.0 {
                    bias = bias.abs().max(0.7) * -side;
                }
            }
        }
        if bias != 0.0 {
            // Keep a safe distance from the road edges: a berth that trades
            // NPC margin for barrier margin helps nobody (and a cloned
            // policy's imprecision would turn it into barrier strikes).
            let lane_y = road.lane_center_y(self.target_lane);
            let max_off = (road.lane_width - world.ego().params.width) / 2.0 - 0.2;
            let (right_edge, left_edge) = road.edge_ys_at(pos.x);
            let max_left = (left_edge - lane_y - 1.6).max(0.0);
            let max_right = (lane_y - right_edge - 1.6).max(0.0);
            let offset = bias.clamp(-max_off, max_off).clamp(-max_right, max_left);
            out.offset_lateral(offset);
        }
    }

    /// Desired speed given the traffic ahead: the reference speed, reduced
    /// towards the lead's speed when trapped behind one
    /// (constant-time-headway, aggressive tuning).
    ///
    /// While mid-change, the lane being vacated only triggers emergency
    /// braking (very short gap) — the aggressive configuration does not
    /// brake for a car it is already steering away from.
    pub fn desired_speed(&self, world: &World) -> f64 {
        let road = &world.scenario().road;
        let ego = world.ego();
        let pos = ego.pose.position;
        let current_lane = road.lane_of(pos.y);
        let mut desired: f64 = self.config.ref_speed;
        let lead_in = |lane: usize| {
            world
                .npcs()
                .iter()
                .filter(|n| {
                    let p = n.vehicle.pose.position;
                    road.lane_index_at(p.x, p.y) == lane
                })
                .filter(|n| n.vehicle.pose.position.x > pos.x)
                .min_by(|a, b| {
                    a.vehicle
                        .pose
                        .position
                        .x
                        .total_cmp(&b.vehicle.pose.position.x)
                })
        };
        // Full headway control against the target lane's lead.
        if let Some(lead) = lead_in(self.target_lane) {
            let gap = lead.vehicle.pose.position.x - pos.x;
            let min_gap = 6.0;
            let headway = 0.8; // aggressive: short following distance
            let desired_gap = min_gap + headway * ego.speed;
            if gap < desired_gap {
                let ratio = ((gap - min_gap) / (desired_gap - min_gap)).clamp(0.0, 1.0);
                let v = lead.vehicle.speed
                    + ratio * (self.config.ref_speed - lead.vehicle.speed).max(0.0);
                desired = desired.min(v);
            }
        }
        // Emergency braking against the lane being vacated: the threshold
        // scales with speed so a change initiated close behind a slow lead
        // sheds enough speed to clear laterally before contact.
        if current_lane != self.target_lane {
            if let Some(lead) = lead_in(current_lane) {
                let gap = lead.vehicle.pose.position.x - pos.x;
                if gap < (0.9 * ego.speed).max(12.0) {
                    desired = desired.min((lead.vehicle.speed - 2.0).max(0.0));
                }
            }
        }
        // Side-collision avoidance: if the ego is drifting laterally
        // towards a vehicle alongside, brake hard and fall behind it. This
        // is the escape route the paper grants the victim (§IV-A: the
        // thrust unit is unattacked, so "the ego vehicle [can] brake ...
        // and avoid a collision") and is what forces the attacker to
        // exceed a tolerance threshold before succeeding.
        let lateral_velocity = ego.velocity().y;
        for npc in world.npcs() {
            let npc_pos = npc.vehicle.pose.position;
            let dx = npc_pos.x - pos.x;
            let dy = npc_pos.y - pos.y;
            if dx.abs() < 10.0 && dy.abs() < 3.2 && dy.abs() > 0.1 {
                let closing = lateral_velocity * dy.signum();
                if closing > 0.15 {
                    desired = desired.min((npc.vehicle.speed - 5.0).max(0.0));
                }
            }
        }
        desired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::{NpcSpawn, Scenario};
    use drive_sim::vehicle::Actuation;

    fn scenario_with(npcs: Vec<NpcSpawn>) -> World {
        World::new(Scenario {
            npcs,
            ..Default::default()
        })
    }

    #[test]
    fn keeps_lane_on_empty_road() {
        let world = scenario_with(vec![]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let path = p.plan(&world);
        assert_eq!(p.target_lane(), 1);
        assert_eq!(p.maneuver(), Maneuver::KeepLane);
        let road = &world.scenario().road;
        for w in path.waypoints() {
            assert!((w.position.y - road.lane_center_y(1)).abs() < 1e-9);
        }
    }

    #[test]
    fn initiates_change_for_slow_lead() {
        // Lead in ego's lane, left lane clear → change left.
        let world = scenario_with(vec![NpcSpawn {
            lane: 1,
            x: 30.0,
            speed: 6.0,
        }]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 2, "prefers the left lane");
        assert!(matches!(p.maneuver(), Maneuver::Changing { .. }));
    }

    #[test]
    fn falls_back_right_when_left_blocked() {
        let world = scenario_with(vec![
            NpcSpawn {
                lane: 1,
                x: 30.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 20.0,
                speed: 6.0,
            },
        ]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 0, "left blocked, goes right");
    }

    #[test]
    fn stays_when_both_sides_blocked() {
        let world = scenario_with(vec![
            NpcSpawn {
                lane: 1,
                x: 30.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 20.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 0,
                x: 15.0,
                speed: 6.0,
            },
        ]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 1);
        assert_eq!(p.maneuver(), Maneuver::KeepLane);
    }

    #[test]
    fn merges_out_of_an_ending_lane() {
        // Ego keeps lane 2 of a lane-drop road; the drop is inside the
        // decision horizon, so the planner must initiate a merge right.
        let road = drive_sim::road::Road::lane_drop(3, 3.5, 1500.0, 40.0, 120.0);
        let world = World::new(Scenario {
            road,
            ego_lane: 2,
            npcs: vec![],
            ..Default::default()
        });
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 2);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 1, "must merge out of the ending lane");
        assert!(matches!(p.maneuver(), Maneuver::Changing { .. }));
    }

    #[test]
    fn never_overtakes_into_a_closing_lane() {
        // Slow lead ahead in lane 1; lane 2 closes within the decision
        // horizon, so the planner must overtake right instead of left.
        let road = drive_sim::road::Road::lane_drop(3, 3.5, 1500.0, 45.0, 120.0);
        let world = World::new(Scenario {
            road,
            npcs: vec![NpcSpawn {
                lane: 1,
                x: 30.0,
                speed: 6.0,
            }],
            ..Default::default()
        });
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 0, "lane 2 is closing, go right");
    }

    #[test]
    fn desired_speed_drops_behind_close_lead() {
        let world = scenario_with(vec![NpcSpawn {
            lane: 1,
            x: 12.0,
            speed: 6.0,
        }]);
        let p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let v = p.desired_speed(&world);
        assert!(v < 16.0, "desired speed {v} should drop");
        let empty = scenario_with(vec![]);
        assert_eq!(p.desired_speed(&empty), 16.0);
    }

    #[test]
    fn wide_berth_biases_away_from_alongside_npc() {
        // NPC alongside in lane 0 while ego keeps lane 1: the plan shifts
        // towards lane 2's side (positive y bias).
        let world = scenario_with(vec![NpcSpawn {
            lane: 0,
            x: 2.0,
            speed: 6.0,
        }]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let path = p.plan(&world);
        let road = &world.scenario().road;
        let near = path.waypoints()[0].position.y;
        assert!(
            near > road.lane_center_y(1) + 0.3,
            "berth should bias left, got y {near}"
        );
    }

    #[test]
    fn wide_berth_capped_near_road_edge() {
        // Ego in the leftmost lane with an NPC on its right: the bias would
        // point at the barrier and must be capped to keep edge margin.
        let s = Scenario {
            ego_lane: 2,
            npcs: vec![NpcSpawn {
                lane: 1,
                x: 2.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let world = World::new(s);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 2);
        let path = p.plan(&world);
        let road = &world.scenario().road;
        let y = path.waypoints()[0].position.y;
        assert!(
            road.left_edge_y() - y >= 1.6 - 1e-9,
            "berth must keep >= 1.6 m to the barrier, got {:.2}",
            road.left_edge_y() - y
        );
    }

    #[test]
    fn change_aborts_when_target_lane_fills() {
        // Start a change towards lane 2, then teleport an NPC beside the
        // ego in lane 2 before the boundary is crossed: the planner must
        // abort back to lane 1.
        let mut world = scenario_with(vec![NpcSpawn {
            lane: 1,
            x: 35.0,
            speed: 6.0,
        }]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 2);
        // Rebuild the world with an NPC blocking lane 2 right beside x=0.
        let s = Scenario {
            npcs: vec![
                NpcSpawn {
                    lane: 1,
                    x: 35.0,
                    speed: 6.0,
                },
                NpcSpawn {
                    lane: 2,
                    x: 4.0,
                    speed: 6.0,
                },
            ],
            ..Default::default()
        };
        world = World::new(s);
        let _ = p.plan(&world);
        assert_eq!(p.target_lane(), 1, "abort must retarget the origin lane");
        assert!(matches!(p.maneuver(), Maneuver::Changing { .. }));
    }

    #[test]
    fn defensive_brake_on_lateral_drift_towards_npc() {
        // NPC alongside; give the ego a heading towards it → lateral
        // closing velocity → desired speed collapses.
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 2,
                x: 3.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let mut world = World::new(s);
        // Induce a leftward drift.
        for _ in 0..4 {
            world.step(drive_sim::vehicle::Actuation::new(0.6, 0.0));
        }
        let p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let v = p.desired_speed(&world);
        assert!(v < 6.0, "defensive brake expected, desired {v}");
    }

    #[test]
    fn plan_into_matches_plan_through_a_full_episode() {
        // Drive a scripted episode twice — once through the allocating
        // `plan` and once through `plan_into` with one reused buffer — and
        // require identical decisions and waypoints at every step.
        let road = drive_sim::road::Road::lane_drop(3, 3.5, 1500.0, 300.0, 380.0);
        let mut world = World::new(Scenario {
            road,
            npcs: vec![
                NpcSpawn {
                    lane: 1,
                    x: 30.0,
                    speed: 6.0,
                },
                NpcSpawn {
                    lane: 2,
                    x: 60.0,
                    speed: 7.0,
                },
            ],
            ..Default::default()
        });
        let mut a = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        let mut b = a.clone();
        let mut buf = drive_sim::waypoints::Path::default();
        let mut cap = 0usize;
        for step in 0..120 {
            let path = a.plan(&world);
            b.plan_into(&world, &mut buf);
            assert_eq!(path.waypoints(), buf.waypoints(), "step {step}");
            assert_eq!(a.target_lane(), b.target_lane());
            assert_eq!(a.maneuver(), b.maneuver());
            if step == 0 {
                cap = buf.len();
            } else {
                assert_eq!(buf.len(), cap, "horizon is fixed");
            }
            let proj = path.project(world.ego().pose.position, world.ego().pose.heading);
            let steer = (-0.4 * proj.cross_track - 1.5 * proj.heading_error).clamp(-1.0, 1.0);
            world.step(Actuation::new(steer, 0.2));
            if world.is_done() {
                break;
            }
        }
    }

    #[test]
    fn change_completes_and_returns_to_keep_lane() {
        let mut world = scenario_with(vec![NpcSpawn {
            lane: 1,
            x: 30.0,
            speed: 6.0,
        }]);
        let mut p = BehaviorPlanner::new(BehaviorConfig::default(), 1);
        // Drive the world forward with a simple tracker: steer from the
        // plan's projected heading.
        for _ in 0..120 {
            let path = p.plan(&world);
            let proj = path.project(world.ego().pose.position, world.ego().pose.heading);
            let look = path.lookahead(world.ego().pose.position, 4);
            let to = look.position - world.ego().pose.position;
            let heading_err = drive_sim::geometry::angle_diff(to.angle(), world.ego().pose.heading);
            let steer = (3.0 * heading_err - 0.1 * proj.cross_track).clamp(-1.0, 1.0);
            world.step(Actuation::new(steer, 0.0));
            if world.is_done() {
                break;
            }
        }
        assert_eq!(p.maneuver(), Maneuver::KeepLane, "change should complete");
        let road = &world.scenario().road;
        let offset = world.ego().pose.position.y - road.lane_center_y(2);
        assert!(
            offset.abs() < 1.0,
            "ended near lane 2 center, offset {offset}"
        );
    }
}
