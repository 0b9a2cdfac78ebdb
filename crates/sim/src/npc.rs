//! Non-player-character (NPC) traffic vehicles.
//!
//! The paper's scenario has six NPC vehicles traveling at a slow reference
//! speed (6 m/s) that the ego vehicle must overtake. Each NPC is a full
//! [`crate::vehicle::Vehicle`] driven by a simple lane-keeping
//! controller with car-following: it holds its lane center, regulates to its
//! reference speed, and slows down behind any slower vehicle ahead in the
//! same lane.

use crate::road::Road;
use crate::vehicle::{Actuation, Vehicle};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Gains and limits of the NPC lane-keeping controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpcControllerParams {
    /// Proportional gain on lateral offset, 1/m.
    pub k_lateral: f64,
    /// Proportional gain on heading error.
    pub k_heading: f64,
    /// Proportional gain on speed error, s/m.
    pub k_speed: f64,
    /// Desired time headway to the vehicle ahead, seconds.
    pub time_headway: f64,
    /// Minimum standstill gap, meters.
    pub min_gap: f64,
    /// Distance before an ending lane's merge deadline at which the NPC
    /// starts steering for the merge target lane, meters.
    #[serde(default = "default_merge_lookahead")]
    pub merge_lookahead: f64,
}

fn default_merge_lookahead() -> f64 {
    60.0
}

impl Default for NpcControllerParams {
    fn default() -> Self {
        NpcControllerParams {
            k_lateral: 0.15,
            k_heading: 1.2,
            k_speed: 0.5,
            time_headway: 1.5,
            min_gap: 6.0,
            merge_lookahead: default_merge_lookahead(),
        }
    }
}

/// An NPC vehicle: dynamics plus its lane assignment and reference speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Npc {
    /// Underlying vehicle dynamics.
    pub vehicle: Vehicle,
    /// Lane this NPC keeps.
    pub lane: usize,
    /// Cruise speed when unobstructed, m/s.
    pub ref_speed: f64,
    /// Controller parameters.
    pub controller: NpcControllerParams,
}

/// Minimal view of another vehicle used for car-following decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeadInfo {
    /// Longitudinal position (x) of the lead vehicle's center.
    pub x: f64,
    /// Lane the lead vehicle currently occupies.
    pub lane: usize,
    /// Speed of the lead vehicle, m/s.
    pub speed: f64,
}

/// One row of a [`LeadTable`]: a vehicle's car-following view plus the
/// index it had in the serial `others` iteration order (NPCs in index
/// order, ego last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadEntry {
    /// Longitudinal position (x) of the vehicle's center.
    pub x: f64,
    /// Speed, m/s.
    pub speed: f64,
    /// Lane the vehicle currently occupies ([`Road::lane_index_at`]).
    pub lane: usize,
    /// Serial-order index: NPC index, or `npcs.len()` for the ego.
    pub index: usize,
}

/// Per-world lead bookkeeping rebuilt once per control step: every vehicle
/// bucketed by lane and sorted by `(x, index)`, plus the per-lane
/// [`Road`] topology queries hoisted out of the per-NPC loop.
///
/// This replaces the serial engine's O(N²) scan (each NPC filtering a
/// fresh `others` slice) with one O(N log N) build and O(log N) queries,
/// while reproducing the serial winners bit-for-bit:
///
/// * the serial lead scan is `filter(lane == L && x > x0).min_by(x)`,
///   and `Iterator::min_by` keeps the FIRST element among equal minima —
///   iteration order is `index` order. Sorting a lane's entries by
///   `(x, index)` makes "first entry past `x0`" exactly that winner. The
///   querying NPC's own row never matches (`x > x0` is strict).
/// * the serial blocker scan minimizes `|x - x0|` with the same
///   first-minimal rule, so the table query tie-breaks equal `|dx|` keys
///   (compared via `total_cmp`, like the serial scan) on `index` and must
///   skip the querying NPC's own row explicitly.
#[derive(Debug, Clone, Default)]
pub struct LeadTable {
    /// All vehicles, sorted by `(lane, x, index)`.
    entries: Vec<LeadEntry>,
    /// Half-open `[start, end)` ranges into `entries`, one per lane.
    lanes: Vec<(u32, u32)>,
    /// Hoisted [`Road::lane_center_y`] per lane.
    center_y: Vec<f64>,
    /// Hoisted [`Road::lane_end_x`] per lane.
    end_x: Vec<Option<f64>>,
    /// Hoisted [`Road::merge_target`] per lane.
    merge_target: Vec<usize>,
}

impl LeadTable {
    /// Rebuilds the table from the pre-step world state. Reuses all
    /// buffers; steady-state rebuilds make no heap allocations.
    pub fn rebuild(&mut self, road: &Road, npcs: &[Npc], ego: &Vehicle) {
        let total = road.total_lanes();
        self.center_y.clear();
        self.end_x.clear();
        self.merge_target.clear();
        for lane in 0..total {
            self.center_y.push(road.lane_center_y(lane));
            self.end_x.push(road.lane_end_x(lane));
            self.merge_target.push(road.merge_target(lane));
        }
        self.entries.clear();
        for (index, n) in npcs.iter().enumerate() {
            let p = n.vehicle.pose.position;
            self.entries.push(LeadEntry {
                x: p.x,
                speed: n.vehicle.speed,
                lane: road.lane_index_at(p.x, p.y),
                index,
            });
        }
        let ep = ego.pose.position;
        self.entries.push(LeadEntry {
            x: ep.x,
            speed: ego.speed,
            lane: road.lane_index_at(ep.x, ep.y),
            index: npcs.len(),
        });
        self.entries.sort_unstable_by(|a, b| {
            a.lane
                .cmp(&b.lane)
                .then(a.x.total_cmp(&b.x))
                .then(a.index.cmp(&b.index))
        });
        self.lanes.clear();
        self.lanes.resize(total, (0, 0));
        let mut i = 0;
        while i < self.entries.len() {
            let lane = self.entries[i].lane;
            let start = i as u32;
            while i < self.entries.len() && self.entries[i].lane == lane {
                i += 1;
            }
            self.lanes[lane] = (start, i as u32);
        }
    }

    /// Entries occupying `lane`, sorted by `(x, index)`.
    fn lane_entries(&self, lane: usize) -> &[LeadEntry] {
        let (s, e) = self.lanes[lane];
        &self.entries[s as usize..e as usize]
    }

    /// Hoisted [`Road::lane_center_y`].
    pub fn center_y(&self, lane: usize) -> f64 {
        self.center_y[lane]
    }

    /// Hoisted [`Road::lane_end_x`].
    pub fn end_x(&self, lane: usize) -> Option<f64> {
        self.end_x[lane]
    }

    /// Hoisted [`Road::merge_target`].
    pub fn merge_target(&self, lane: usize) -> usize {
        self.merge_target[lane]
    }

    /// The nearest vehicle strictly ahead of `x` in `lane` — the serial
    /// `min_by` winner (minimal `x`, lowest `index` among ties).
    pub fn nearest_ahead(&self, lane: usize, x: f64) -> Option<&LeadEntry> {
        let entries = self.lane_entries(lane);
        let first_ahead = entries.partition_point(|e| e.x <= x);
        entries.get(first_ahead)
    }

    /// The vehicle in `lane` (excluding serial index `own`) closest to `x`
    /// with `|e.x - x| < gap` — the serial blocker-scan winner (minimal
    /// `|dx|` via `total_cmp`, lowest `index` among ties).
    pub fn nearest_alongside(
        &self,
        lane: usize,
        x: f64,
        gap: f64,
        own: usize,
    ) -> Option<&LeadEntry> {
        let mut best: Option<(&LeadEntry, f64)> = None;
        for e in self.lane_entries(lane) {
            if e.x - x >= gap {
                // Sorted by x: everything later is at least as far ahead.
                break;
            }
            let dx = (e.x - x).abs();
            if e.index == own || dx >= gap {
                continue;
            }
            let better = match &best {
                None => true,
                Some((b, bdx)) => match dx.total_cmp(bdx) {
                    Ordering::Less => true,
                    Ordering::Equal => e.index < b.index,
                    Ordering::Greater => false,
                },
            };
            if better {
                best = Some((e, dx));
            }
        }
        best.map(|(e, _)| e)
    }
}

impl Npc {
    /// Creates an NPC keeping `lane` at `ref_speed`.
    pub fn new(vehicle: Vehicle, lane: usize, ref_speed: f64) -> Self {
        Npc {
            vehicle,
            lane,
            ref_speed,
            controller: NpcControllerParams::default(),
        }
    }

    /// The lane this NPC is currently steering for: its assigned lane until
    /// an upcoming merge deadline ([`Road::lane_end_x`]) forces it into the
    /// merge target. On a straight road this is always the assigned lane.
    pub fn active_lane(&self, road: &Road) -> usize {
        match road.lane_end_x(self.lane) {
            Some(end) if self.vehicle.pose.position.x + self.controller.merge_lookahead >= end => {
                road.merge_target(self.lane)
            }
            _ => self.lane,
        }
    }

    /// Computes this NPC's actuation-variation command.
    ///
    /// `others` lists every other vehicle on the road (ego included); the
    /// nearest one ahead in the active lane bounds the target speed through
    /// a constant-time-headway rule. When the assigned lane is ending, the
    /// NPC steers for the merge target lane and yields to any vehicle
    /// already alongside there.
    pub fn control(&self, road: &Road, others: &[LeadInfo]) -> Actuation {
        let p = &self.controller;
        let pos = self.vehicle.pose.position;
        let lane = self.active_lane(road);
        let offset = pos.y - road.lane_center_y(lane);
        let steer = -(p.k_lateral * offset + p.k_heading * self.vehicle.pose.heading);

        // Car following: find the nearest lead in the active lane.
        let mut target_speed = self.ref_speed;
        let lead = others
            .iter()
            .filter(|o| o.lane == lane && o.x > pos.x)
            .min_by(|a, b| a.x.total_cmp(&b.x));
        if let Some(lead) = lead {
            let gap = lead.x - pos.x;
            let desired_gap = p.min_gap + p.time_headway * self.vehicle.speed;
            if gap < desired_gap {
                // Scale down towards the lead's speed as the gap closes.
                let ratio = ((gap - p.min_gap) / (desired_gap - p.min_gap)).clamp(0.0, 1.0);
                target_speed = lead.speed + ratio * (self.ref_speed - lead.speed).max(0.0);
                target_speed = target_speed.min(self.ref_speed);
            }
        }
        if lane != self.lane {
            // Mid-merge: if someone in the target lane is alongside, drop
            // below their speed so the gap opens behind them.
            let blocker = others
                .iter()
                .filter(|o| o.lane == lane && (o.x - pos.x).abs() < p.min_gap)
                .min_by(|a, b| (a.x - pos.x).abs().total_cmp(&(b.x - pos.x).abs()));
            if let Some(blocker) = blocker {
                target_speed = target_speed.min((blocker.speed - 1.0).max(0.0));
            }
        }
        let thrust = p.k_speed * (target_speed - self.vehicle.speed);
        Actuation::new(steer, thrust)
    }

    /// [`Npc::control`] evaluated against a pre-built [`LeadTable`]
    /// instead of a per-NPC `others` slice. `own` is this NPC's index in
    /// the world's NPC list. Bit-identical to the serial scan: same
    /// expressions in the same order, same tie-breaking (see
    /// [`LeadTable`]).
    pub fn control_batched(&self, leads: &LeadTable, own: usize) -> Actuation {
        let p = &self.controller;
        let pos = self.vehicle.pose.position;
        let lane = match leads.end_x(self.lane) {
            Some(end) if pos.x + p.merge_lookahead >= end => leads.merge_target(self.lane),
            _ => self.lane,
        };
        let offset = pos.y - leads.center_y(lane);
        let steer = -(p.k_lateral * offset + p.k_heading * self.vehicle.pose.heading);

        let mut target_speed = self.ref_speed;
        if let Some(lead) = leads.nearest_ahead(lane, pos.x) {
            let gap = lead.x - pos.x;
            let desired_gap = p.min_gap + p.time_headway * self.vehicle.speed;
            if gap < desired_gap {
                let ratio = ((gap - p.min_gap) / (desired_gap - p.min_gap)).clamp(0.0, 1.0);
                target_speed = lead.speed + ratio * (self.ref_speed - lead.speed).max(0.0);
                target_speed = target_speed.min(self.ref_speed);
            }
        }
        if lane != self.lane {
            if let Some(blocker) = leads.nearest_alongside(lane, pos.x, p.min_gap, own) {
                target_speed = target_speed.min((blocker.speed - 1.0).max(0.0));
            }
        }
        let thrust = p.k_speed * (target_speed - self.vehicle.speed);
        Actuation::new(steer, thrust)
    }

    /// This NPC summarized as a [`LeadInfo`] for other vehicles' controllers.
    #[cfg(test)]
    fn lead_info(&self, road: &Road) -> LeadInfo {
        LeadInfo {
            x: self.vehicle.pose.position.x,
            lane: road.lane_index_at(self.vehicle.pose.position.x, self.vehicle.pose.position.y),
            speed: self.vehicle.speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Pose;
    use crate::vehicle::VehicleParams;

    fn npc_at(road: &Road, lane: usize, x: f64, speed: f64) -> Npc {
        let pose = Pose::new(x, road.lane_center_y(lane), 0.0);
        Npc::new(
            Vehicle::new(VehicleParams::default(), pose, speed),
            lane,
            6.0,
        )
    }

    #[test]
    fn holds_lane_center_over_time() {
        let road = Road::default();
        let mut npc = npc_at(&road, 1, 0.0, 6.0);
        // Perturb laterally, then let the controller settle.
        npc.vehicle.pose.position.y += 0.8;
        for _ in 0..300 {
            let a = npc.control(&road, &[]);
            npc.vehicle.step(a, 0.1, 5);
        }
        let offset = npc.vehicle.pose.position.y - road.lane_center_y(1);
        assert!(offset.abs() < 0.15, "offset {offset} should settle near 0");
        assert!(npc.vehicle.pose.heading.abs() < 0.05);
    }

    #[test]
    fn regulates_to_reference_speed() {
        let road = Road::default();
        let mut npc = npc_at(&road, 0, 0.0, 2.0);
        for _ in 0..300 {
            let a = npc.control(&road, &[]);
            npc.vehicle.step(a, 0.1, 5);
        }
        assert!(
            (npc.vehicle.speed - 6.0).abs() < 0.5,
            "speed {}",
            npc.vehicle.speed
        );
    }

    #[test]
    fn slows_behind_lead_in_same_lane() {
        let road = Road::default();
        let mut npc = npc_at(&road, 1, 0.0, 6.0);
        let mut lead = LeadInfo {
            x: 10.0,
            lane: 1,
            speed: 2.0,
        };
        for _ in 0..300 {
            let a = npc.control(&road, &[lead]);
            npc.vehicle.step(a, 0.1, 5);
            lead.x += lead.speed * 0.1;
        }
        // The follower must have matched the slow lead without passing it.
        assert!(npc.vehicle.speed < 3.5, "speed {}", npc.vehicle.speed);
        assert!(
            npc.vehicle.pose.position.x < lead.x,
            "must not pass the lead"
        );
    }

    #[test]
    fn ignores_lead_in_other_lane() {
        let road = Road::default();
        let npc = npc_at(&road, 1, 0.0, 6.0);
        let other_lane = LeadInfo {
            x: 8.0,
            lane: 0,
            speed: 2.0,
        };
        let a = npc.control(&road, &[other_lane]);
        let a_free = npc.control(&road, &[]);
        assert_eq!(a, a_free);
    }

    #[test]
    fn ignores_vehicles_behind() {
        let road = Road::default();
        let npc = npc_at(&road, 1, 50.0, 6.0);
        let behind = LeadInfo {
            x: 40.0,
            lane: 1,
            speed: 20.0,
        };
        let a = npc.control(&road, &[behind]);
        let a_free = npc.control(&road, &[]);
        assert_eq!(a, a_free);
    }

    #[test]
    fn straight_road_never_merges() {
        let road = Road::default();
        let npc = npc_at(&road, 1, 1400.0, 6.0);
        assert_eq!(npc.active_lane(&road), 1);
    }

    #[test]
    fn ramp_npc_merges_into_lane_zero_before_deadline() {
        let road = Road::on_ramp(3, 3.5, 1500.0, 0.0, 250.0, 330.0);
        let mut npc = npc_at(&road, 3, 20.0, 8.0);
        assert_eq!(npc.active_lane(&road), 3, "far from the deadline");
        // Drive until past merge_start; the controller must have pulled the
        // NPC onto the mainline by then.
        while npc.vehicle.pose.position.x < 250.0 {
            let a = npc.control(&road, &[]);
            npc.vehicle.step(a, 0.1, 5);
        }
        assert_eq!(npc.active_lane(&road), 0);
        let offset = npc.vehicle.pose.position.y - road.lane_center_y(0);
        assert!(
            offset.abs() < 0.6,
            "should be in lane 0 at the deadline, offset {offset}"
        );
    }

    #[test]
    fn lane_drop_npc_merges_right() {
        let road = Road::lane_drop(3, 3.5, 1500.0, 300.0, 380.0);
        let mut npc = npc_at(&road, 2, 50.0, 8.0);
        assert_eq!(npc.active_lane(&road), 2);
        while npc.vehicle.pose.position.x < 300.0 {
            let a = npc.control(&road, &[]);
            npc.vehicle.step(a, 0.1, 5);
        }
        assert_eq!(npc.active_lane(&road), 1);
        let offset = npc.vehicle.pose.position.y - road.lane_center_y(1);
        assert!(offset.abs() < 0.6, "offset {offset}");
    }

    #[test]
    fn merging_npc_yields_to_alongside_traffic() {
        let road = Road::on_ramp(3, 3.5, 1500.0, 0.0, 250.0, 330.0);
        // Inside the merge window with a mainline car right alongside.
        let npc = npc_at(&road, 3, 220.0, 6.0);
        let blocker = LeadInfo {
            x: 221.0,
            lane: 0,
            speed: 6.0,
        };
        let a_yield = npc.control(&road, &[blocker]);
        let a_free = npc.control(&road, &[]);
        assert!(
            a_yield.thrust < a_free.thrust,
            "must brake to open a gap: {a_yield:?} vs {a_free:?}"
        );
    }

    /// Serial-path replica: the `others` slice `Npc::control` saw before
    /// the lead table existed (all vehicles in index order, ego last,
    /// minus the querying NPC).
    fn serial_others(road: &Road, npcs: &[Npc], ego: &Vehicle, own: usize) -> Vec<LeadInfo> {
        let mut leads: Vec<LeadInfo> = npcs.iter().map(|n| n.lead_info(road)).collect();
        leads.push(LeadInfo {
            x: ego.pose.position.x,
            lane: road.lane_index_at(ego.pose.position.x, ego.pose.position.y),
            speed: ego.speed,
        });
        leads
            .into_iter()
            .enumerate()
            .filter(|(j, _)| *j != own)
            .map(|(_, l)| l)
            .collect()
    }

    /// The table-based control path must reproduce the serial `others`
    /// scan bit-for-bit on every topology, including x-duplicate spawns
    /// (min_by tie-breaking) and mid-merge blocker queries.
    #[test]
    fn control_batched_is_bit_identical_to_serial_scan() {
        use crate::geometry::Pose;
        use crate::vehicle::VehicleParams;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let roads = [
            Road::default(),
            Road::on_ramp(3, 3.5, 1500.0, 0.0, 250.0, 330.0),
            Road::lane_drop(3, 3.5, 1500.0, 300.0, 380.0),
        ];
        let mut rng = StdRng::seed_from_u64(0x1EAD);
        for road in &roads {
            for _case in 0..200 {
                let n = rng.gen_range(1..=9);
                let npcs: Vec<Npc> = (0..n)
                    .map(|_| {
                        let lane = rng.gen_range(0..road.total_lanes());
                        // Snap half the spawns to a coarse grid so exact x
                        // duplicates (tie-break cases) actually occur.
                        let x = if rng.gen_bool(0.5) {
                            rng.gen_range(0..15) as f64 * 20.0
                        } else {
                            rng.gen_range(0.0..400.0)
                        };
                        let y = road.lane_center_y(lane) + rng.gen_range(-1.2..1.2);
                        let heading = rng.gen_range(-0.2..0.2);
                        let speed = rng.gen_range(0.0..14.0);
                        Npc::new(
                            Vehicle::new(VehicleParams::default(), Pose::new(x, y, heading), speed),
                            lane,
                            rng.gen_range(4.0..10.0),
                        )
                    })
                    .collect();
                let ego = Vehicle::new(
                    VehicleParams::default(),
                    Pose::new(
                        rng.gen_range(0.0..400.0),
                        road.lane_center_y(rng.gen_range(0..road.num_lanes)),
                        0.0,
                    ),
                    rng.gen_range(0.0..20.0),
                );
                let mut table = LeadTable::default();
                table.rebuild(road, &npcs, &ego);
                for (i, npc) in npcs.iter().enumerate() {
                    let others = serial_others(road, &npcs, &ego, i);
                    let serial = npc.control(road, &others);
                    let batched = npc.control_batched(&table, i);
                    assert_eq!(
                        serial.steer.to_bits(),
                        batched.steer.to_bits(),
                        "{} npc {i}: steer diverged",
                        road.topology.label()
                    );
                    assert_eq!(
                        serial.thrust.to_bits(),
                        batched.thrust.to_bits(),
                        "{} npc {i}: thrust diverged",
                        road.topology.label()
                    );
                }
            }
        }
    }

    /// Table rebuilds must reuse their buffers: steady-state rebuilds make
    /// no fresh allocations (capacities stabilize after the first pass).
    #[test]
    fn lead_table_rebuild_reuses_buffers() {
        let road = Road::default();
        let npcs: Vec<Npc> = (0..4)
            .map(|i| npc_at(&road, i % 3, i as f64 * 25.0, 6.0))
            .collect();
        let ego = Vehicle::new(
            crate::vehicle::VehicleParams::default(),
            crate::geometry::Pose::new(5.0, road.lane_center_y(1), 0.0),
            16.0,
        );
        let mut table = LeadTable::default();
        table.rebuild(&road, &npcs, &ego);
        let cap = table.entries.capacity();
        for _ in 0..10 {
            table.rebuild(&road, &npcs, &ego);
        }
        assert_eq!(table.entries.capacity(), cap);
        assert_eq!(table.entries.len(), npcs.len() + 1);
    }
}
