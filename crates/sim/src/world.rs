//! The episode engine: advances the ego vehicle and NPC traffic, detects and
//! classifies collisions, and tracks overtaking progress.
//!
//! One [`World`] is one episode. The controlling agent (and any attacker
//! layered on top of it) supplies the ego actuation *variation* each step;
//! the world applies the paper's Eq. (1) smoothing inside
//! [`Vehicle::step`](crate::vehicle::Vehicle::step), advances the NPCs, and
//! reports the outcome.

use crate::geometry::{Pose, Vec2};
use crate::npc::{LeadTable, Npc};
use crate::scenario::Scenario;
use crate::vehicle::{Actuation, Vehicle, VehicleParams};
use serde::{Deserialize, Serialize};

/// How a collision happened — the attacker only "wins" on [`Side`]
/// collisions (Section IV-D).
///
/// [`Side`]: CollisionKind::Side
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollisionKind {
    /// The ego vehicle struck an NPC while substantially alongside it — the
    /// attacker's goal.
    Side,
    /// Front-into-rear contact along the lane direction (an "unexpected
    /// posture" per the paper, counted against the attacker).
    RearEnd,
    /// Any other ego–NPC contact posture.
    Other,
    /// The ego vehicle hit a roadside barrier.
    Barrier,
}

/// A classified collision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollisionEvent {
    /// What kind of contact occurred.
    pub kind: CollisionKind,
    /// Index of the NPC involved, if any (`None` for barrier hits).
    pub npc_index: Option<usize>,
    /// Control step at which the collision was detected.
    pub step: usize,
}

/// Why an episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Termination {
    /// Reached the step limit.
    TimeLimit,
    /// A collision occurred.
    Collision(CollisionEvent),
    /// The ego vehicle reached the end of the road.
    RoadEnd,
}

/// Outcome of one control step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Step index just executed (0-based).
    pub step: usize,
    /// Collision detected during this step, if any.
    pub collision: Option<CollisionEvent>,
    /// Episode termination, if the episode just ended.
    pub termination: Option<Termination>,
    /// NPC vehicles fully passed so far.
    pub passed: usize,
}

/// Reusable per-step workspaces: the lead table and the NPC control
/// buffer, retained across steps so the steady-state control phase makes
/// no heap allocations.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    leads: LeadTable,
    npc_controls: Vec<Actuation>,
}

/// One episode of the freeway scenario.
#[derive(Debug, Clone)]
pub struct World {
    scenario: Scenario,
    ego: Vehicle,
    npcs: Vec<Npc>,
    step: usize,
    terminated: Option<Termination>,
    nonfinite_actions: usize,
    scratch: StepScratch,
}

impl World {
    /// Spawns a fresh episode from a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`].
    pub fn new(scenario: Scenario) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("invalid scenario: {e}");
        }
        let ego_pose = Pose::new(
            scenario.ego_x,
            scenario.road.lane_center_y(scenario.ego_lane),
            0.0,
        );
        let ego = Vehicle::new(VehicleParams::default(), ego_pose, scenario.ego_speed);
        let npcs = scenario
            .npcs
            .iter()
            .map(|s| {
                let pose = Pose::new(s.x, scenario.road.lane_center_y(s.lane), 0.0);
                Npc::new(
                    Vehicle::new(VehicleParams::default(), pose, s.speed),
                    s.lane,
                    s.speed,
                )
            })
            .collect();
        World {
            scenario,
            ego,
            npcs,
            step: 0,
            terminated: None,
            nonfinite_actions: 0,
            scratch: StepScratch::default(),
        }
    }

    /// The scenario this episode was spawned from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The ego vehicle.
    pub fn ego(&self) -> &Vehicle {
        &self.ego
    }

    /// The NPC vehicles.
    pub fn npcs(&self) -> &[Npc] {
        &self.npcs
    }

    /// Current control step (number of completed steps).
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Simulated time elapsed, seconds.
    pub fn time(&self) -> f64 {
        self.step as f64 * self.scenario.dt
    }

    /// Whether (and why) the episode has ended.
    pub fn termination(&self) -> Option<Termination> {
        self.terminated
    }

    /// How many commanded actions contained a non-finite channel and were
    /// sanitized before reaching the plant.
    pub fn nonfinite_action_count(&self) -> usize {
        self.nonfinite_actions
    }

    /// Replaces non-finite action channels before they can poison vehicle
    /// state: NaN snaps to neutral, infinities clamp to the mechanical
    /// limit. Finite values pass through untouched so clean episodes are
    /// bit-identical with and without the guard.
    fn sanitize_action(&mut self, mut a: Actuation) -> Actuation {
        let mut corrupted = false;
        for v in [&mut a.steer, &mut a.thrust] {
            if v.is_nan() {
                *v = 0.0;
                corrupted = true;
            } else if v.is_infinite() {
                *v = v.clamp(-1.0, 1.0);
                corrupted = true;
            }
        }
        if corrupted {
            self.nonfinite_actions += 1;
        }
        debug_assert!(
            a.steer.is_finite() && a.thrust.is_finite(),
            "sanitized actuation must be finite"
        );
        a
    }

    /// Whether the episode has ended.
    pub fn is_done(&self) -> bool {
        self.terminated.is_some()
    }

    /// Number of NPCs the ego vehicle has fully passed.
    pub fn passed_count(&self) -> usize {
        let margin = self.ego.params.length;
        self.npcs
            .iter()
            .filter(|n| n.vehicle.pose.position.x < self.ego.pose.position.x - margin)
            .count()
    }

    /// Index and state of the NPC nearest to the ego vehicle (Euclidean).
    ///
    /// Returns `None` only if the scenario has no NPCs.
    pub fn nearest_npc(&self) -> Option<(usize, &Npc)> {
        let ego_pos = self.ego.pose.position;
        // Argmin by squared distance — same winner as by `hypot` (monotone;
        // exact ties keep the earlier NPC either way), two libm calls
        // cheaper per comparison.
        self.npcs.iter().enumerate().min_by(|a, b| {
            (a.1.vehicle.pose.position - ego_pos)
                .norm_sq()
                .total_cmp(&(b.1.vehicle.pose.position - ego_pos).norm_sq())
        })
    }

    /// Advances the episode by one control step with the given ego
    /// actuation-variation command.
    ///
    /// Calling after termination is a no-op that re-reports the existing
    /// termination (convenient for runners that overshoot by a step).
    pub fn step(&mut self, ego_variation: Actuation) -> StepOutcome {
        let ego_cmd = match self.begin_step(ego_variation) {
            Ok(cmd) => cmd,
            Err(done) => return done,
        };
        self.integrate_step(ego_cmd);
        self.conclude_step()
    }

    /// Control phase of [`World::step`]: sanitizes the command, re-reports
    /// termination (`Err`) for finished episodes, and computes the NPC
    /// controls against the pre-step state, leaving them in the step
    /// scratch. The caller must then run [`World::integrate_step`] with the
    /// returned command and finish with [`World::conclude_step`].
    ///
    /// Shared by the serial engine and `WorldBatch` so every decision
    /// branch — sanitize accounting, post-termination re-reporting, lead
    /// bookkeeping, NPC policy — has exactly one home.
    /// One lead table per world replaces the serial per-NPC `others` scan
    /// (bit-identical winners; see [`LeadTable`]), and all buffers are
    /// reused so the steady-state control phase is allocation-free.
    pub(crate) fn begin_step(
        &mut self,
        ego_variation: Actuation,
    ) -> Result<Actuation, StepOutcome> {
        let ego_variation = self.sanitize_action(ego_variation);
        if let Some(term) = self.terminated {
            return Err(StepOutcome {
                step: self.step,
                collision: match term {
                    Termination::Collision(c) => Some(c),
                    _ => None,
                },
                termination: Some(term),
                passed: self.passed_count(),
            });
        }

        crate::perf::record_steps(1);

        // NPC controls are computed against the pre-step state so ordering
        // between vehicles does not matter.
        let World {
            scenario,
            ego,
            npcs,
            scratch,
            ..
        } = self;
        let StepScratch {
            leads,
            npc_controls,
        } = scratch;
        leads.rebuild(&scenario.road, npcs, ego);
        npc_controls.clear();
        npc_controls.extend(
            npcs.iter()
                .enumerate()
                .map(|(i, n)| n.control_batched(leads, i)),
        );
        Ok(ego_variation)
    }

    /// Integration phase of [`World::step`]: advances the ego with
    /// `ego_cmd` and each NPC with the control computed by the preceding
    /// [`World::begin_step`]. Only valid between `begin_step` and
    /// [`World::conclude_step`].
    pub(crate) fn integrate_step(&mut self, ego_cmd: Actuation) {
        let dt = self.scenario.dt;
        let substeps = self.scenario.substeps;
        self.ego.step(ego_cmd, dt, substeps);
        let controls = std::mem::take(&mut self.scratch.npc_controls);
        for (npc, control) in self.npcs.iter_mut().zip(&controls) {
            npc.vehicle.step(*control, dt, substeps);
        }
        self.scratch.npc_controls = controls;
    }

    /// Outcome phase of [`World::step`]: advances the step counter, runs
    /// collision detection and the termination chain against the freshly
    /// integrated vehicle state. Only valid directly after a successful
    /// [`World::begin_step`] followed by [`World::integrate_step`].
    pub(crate) fn conclude_step(&mut self) -> StepOutcome {
        let executed_step = self.step;
        self.step += 1;

        let collision = self.detect_collision(executed_step);
        let termination = if let Some(c) = collision {
            Some(Termination::Collision(c))
        } else if self.step >= self.scenario.max_steps {
            Some(Termination::TimeLimit)
        } else if self.ego.pose.position.x >= self.scenario.road.length {
            Some(Termination::RoadEnd)
        } else {
            None
        };
        self.terminated = termination;

        StepOutcome {
            step: executed_step,
            collision,
            termination,
            passed: self.passed_count(),
        }
    }

    /// Checks ego-vs-barrier and ego-vs-NPC contacts and classifies them.
    fn detect_collision(&self, step: usize) -> Option<CollisionEvent> {
        let road = &self.scenario.road;
        let ego_obb = self.ego.obb();

        // Barrier: any ego corner beyond a road edge at that corner's x.
        for corner in ego_obb.corners() {
            let (right_edge, left_edge) = road.edge_ys_at(corner.x);
            if corner.y >= left_edge || corner.y <= right_edge {
                return Some(CollisionEvent {
                    kind: CollisionKind::Barrier,
                    npc_index: None,
                    step,
                });
            }
        }

        for (i, npc) in self.npcs.iter().enumerate() {
            let npc_obb = npc.vehicle.obb();
            // Cheap broad phase before SAT.
            let (amin, amax) = ego_obb.aabb();
            let (bmin, bmax) = npc_obb.aabb();
            if amax.x < bmin.x || bmax.x < amin.x || amax.y < bmin.y || bmax.y < amin.y {
                continue;
            }
            if ego_obb.intersects(&npc_obb) {
                let kind = classify_contact(&self.ego, &npc.vehicle);
                return Some(CollisionEvent {
                    kind,
                    npc_index: Some(i),
                    step,
                });
            }
        }
        None
    }
}

/// Classifies an ego–NPC contact posture.
///
/// The ego center is expressed in the NPC's body frame. The attacker's
/// desired *side collision* (the paper's Fig. 1b) covers two postures:
/// the vehicles substantially alongside, or the ego striking the NPC's
/// flank diagonally (angled heading, laterally offset). Straight,
/// lane-aligned front-into-rear contact is a [`CollisionKind::RearEnd`];
/// anything else is [`CollisionKind::Other`].
pub fn classify_contact(ego: &Vehicle, npc: &Vehicle) -> CollisionKind {
    let rel = npc.pose.world_to_local(ego.pose.position);
    let combined_half_len = (ego.params.length + npc.params.length) / 2.0;
    let combined_half_width = (ego.params.width + npc.params.width) / 2.0;
    let heading_diff = crate::geometry::angle_diff(ego.pose.heading, npc.pose.heading);
    if (rel.x / combined_half_len).abs() < 0.75 {
        // Substantially alongside.
        CollisionKind::Side
    } else if rel.x < 0.0 {
        if heading_diff.abs() > 0.15 && rel.y.abs() > 0.35 * combined_half_width {
            // Diagonal strike into the rear flank: the angled side impact
            // the adversarial reward optimizes for.
            CollisionKind::Side
        } else if rel.y.abs() < 0.6 * combined_half_width {
            CollisionKind::RearEnd
        } else {
            CollisionKind::Other
        }
    } else {
        CollisionKind::Other
    }
}

/// Relative geometry between the ego vehicle and a target NPC, the raw
/// material of the adversarial reward terms (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelativeGeometry {
    /// Unit vector from ego to the NPC (`v̂_e2n`).
    pub e2n: Vec2,
    /// Ego speed unit vector (`v̂_ego`).
    pub ego_dir: Vec2,
    /// NPC speed unit vector (`v̂_npc`).
    pub npc_dir: Vec2,
    /// Distance between centers, meters.
    pub distance: f64,
}

impl RelativeGeometry {
    /// Computes the relative geometry between the ego and one NPC.
    pub fn between(ego: &Vehicle, npc: &Npc) -> Self {
        let diff = npc.vehicle.pose.position - ego.pose.position;
        RelativeGeometry {
            e2n: diff.normalize_or_x(),
            ego_dir: ego.velocity().try_normalize().unwrap_or(ego.pose.forward()),
            npc_dir: npc
                .vehicle
                .velocity()
                .try_normalize()
                .unwrap_or(npc.vehicle.pose.forward()),
            distance: diff.norm(),
        }
    }

    /// `ω = v̂_e2n · v̂_npc` — the safety-critical-moment indicator input.
    pub fn omega(&self) -> f64 {
        self.e2n.dot(self.npc_dir)
    }

    /// `r_e2n = v̂_e2n · v̂_ego` — the collision-potential reward term.
    pub fn collision_potential(&self) -> f64 {
        self.e2n.dot(self.ego_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Pose;
    use crate::road::Road;
    use crate::vehicle::VehicleParams;

    fn world() -> World {
        World::new(Scenario::default())
    }

    #[test]
    fn fresh_world_state() {
        let w = world();
        assert_eq!(w.step_index(), 0);
        assert!(!w.is_done());
        assert_eq!(w.passed_count(), 0);
        assert_eq!(w.npcs().len(), 6);
        assert_eq!(w.ego().speed, 16.0);
    }

    #[test]
    fn time_limit_terminates_episode() {
        let mut s = Scenario::default();
        s.npcs.clear(); // empty road: coast straight, no collisions
        s.max_steps = 30;
        let mut w = World::new(s);
        let mut last = None;
        for _ in 0..30 {
            last = Some(w.step(Actuation::new(0.0, 0.2)));
        }
        assert_eq!(last.unwrap().termination, Some(Termination::TimeLimit));
        assert!(w.is_done());
    }

    #[test]
    fn step_after_termination_is_noop() {
        let mut s = Scenario::default();
        s.npcs.clear();
        s.max_steps = 5;
        let mut w = World::new(s);
        for _ in 0..5 {
            w.step(Actuation::default());
        }
        let x = w.ego().pose.position.x;
        let out = w.step(Actuation::new(0.0, 1.0));
        assert_eq!(out.termination, Some(Termination::TimeLimit));
        assert_eq!(w.ego().pose.position.x, x, "no motion after termination");
    }

    #[test]
    fn hard_left_hits_barrier() {
        let mut s = Scenario::default();
        s.npcs.clear();
        let mut w = World::new(s);
        let mut hit = None;
        for _ in 0..100 {
            let out = w.step(Actuation::new(1.0, 0.0));
            if let Some(c) = out.collision {
                hit = Some(c);
                break;
            }
        }
        let c = hit.expect("full steer at 16 m/s must reach the barrier");
        assert_eq!(c.kind, CollisionKind::Barrier);
        assert_eq!(c.npc_index, None);
    }

    #[test]
    fn driving_straight_into_lead_is_rear_end() {
        let s = Scenario {
            npcs: vec![crate::scenario::NpcSpawn {
                lane: 1,
                x: 25.0,
                speed: 2.0,
            }],
            ..Default::default()
        };
        let mut w = World::new(s);
        let mut hit = None;
        for _ in 0..180 {
            let out = w.step(Actuation::new(0.0, 0.3));
            if let Some(c) = out.collision {
                hit = Some(c);
                break;
            }
        }
        let c = hit.expect("ego must catch the slow lead");
        assert_eq!(c.kind, CollisionKind::RearEnd);
        assert_eq!(c.npc_index, Some(0));
    }

    #[test]
    fn classify_side_when_alongside() {
        let ego = Vehicle::new(VehicleParams::default(), Pose::new(10.0, 0.0, 0.3), 10.0);
        let npc_v = Vehicle::new(VehicleParams::default(), Pose::new(10.5, 2.0, 0.0), 6.0);
        let npc = classify_contact(&ego, &npc_v);
        assert_eq!(npc, CollisionKind::Side);
    }

    #[test]
    fn classify_rear_end_when_behind_and_aligned() {
        let ego = Vehicle::new(VehicleParams::default(), Pose::new(5.0, 0.0, 0.0), 10.0);
        let npc_v = Vehicle::new(VehicleParams::default(), Pose::new(9.4, 0.2, 0.0), 6.0);
        assert_eq!(classify_contact(&ego, &npc_v), CollisionKind::RearEnd);
    }

    #[test]
    fn classify_other_when_behind_but_offset() {
        let ego = Vehicle::new(VehicleParams::default(), Pose::new(5.0, 2.0, 0.0), 10.0);
        let npc_v = Vehicle::new(VehicleParams::default(), Pose::new(9.5, 0.0, 0.0), 6.0);
        assert_eq!(classify_contact(&ego, &npc_v), CollisionKind::Other);
    }

    #[test]
    fn passed_count_increases_as_ego_overtakes() {
        // Single NPC in another lane so no collision happens.
        let s = Scenario {
            npcs: vec![crate::scenario::NpcSpawn {
                lane: 0,
                x: 20.0,
                speed: 2.0,
            }],
            ..Default::default()
        };
        let mut w = World::new(s);
        assert_eq!(w.passed_count(), 0);
        for _ in 0..60 {
            w.step(Actuation::new(0.0, 0.5));
            if w.is_done() {
                break;
            }
        }
        assert_eq!(w.passed_count(), 1);
    }

    #[test]
    fn nearest_npc_is_correct() {
        let w = world();
        let (idx, npc) = w.nearest_npc().unwrap();
        assert_eq!(idx, 0);
        assert_eq!(npc.vehicle.pose.position.x, 30.0);
    }

    #[test]
    fn relative_geometry_omega_alongside_is_small() {
        // Ego directly beside the NPC: e2n is perpendicular to the NPC's
        // travel direction, so omega ~ 0 → safety-critical moment.
        let road = Road::default();
        let ego = Vehicle::new(
            VehicleParams::default(),
            Pose::new(50.0, road.lane_center_y(2), 0.0),
            16.0,
        );
        let npc = Npc::new(
            Vehicle::new(
                VehicleParams::default(),
                Pose::new(50.0, road.lane_center_y(1), 0.0),
                6.0,
            ),
            1,
            6.0,
        );
        let rel = RelativeGeometry::between(&ego, &npc);
        assert!(rel.omega().abs() < 1e-9);
        // Ego moving parallel: collision potential ~ 0 too.
        assert!(rel.collision_potential().abs() < 1e-9);
    }

    #[test]
    fn relative_geometry_behind_is_not_critical() {
        // Ego far behind the NPC: e2n is parallel to npc dir → omega ~ 1.
        let road = Road::default();
        let ego = Vehicle::new(
            VehicleParams::default(),
            Pose::new(0.0, road.lane_center_y(1), 0.0),
            16.0,
        );
        let npc = Npc::new(
            Vehicle::new(
                VehicleParams::default(),
                Pose::new(40.0, road.lane_center_y(1), 0.0),
                6.0,
            ),
            1,
            6.0,
        );
        let rel = RelativeGeometry::between(&ego, &npc);
        assert!(rel.omega() > 0.99);
        // Driving straight at the NPC: max collision potential.
        assert!(rel.collision_potential() > 0.99);
    }

    #[test]
    fn nonfinite_actions_are_sanitized_and_counted() {
        let mut world = World::new(Scenario::default());
        // Actuation::new clamps infinities but passes NaN through; build
        // the raw struct to exercise both branches of the guard.
        world.step(Actuation {
            steer: f64::NAN,
            thrust: 0.5,
        });
        world.step(Actuation {
            steer: f64::INFINITY,
            thrust: f64::NEG_INFINITY,
        });
        world.step(Actuation::new(0.1, 0.5));
        assert_eq!(world.nonfinite_action_count(), 2);
        assert!(world.ego().pose.position.x.is_finite());
        assert!(world.ego().speed.is_finite());
    }

    #[test]
    fn finite_actions_pass_the_guard_unchanged() {
        let mut a = World::new(Scenario::default());
        let mut b = World::new(Scenario::default());
        for t in 0..30 {
            let cmd = Actuation::new(0.2 * ((t % 5) as f64 - 2.0), 0.6);
            a.step(cmd);
            b.step(cmd);
        }
        assert_eq!(a.nonfinite_action_count(), 0);
        assert_eq!(a.ego().pose.position.x, b.ego().pose.position.x);
    }
}
