//! The modular driving pipeline: behaviour planner + PID feedback control.
//!
//! This is the CARLA-Autopilot analogue of Section III-B — waypoints from
//! the behaviour layer, a lateral controller (pure-pursuit geometry closed
//! by a PID on the steering actuation) and a longitudinal PID on speed,
//! both emitting *variation* commands that pass through the Eq. (1)
//! actuator smoothing inside the simulator.

use crate::behavior::{BehaviorConfig, BehaviorPlanner};
use crate::pid::{Pid, PidConfig};
use crate::Agent;
use drive_sim::geometry::angle_diff;
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use serde::{Deserialize, Serialize};

/// Tunables of the modular agent's controllers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModularConfig {
    /// Behaviour-layer configuration.
    pub behavior: BehaviorConfig,
    /// Steering-loop PID (error = desired normalized steer − actual).
    pub steer_pid: PidConfig,
    /// Speed-loop PID (error = desired speed − actual, m/s).
    pub speed_pid: PidConfig,
    /// Waypoints of lookahead for the pure-pursuit target.
    pub lookahead: usize,
}

impl Default for ModularConfig {
    fn default() -> Self {
        ModularConfig {
            behavior: BehaviorConfig::default(),
            steer_pid: PidConfig {
                kp: 2.2,
                ki: 0.8,
                kd: 0.02,
                limit: 1.0,
                integral_limit: 1.0,
            },
            speed_pid: PidConfig {
                kp: 0.7,
                ki: 0.08,
                kd: 0.0,
                limit: 1.0,
                integral_limit: 0.6,
            },
            lookahead: 5,
        }
    }
}

/// The modular pipeline agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModularAgent {
    config: ModularConfig,
    planner: BehaviorPlanner,
    steer_pid: Pid,
    speed_pid: Pid,
    /// Signed cross-track error of the last step, meters (for metrics).
    last_cross_track: f64,
    /// Reused plan buffer; not part of the logical agent state.
    #[serde(skip, default)]
    plan_scratch: drive_sim::waypoints::Path,
}

// The scratch buffer is excluded from equality: a deserialized agent
// (empty scratch) must compare equal to the live agent it was saved from.
impl PartialEq for ModularAgent {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.planner == other.planner
            && self.steer_pid == other.steer_pid
            && self.speed_pid == other.speed_pid
            && self.last_cross_track == other.last_cross_track
    }
}

impl ModularAgent {
    /// Creates an agent starting in `initial_lane`.
    pub fn new(config: ModularConfig, initial_lane: usize) -> Self {
        ModularAgent {
            planner: BehaviorPlanner::new(config.behavior, initial_lane),
            steer_pid: Pid::new(config.steer_pid),
            speed_pid: Pid::new(config.speed_pid),
            config,
            last_cross_track: 0.0,
            plan_scratch: drive_sim::waypoints::Path::default(),
        }
    }

    /// The behaviour planner (exposed for reward shaping and metrics).
    #[cfg(test)]
    pub fn planner(&self) -> &BehaviorPlanner {
        &self.planner
    }

    /// Cross-track error at the most recent [`Agent::act`] call, meters.
    #[cfg(test)]
    pub fn last_cross_track(&self) -> f64 {
        self.last_cross_track
    }
}

impl Agent for ModularAgent {
    fn reset(&mut self, world: &World) {
        let lane = world.scenario().road.lane_of(world.ego().pose.position.y);
        self.planner = BehaviorPlanner::new(self.config.behavior, lane);
        self.steer_pid.reset();
        self.speed_pid.reset();
        self.last_cross_track = 0.0;
    }

    fn act(&mut self, world: &World) -> Actuation {
        let dt = world.scenario().dt;
        let ego = world.ego();
        let pos = ego.pose.position;
        self.planner.plan_into(world, &mut self.plan_scratch);
        let path = &self.plan_scratch;
        let proj = path.project(pos, ego.pose.heading);

        // Pure-pursuit geometry to a lookahead waypoint, closed by a PID on
        // the realized steering actuation.
        let look = path.lookahead(pos, self.config.lookahead);
        self.last_cross_track = proj.cross_track;
        let to = look.position - pos;
        let heading_err = angle_diff(to.angle(), ego.pose.heading);
        let ld = to.norm().max(1.0);
        let wheelbase = ego.params.wheelbase();
        let delta_des = (2.0 * wheelbase * heading_err.sin() / ld).atan();
        let s_des = (delta_des / ego.params.max_steer).clamp(-1.0, 1.0);
        let nu = self.steer_pid.step(s_des - ego.actuation.steer, dt);

        let v_des = self.planner.desired_speed(world);
        let gamma = self.speed_pid.step(v_des - ego.speed, dt);
        Actuation::new(nu, gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::Scenario;
    use drive_sim::world::{Termination, World};

    fn run_episode(mut world: World) -> (World, ModularAgent) {
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        agent.reset(&world);
        while !world.is_done() {
            let a = agent.act(&world);
            world.step(a);
        }
        (world, agent)
    }

    #[test]
    fn tracks_empty_lane_tightly() {
        let mut s = Scenario::default();
        s.npcs.clear();
        s.max_steps = 150;
        let (world, agent) = run_episode(World::new(s));
        assert_eq!(world.termination(), Some(Termination::TimeLimit));
        // Straight lane keeping: sub-decimeter tracking.
        assert!(
            agent.last_cross_track().abs() < 0.1,
            "cross track {}",
            agent.last_cross_track()
        );
        // Speed regulated near the 16 m/s reference.
        assert!(
            (world.ego().speed - 16.0).abs() < 0.5,
            "speed {}",
            world.ego().speed
        );
    }

    #[test]
    fn passes_all_npcs_without_collision() {
        // The paper's modular agent passes all six NPCs collision-free.
        let (world, _) = run_episode(World::new(Scenario::default()));
        assert_eq!(
            world.termination(),
            Some(Termination::TimeLimit),
            "no collision expected"
        );
        assert_eq!(world.passed_count(), 6, "must overtake all six NPCs");
    }

    #[test]
    fn reset_restores_initial_lane_choice() {
        let world = World::new(Scenario::default());
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        agent.reset(&world);
        assert_eq!(agent.planner().target_lane(), 1);
    }
}
