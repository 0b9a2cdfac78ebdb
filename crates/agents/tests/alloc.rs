//! Regression tests: hot loops perform zero heap allocations once their
//! scratch buffers have warmed up.
//!
//! - The steady-state fleet control loop — `WorldBatch::step` plus
//!   `BehaviorPlanner::plan_into` for every slot. This is the hard form of
//!   the control-phase batching contract: the per-world `StepScratch`
//!   (lead tables + NPC actuations), the batch's command buffers, and the
//!   planner's reused `Path` must all reach a fixed point.
//! - Serial evaluation through pre-packed weights: the packed victim's
//!   act, the learned attackers' deltas, and both columns of the PNN
//!   switcher.
//!
//! A counting `#[global_allocator]` wrapping the system allocator makes
//! that an invariant instead of a benchmark hope; the counters are
//! thread-local, so other test threads can't pollute the measurement.

use attack_core::budget::AttackBudget;
use attack_core::defense::SimplexSwitcher;
use attack_core::learned::LearnedAttacker;
use attack_core::sensor::AttackerSensor;
use drive_agents::behavior::{BehaviorConfig, BehaviorPlanner};
use drive_agents::e2e::E2eAgent;
use drive_agents::runner::SteerAttacker;
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::linear::Linear;
use drive_nn::pnn::{PackedPnn, PnnPolicy};
use drive_sim::batch::WorldBatch;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, ImuConfig};
use drive_sim::vehicle::Actuation;
use drive_sim::waypoints::Path;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocation events on this thread.
/// Only `alloc`/`realloc` count — frees are irrelevant to the invariant.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping around it is a
// thread-local counter bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A PNN whose column and laterals are all fresh random draws from
/// `rng`, column first: unlike `PnnPolicy::new`'s, its laterals are
/// non-zero.
fn random_pnn<R: rand::Rng>(base: GaussianPolicy, rng: &mut R) -> PnnPolicy {
    let layers = base.trunk().layers();
    let column = layers
        .iter()
        .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
        .collect();
    let laterals = layers
        .windows(2)
        .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
        .collect();
    PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One lockstep control iteration: plan every slot into its reused buffer,
/// derive a steering command from the projection, step the batch.
fn control_step(
    wb: &mut WorldBatch,
    planners: &mut [BehaviorPlanner],
    bufs: &mut [Path],
    actions: &mut Vec<Actuation>,
    outcomes: &mut Vec<drive_sim::world::StepOutcome>,
) {
    actions.clear();
    for i in 0..wb.len() {
        let world = &wb.worlds()[i];
        planners[i].plan_into(world, &mut bufs[i]);
        let proj = bufs[i].project(world.ego().pose.position, world.ego().pose.heading);
        let steer = (-0.4 * proj.cross_track - 1.5 * proj.heading_error).clamp(-1.0, 1.0);
        actions.push(Actuation::new(steer, 0.2));
    }
    wb.step(actions, outcomes);
}

#[test]
fn steady_state_batch_step_and_plan_are_allocation_free_golden() {
    const BATCH: usize = 8;
    let mut wb = WorldBatch::new();
    let mut planners = Vec::new();
    let mut bufs = Vec::new();
    for slot in 0..BATCH as u64 {
        let mut s = Scenario::default().jittered(&mut StdRng::seed_from_u64(0xA110C + slot));
        s.max_steps = 400;
        let lane = s.ego_lane;
        wb.push(World::new(s));
        planners.push(BehaviorPlanner::new(BehaviorConfig::default(), lane));
        bufs.push(Path::default());
    }
    let mut actions: Vec<Actuation> = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::new();

    // Warm-up: sizes the per-world step scratches, the batch's command
    // buffers, and every planner's waypoint buffer (including
    // the lane-change variant, which shares the same fixed horizon).
    for _ in 0..30 {
        control_step(
            &mut wb,
            &mut planners,
            &mut bufs,
            &mut actions,
            &mut outcomes,
        );
    }

    let before = allocs();
    for _ in 0..10 {
        control_step(
            &mut wb,
            &mut planners,
            &mut bufs,
            &mut actions,
            &mut outcomes,
        );
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state step+plan loop allocated {grew} times across 10 iterations"
    );
}

#[test]
fn steady_state_packed_victim_attacker_and_switcher_are_allocation_free() {
    let features = FeatureConfig::default();
    let imu = ImuConfig::default();
    let dim = features.observation_dim();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let victim = GaussianPolicy::new(dim, &[128, 128], 2, &mut rng);
    let camera = GaussianPolicy::new(dim, &[128, 128], 1, &mut rng);
    let imu_policy = GaussianPolicy::new(imu.observation_dim(), &[128, 128], 1, &mut rng);
    let pnn = PackedPnn::from(random_pnn(victim.clone(), &mut rng));

    let mut agents: Vec<(&str, Box<dyn Agent>)> = vec![
        (
            "packed victim",
            Box::new(E2eAgent::new(
                BatchPolicy::from(victim),
                features.clone(),
                1,
                true,
            )),
        ),
        (
            "switcher base column",
            Box::new(E2eAgent::new(
                SimplexSwitcher::new(pnn.clone(), 0.4, 0.2),
                features.clone(),
                1,
                true,
            )),
        ),
        (
            "switcher hardened column",
            Box::new(E2eAgent::new(
                SimplexSwitcher::new(pnn, 0.4, 0.8),
                features.clone(),
                1,
                true,
            )),
        ),
    ];
    let budget = AttackBudget::new(0.5);
    let mut attackers = [
        (
            "camera attacker",
            LearnedAttacker::new(camera, AttackerSensor::camera(features), budget, 1, true),
        ),
        (
            "imu attacker",
            LearnedAttacker::new(imu_policy, AttackerSensor::imu(imu, 1), budget, 1, true),
        ),
    ];

    let mut world = World::new(Scenario::default());
    for (_, agent) in &mut agents {
        agent.reset(&world);
    }
    for (_, attacker) in &mut attackers {
        attacker.reset(&world);
    }
    // Warm-up fills the feature stacks, the IMU window and every scratch
    // buffer; the measured steps then only reuse them.
    let mut grew = vec![0u64; agents.len() + attackers.len()];
    for step in 0..40 {
        let measure = step >= 30;
        let mut command = Actuation::new(0.0, 0.0);
        for (i, (_, agent)) in agents.iter_mut().enumerate() {
            let before = allocs();
            let a = agent.act(&world);
            if measure {
                grew[i] += allocs() - before;
            }
            if i == 0 {
                command = a;
            }
        }
        for (i, (_, attacker)) in attackers.iter_mut().enumerate() {
            let before = allocs();
            let delta = attacker.delta(&world);
            if measure {
                grew[agents.len() + i] += allocs() - before;
            }
            if i == 0 {
                command = Actuation::new(command.steer + delta, command.thrust);
            }
        }
        world.step(command);
    }
    let names = agents
        .iter()
        .map(|(n, _)| *n)
        .chain(attackers.iter().map(|(n, _)| *n));
    for (name, grew) in names.zip(grew) {
        assert_eq!(grew, 0, "{name} allocated {grew} times across 10 steps");
    }
}
