//! Regression test: the steady-state fleet control loop —
//! `WorldBatch::step` plus `BehaviorPlanner::plan_into` for every slot —
//! performs zero heap allocations once its scratch buffers have warmed up.
//!
//! This is the hard form of the control-phase batching contract: the
//! per-world `StepScratch` (lead tables + NPC actuations), the batch's
//! command buffers, and the planner's reused `Path` must all
//! reach a fixed point. A counting `#[global_allocator]` wrapping the
//! system allocator makes that an invariant instead of a benchmark hope;
//! the counters are thread-local, so other test threads can't pollute the
//! measurement.

use drive_agents::behavior::{BehaviorConfig, BehaviorPlanner};
use drive_sim::batch::WorldBatch;
use drive_sim::scenario::Scenario;
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
