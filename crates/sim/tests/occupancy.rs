//! Exact-count regression test for the fleet occupancy counters.
//!
//! `WorldBatch::step` must record, per lockstep batch step, exactly the
//! number of slots that actually advanced: a slot that terminated earlier
//! and is merely re-reporting contributes nothing, and a slot that retires
//! and is refilled within the same `compact` pass is counted once for each
//! step it really took — never twice. This lives in its own integration
//! binary with a single test so the process-wide counters admit exact
//! deltas (the in-crate tests can only assert monotonicity because they
//! share the process with concurrently stepping tests).

use drive_sim::batch::WorldBatch;
use drive_sim::perf;
use drive_sim::scenario::Scenario;
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;

fn world(max_steps: usize) -> World {
    World::new(Scenario {
        npcs: vec![],
        max_steps,
        ..Scenario::default()
    })
}

#[test]
fn occupancy_counts_only_advancing_slots_across_staggered_retirements() {
    let t0 = perf::fleet();
    let mut wb = WorldBatch::new();
    wb.push(world(1));
    wb.push(world(3));
    let mut out = Vec::new();
    let idle = [Actuation::new(0.0, 0.0); 2];

    // Step 1: both slots advance (the short world terminates on arrival
    // at its step limit, but it did take this step).
    wb.step(&idle, &mut out);
    perf::record_fleet_capacity(2);
    assert_eq!(perf::fleet().since(&t0).slot_steps, 2);

    // Retire the finished slot and refill it within the same lockstep
    // iteration — the classic double-count trigger.
    let mut retired = 0;
    wb.compact(|_, _| retired += 1);
    assert_eq!(retired, 1);
    wb.push(world(2));

    // Step 2: the surviving world and the refill both advance: exactly +2,
    // not +3 (the retired slot must not be counted again).
    wb.step(&idle, &mut out);
    perf::record_fleet_capacity(2);
    assert_eq!(perf::fleet().since(&t0).slot_steps, 4);

    // Step 3: both reach their limits while advancing: +2.
    wb.step(&idle, &mut out);
    perf::record_fleet_capacity(2);
    assert_eq!(perf::fleet().since(&t0).slot_steps, 6);

    // Step 4: every slot already terminated — re-reporting only, +0.
    wb.step(&idle, &mut out);
    perf::record_fleet_capacity(2);

    let d = perf::fleet().since(&t0);
    assert_eq!(d.slot_steps, 6, "stale slots must not inflate occupancy");
    assert_eq!(d.batches, 4);
    assert_eq!(d.capacity, 8);
    assert!(
        (d.occupancy() - 0.75).abs() < 1e-12,
        "6 advanced / 8 capacity"
    );
    assert!((d.episodes_in_flight() - 1.5).abs() < 1e-12);
}
