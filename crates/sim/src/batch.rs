//! Lockstep batched episode stepping for fleet evaluation.
//!
//! A [`WorldBatch`] advances N independent episodes one control step at a
//! time so a fleet driver can gather all live observations into one matrix
//! and amortize policy inference across the whole batch (see
//! `drive_nn::batch::BatchPolicy`). Episodes retire independently: after
//! each step the caller drains finished slots with [`WorldBatch::compact`],
//! which swap-removes them so the dense slot array never carries dead
//! weight.
//!
//! Each slot steps through the serial engine's own phases
//! (`World::begin_step`, `World::integrate_step`, `World::conclude_step`),
//! so a batch is bit-identical to serial runs by construction. The batched
//! win is inference amortization only.

use crate::scenario::Scenario;
use crate::vehicle::Actuation;
use crate::world::{StepOutcome, World};
use std::time::Instant;

/// N episodes stepped in lockstep.
///
/// Slots are dense: index `i` of the `actions` slice passed to
/// [`WorldBatch::step`] addresses `worlds()[i]`. Finished slots stay in
/// place (re-reporting their terminal outcome, like the serial engine)
/// until [`WorldBatch::compact`] swap-removes them; callers holding
/// per-slot side state mirror the same swap-removes through the callback.
#[derive(Debug, Default)]
pub struct WorldBatch {
    worlds: Vec<World>,
    /// Per-step scratch: dense indices of slots that passed `begin_step`.
    live: Vec<usize>,
    /// Per-step scratch: sanitized ego commands, parallel to `live`.
    ego_cmds: Vec<Actuation>,
}

impl WorldBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WorldBatch::default()
    }

    /// Spawns a batch from scenarios (one fresh [`World`] per scenario).
    pub fn from_scenarios<I: IntoIterator<Item = Scenario>>(scenarios: I) -> Self {
        let mut b = WorldBatch::new();
        for s in scenarios {
            b.push(World::new(s));
        }
        b
    }

    /// Adds an episode; returns its dense slot index.
    pub fn push(&mut self, world: World) -> usize {
        self.worlds.push(world);
        self.worlds.len() - 1
    }

    /// Live slots, dense.
    pub fn worlds(&self) -> &[World] {
        &self.worlds
    }

    /// Number of slots currently in the batch.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// Whether the batch has no slots left.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Advances every slot by one control step. `actions[i]` is the ego
    /// variation command for `worlds()[i]`; outcomes are written densely
    /// into `outcomes` (cleared first).
    ///
    /// The step is sliced into per-phase loops over the slots (control,
    /// integrate, outcome) so each phase is timed once per batch. Worlds
    /// are independent, so phase-major iteration is bit-identical to the
    /// slot-major [`World::step`] sequence.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != len()`.
    pub fn step(&mut self, actions: &[Actuation], outcomes: &mut Vec<StepOutcome>) {
        assert_eq!(actions.len(), self.worlds.len(), "one action per slot");
        outcomes.clear();
        let t0 = Instant::now();
        self.live.clear();
        self.ego_cmds.clear();
        for (i, w) in self.worlds.iter_mut().enumerate() {
            match w.begin_step(actions[i]) {
                Ok(cmd) => {
                    self.live.push(i);
                    self.ego_cmds.push(cmd);
                    // Placeholder, finalized by the outcome phase.
                    outcomes.push(StepOutcome {
                        step: 0,
                        collision: None,
                        termination: None,
                        passed: 0,
                    });
                }
                Err(done) => outcomes.push(done),
            }
        }
        let t1 = Instant::now();
        for (&i, cmd) in self.live.iter().zip(&self.ego_cmds) {
            self.worlds[i].integrate_step(*cmd);
        }
        let t2 = Instant::now();
        for &i in &self.live {
            outcomes[i] = self.worlds[i].conclude_step();
        }
        crate::perf::record_fleet_phases(
            (t1 - t0).as_nanos() as u64,
            (t2 - t1).as_nanos() as u64,
            t2.elapsed().as_nanos() as u64,
        );
        // Occupancy counts only slots that actually advanced this step;
        // already-terminated slots merely re-report their outcome.
        crate::perf::record_fleet_batch(self.live.len() as u64);
    }

    /// Swap-removes every finished slot, handing each to `retire` along
    /// with the dense index it occupied at removal time. Callers with
    /// per-slot side state must apply the same `swap_remove(index)` to
    /// their parallel arrays inside the callback to stay aligned.
    pub fn compact<F: FnMut(usize, World)>(&mut self, mut retire: F) {
        let mut i = 0;
        while i < self.worlds.len() {
            if self.worlds[i].is_done() {
                let w = self.worlds.swap_remove(i);
                retire(i, w);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic per-slot action scripts: every slot gets its own
    /// bounded pseudo-random command sequence, aggressive enough to force
    /// collisions and barrier hits at different steps.
    fn action_script(slot: u64, len: usize) -> Vec<Actuation> {
        let mut rng = StdRng::seed_from_u64(0xA11C_E000 + slot);
        (0..len)
            .map(|_| Actuation::new(rng.gen_range(-0.6..0.6), rng.gen_range(-0.2..0.9)))
            .collect()
    }

    fn scenario_for(slot: u64) -> Scenario {
        let mut s = Scenario::default().jittered(&mut StdRng::seed_from_u64(900 + slot));
        // Stagger the horizons so slots retire mid-flight even when no
        // collision happens.
        s.max_steps = 30 + (slot as usize % 7) * 11;
        s
    }

    /// Serial reference trace: per-step ego state bits + outcome.
    fn serial_trace(slot: u64) -> (Vec<[u64; 4]>, usize) {
        let scenario = scenario_for(slot);
        let script = action_script(slot, scenario.max_steps);
        let mut w = World::new(scenario);
        let mut trace = Vec::new();
        for a in script {
            w.step(a);
            trace.push(ego_bits(&w));
            if w.is_done() {
                break;
            }
        }
        (trace, w.step_index())
    }

    fn ego_bits(w: &World) -> [u64; 4] {
        let e = w.ego();
        [
            e.pose.position.x.to_bits(),
            e.pose.position.y.to_bits(),
            e.pose.heading.to_bits(),
            e.speed.to_bits(),
        ]
    }

    /// The batch path must stay bit-identical to serial on non-straight
    /// topologies too: merge-steering NPCs and x-dependent barrier checks
    /// all run inside the shared `begin_step`/`conclude_step` core.
    #[test]
    fn topology_scenarios_batch_identical_to_serial() {
        use crate::scenario::ScenarioSpec;
        let specs = [ScenarioSpec::on_ramp_merge(), ScenarioSpec::lane_drop()];
        let scenario_at = |slot: u64| -> Scenario {
            let spec = &specs[(slot % 2) as usize];
            let mut s = spec
                .scenario()
                .clone()
                .jittered(&mut StdRng::seed_from_u64(300 + slot));
            s.max_steps = 60 + (slot as usize % 5) * 13;
            s
        };
        let batch = 8usize;
        // Serial references.
        let serial: Vec<Vec<[u64; 4]>> = (0..batch as u64)
            .map(|slot| {
                let scenario = scenario_at(slot);
                let script = action_script(slot, scenario.max_steps);
                let mut w = World::new(scenario);
                let mut trace = Vec::new();
                for a in script {
                    w.step(a);
                    trace.push(ego_bits(&w));
                    if w.is_done() {
                        break;
                    }
                }
                trace
            })
            .collect();
        // Batched run, mirrored through compact().
        let mut wb = WorldBatch::new();
        for slot in 0..batch as u64 {
            wb.push(World::new(scenario_at(slot)));
        }
        let scripts: Vec<Vec<Actuation>> = (0..batch as u64)
            .map(|s| action_script(s, scenario_at(s).max_steps))
            .collect();
        let mut ids: Vec<usize> = (0..batch).collect();
        let mut steps_seen: Vec<usize> = vec![0; batch];
        let mut outcomes = Vec::new();
        while !wb.is_empty() {
            let actions: Vec<Actuation> = ids
                .iter()
                .zip(wb.worlds())
                .map(|(&id, w)| scripts[id][w.step_index()])
                .collect();
            wb.step(&actions, &mut outcomes);
            for (dense, w) in wb.worlds().iter().enumerate() {
                let id = ids[dense];
                let t = steps_seen[id];
                assert_eq!(
                    serial[id][t],
                    ego_bits(w),
                    "topology slot {id} step {t}: batch diverged from serial"
                );
                steps_seen[id] += 1;
            }
            wb.compact(|dense, _| {
                ids.swap_remove(dense);
            });
        }
    }

    /// The Golden batch path must reproduce serial episodes BIT-FOR-BIT at
    /// every step, across batch sizes and with slots retiring mid-flight.
    #[test]
    fn golden_batch_bit_identical_to_serial_with_retirements() {
        for &batch in &[1usize, 2, 5, 23, 64, 128] {
            let serial: Vec<(Vec<[u64; 4]>, usize)> = (0..batch as u64).map(serial_trace).collect();

            let mut wb = WorldBatch::new();
            for slot in 0..batch as u64 {
                wb.push(World::new(scenario_for(slot)));
            }
            let scripts: Vec<Vec<Actuation>> = (0..batch as u64)
                .map(|s| action_script(s, scenario_for(s).max_steps))
                .collect();
            // Parallel per-slot state mirrored through compact().
            let mut ids: Vec<usize> = (0..batch).collect();
            let mut steps_seen: Vec<usize> = vec![0; batch];
            let mut outcomes = Vec::new();
            let mut retired = 0usize;
            while !wb.is_empty() {
                let actions: Vec<Actuation> = ids
                    .iter()
                    .zip(wb.worlds())
                    .map(|(&id, w)| scripts[id][w.step_index()])
                    .collect();
                wb.step(&actions, &mut outcomes);
                for (dense, w) in wb.worlds().iter().enumerate() {
                    let id = ids[dense];
                    let t = steps_seen[id];
                    assert_eq!(
                        serial[id].0[t],
                        ego_bits(w),
                        "batch {batch} slot {id} step {t}: batch diverged from serial"
                    );
                    steps_seen[id] += 1;
                }
                wb.compact(|dense, w| {
                    let id = ids.swap_remove(dense);
                    assert_eq!(
                        w.step_index(),
                        serial[id].1,
                        "slot {id} retired at the wrong step"
                    );
                    retired += 1;
                });
            }
            assert_eq!(retired, batch);
            // Mid-flight retirement actually exercised: staggered horizons
            // guarantee non-uniform lifetimes for batch >= 2.
            if batch >= 2 {
                let lifetimes: std::collections::HashSet<usize> =
                    serial.iter().map(|(_, n)| *n).collect();
                assert!(lifetimes.len() > 1, "horizons must be staggered");
            }
        }
    }

    /// The batch must reuse the serial decision logic: sanitize accounting
    /// and post-termination re-reporting behave exactly like `World::step`.
    #[test]
    fn batch_shares_decision_logic() {
        let mut s = Scenario::default();
        s.npcs.clear();
        s.max_steps = 3;
        let mut wb = WorldBatch::new();
        wb.push(World::new(s));
        let mut out = Vec::new();
        wb.step(
            &[Actuation {
                steer: f64::NAN,
                thrust: 0.2,
            }],
            &mut out,
        );
        assert_eq!(wb.worlds()[0].nonfinite_action_count(), 1);
        for _ in 0..2 {
            wb.step(&[Actuation::new(0.0, 0.2)], &mut out);
        }
        assert!(wb.worlds()[0].is_done());
        // Stepping a finished slot re-reports, moves nothing, but still
        // counts sanitize hits — the serial contract.
        let x = wb.worlds()[0].ego().pose.position.x;
        wb.step(
            &[Actuation {
                steer: f64::INFINITY,
                thrust: 0.0,
            }],
            &mut out,
        );
        assert_eq!(
            out[0].termination,
            Some(crate::world::Termination::TimeLimit)
        );
        assert_eq!(wb.worlds()[0].ego().pose.position.x, x);
        assert_eq!(wb.worlds()[0].nonfinite_action_count(), 2);
    }

    /// Ego inertial histories must be populated by the batch step (the IMU
    /// samples them every step).
    #[test]
    fn batch_records_ego_inertial() {
        let mut wb = WorldBatch::new();
        wb.push(World::new(Scenario::default()));
        let substeps = wb.worlds()[0].scenario().substeps;
        let mut out = Vec::new();
        wb.step(&[Actuation::new(0.1, 0.5)], &mut out);
        assert_eq!(wb.worlds()[0].ego().inertial.len(), substeps);
        assert!(wb.worlds()[0].ego().inertial[0].accel_lon != 0.0);
    }

    proptest::proptest! {
        /// Property form of the equivalence above: for ANY batch size in
        /// `1..=128` and ANY seed base, a Golden batch is a pure
        /// reordering of the serial runs — same per-step ego state bits,
        /// same retirement steps, mid-flight retirements included.
        #[test]
        fn golden_batch_equals_serial_for_any_batch(
            batch in 1usize..=128,
            seed_base in 0u64..1_000_000,
        ) {
            let mk_scenario = |slot: u64| {
                let mut s = Scenario::default()
                    .jittered(&mut StdRng::seed_from_u64(seed_base ^ slot));
                s.max_steps = 25 + ((seed_base + slot) as usize % 5) * 9;
                s
            };
            let serial: Vec<(Vec<[u64; 4]>, usize)> = (0..batch as u64)
                .map(|slot| {
                    let scenario = mk_scenario(slot);
                    let script = action_script(seed_base ^ slot, scenario.max_steps);
                    let mut w = World::new(scenario);
                    let mut trace = Vec::new();
                    for a in script {
                        w.step(a);
                        trace.push(ego_bits(&w));
                        if w.is_done() {
                            break;
                        }
                    }
                    (trace, w.step_index())
                })
                .collect();

            let mut wb = WorldBatch::new();
            let mut scripts = Vec::new();
            for slot in 0..batch as u64 {
                let scenario = mk_scenario(slot);
                scripts.push(action_script(seed_base ^ slot, scenario.max_steps));
                wb.push(World::new(scenario));
            }
            let mut ids: Vec<usize> = (0..batch).collect();
            let mut steps_seen = vec![0usize; batch];
            let mut outcomes = Vec::new();
            let mut retired = 0usize;
            while !wb.is_empty() {
                let actions: Vec<Actuation> = ids
                    .iter()
                    .zip(wb.worlds())
                    .map(|(&id, w)| scripts[id][w.step_index()])
                    .collect();
                wb.step(&actions, &mut outcomes);
                for (dense, w) in wb.worlds().iter().enumerate() {
                    let id = ids[dense];
                    proptest::prop_assert_eq!(serial[id].0[steps_seen[id]], ego_bits(w));
                    steps_seen[id] += 1;
                }
                let mut bad = None;
                wb.compact(|dense, w| {
                    let id = ids.swap_remove(dense);
                    if w.step_index() != serial[id].1 {
                        bad = Some(id);
                    }
                    retired += 1;
                });
                proptest::prop_assert_eq!(bad, None);
            }
            proptest::prop_assert_eq!(retired, batch);
        }

        /// The same property over *generated* scenarios on every road
        /// topology (Straight, OnRamp, LaneDrop): seeded generation plus
        /// per-slot spawn jitter, round-tripped through batch 1..=128.
        /// Merge-deadline NPC steering and x-dependent barrier geometry
        /// must be bit-identical through the batched lead-table path.
        #[test]
        fn generated_topology_batch_equals_serial_for_any_batch(
            batch in 1usize..=128,
            topo in 0usize..3,
            seed_base in 0u64..1_000_000,
        ) {
            use crate::generate::{generate, ScenarioAxes, SpeedMix, TopologyKind, TrafficDensity};
            use drive_seed::SeedTree;
            let axes = ScenarioAxes {
                topology: TopologyKind::ALL[topo],
                density: TrafficDensity::Normal,
                speed_mix: SpeedMix::Mixed,
                fault_intensity: 0.0,
            };
            let root = SeedTree::root(seed_base).child("batch-prop");
            let mk_scenario = |slot: u64| {
                let g = generate(axes, &root.child(slot));
                let mut s = g
                    .spec
                    .scenario()
                    .jittered(&mut StdRng::seed_from_u64(seed_base ^ slot));
                s.max_steps = 25 + ((seed_base + slot) as usize % 5) * 9;
                s
            };
            let serial: Vec<(Vec<[u64; 4]>, usize)> = (0..batch as u64)
                .map(|slot| {
                    let scenario = mk_scenario(slot);
                    let script = action_script(seed_base ^ slot, scenario.max_steps);
                    let mut w = World::new(scenario);
                    let mut trace = Vec::new();
                    for a in script {
                        w.step(a);
                        trace.push(ego_bits(&w));
                        if w.is_done() {
                            break;
                        }
                    }
                    (trace, w.step_index())
                })
                .collect();

            let mut wb = WorldBatch::new();
            let mut scripts = Vec::new();
            for slot in 0..batch as u64 {
                let scenario = mk_scenario(slot);
                scripts.push(action_script(seed_base ^ slot, scenario.max_steps));
                wb.push(World::new(scenario));
            }
            let mut ids: Vec<usize> = (0..batch).collect();
            let mut steps_seen = vec![0usize; batch];
            let mut outcomes = Vec::new();
            let mut retired = 0usize;
            while !wb.is_empty() {
                let actions: Vec<Actuation> = ids
                    .iter()
                    .zip(wb.worlds())
                    .map(|(&id, w)| scripts[id][w.step_index()])
                    .collect();
                wb.step(&actions, &mut outcomes);
                for (dense, w) in wb.worlds().iter().enumerate() {
                    let id = ids[dense];
                    proptest::prop_assert_eq!(serial[id].0[steps_seen[id]], ego_bits(w));
                    steps_seen[id] += 1;
                }
                let mut bad = None;
                wb.compact(|dense, w| {
                    let id = ids.swap_remove(dense);
                    if w.step_index() != serial[id].1 {
                        bad = Some(id);
                    }
                    retired += 1;
                });
                proptest::prop_assert_eq!(bad, None);
            }
            proptest::prop_assert_eq!(retired, batch);
        }
    }
}
