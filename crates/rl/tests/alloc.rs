//! Regression test: `Sac::update_batch` and the behaviour-cloning step
//! `Cloner::step` perform zero heap allocations once their persistent
//! scratches have warmed up.
//!
//! The whole point of `UpdateScratch`, the `Cloner` buffers (and the
//! `_into`/`_with` kernel variants under them) is that steady-state
//! training never touches the allocator. A counting `#[global_allocator]` wrapping the system
//! allocator makes that a hard invariant instead of a benchmark hope: the
//! counters are thread-local, so other test threads can't pollute the
//! measurement.

use drive_nn::gaussian::GaussianPolicy;
use drive_rl::bc::{BcConfig, Cloner, Demonstrations};
use drive_rl::replay::{Batch, ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Warms a learner of the given shape up on one fixed batch, then asserts
/// that ten more `update_batch` calls allocate nothing.
fn assert_update_batch_allocation_free(
    obs_dim: usize,
    action_dim: usize,
    hidden: &[usize],
    batch_size: usize,
) {
    let mut rng = StdRng::seed_from_u64(42);
    // actor_delay 0 so the very first update already exercises the actor
    // and temperature paths (warming the Adam moment buffers too).
    let cfg = SacConfig {
        batch_size,
        actor_delay: 0,
        ..SacConfig::default()
    };
    let mut sac = Sac::new(obs_dim, action_dim, hidden, cfg, &mut rng);

    let mut rb = ReplayBuffer::new(256, obs_dim, action_dim);
    for _ in 0..128 {
        let obs: Vec<f32> = (0..obs_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let action: Vec<f32> = (0..action_dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let next_obs: Vec<f32> = (0..obs_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        rb.push(Transition {
            obs,
            action,
            reward: rng.gen_range(-1.0f32..1.0),
            next_obs,
            terminal: rng.gen::<f32>() < 0.1,
        });
    }
    // One fixed batch: the invariant under test is update_batch itself,
    // not replay sampling.
    let mut batch = Batch::default();
    rb.sample_into(cfg.batch_size, &mut rng, &mut batch);

    // Warm-up: first call sizes every scratch buffer and lazily creates
    // the Adam moment vectors; a second call catches stragglers.
    sac.update_batch(&batch, &mut rng);
    sac.update_batch(&batch, &mut rng);

    let before = allocs();
    for _ in 0..10 {
        let losses = sac.update_batch(&batch, &mut rng);
        assert!(losses.q1_loss.is_finite());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "Sac::update_batch ({obs_dim} obs, {action_dim} actions, {hidden:?}, batch \
         {batch_size}) allocated {} times across 10 warmed-up calls",
        after - before
    );
}

#[test]
fn update_batch_is_allocation_free_after_warmup() {
    assert_update_batch_allocation_free(6, 2, &[16, 16], 32);
}

/// The victim's training shape: every kernel path a `train-tenth` update
/// runs — 32-wide strips, the padded remainder strip (62-wide critic
/// input, 60-wide observations), the tall tile of the 1- and 4-wide
/// heads and the bias-gradient buffer — allocates nothing once warm.
#[test]
fn victim_shape_update_is_allocation_free() {
    assert_update_batch_allocation_free(60, 2, &[128, 128], 128);
}

/// The steering attacker's shape: 1 action, so a 2-wide policy head and
/// a 61-wide critic input.
#[test]
fn attacker_shape_update_is_allocation_free() {
    assert_update_batch_allocation_free(60, 1, &[128, 128], 128);
}

/// Behaviour cloning at the victim's training shape (60 obs, 2 actions,
/// [128, 128], batch 128): mini-batch sampling, the one trunk forward,
/// the head gradient, the backward pass and the Adam step all allocate
/// nothing once warm.
#[test]
fn bc_step_is_allocation_free_after_warmup() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut demos = Demonstrations::new();
    for _ in 0..512 {
        let obs: Vec<f32> = (0..60).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let action: Vec<f32> = (0..2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        demos.push(obs, action);
    }
    let mut policy = GaussianPolicy::new(60, &[128, 128], 2, &mut rng);
    let mut cloner = Cloner::new(BcConfig::default());
    // The first step sizes every buffer and creates the Adam moments; a
    // second catches stragglers.
    cloner.step(&mut policy, &demos, &mut rng);
    cloner.step(&mut policy, &demos, &mut rng);

    let before = allocs();
    for _ in 0..10 {
        assert!(cloner.step(&mut policy, &demos, &mut rng).is_finite());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "Cloner::step allocated {} times across 10 warmed-up steps",
        after - before
    );
}
