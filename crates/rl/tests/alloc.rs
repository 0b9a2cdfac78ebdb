//! Regression test: `Sac::update_batch` (with a Gaussian or a PNN actor)
//! and the behaviour-cloning step `Cloner::step` perform zero heap
//! allocations once their persistent scratches have warmed up, and saving
//! a training snapshot takes a heap that does not grow with its file.
//!
//! The whole point of `UpdateScratch`, the `Cloner` buffers (and the
//! `_into`/`_with` kernel variants under them) is that steady-state
//! training never touches the allocator. A counting `#[global_allocator]` wrapping the system
//! allocator makes that a hard invariant instead of a benchmark hope: the
//! counters are thread-local, so other test threads can't pollute the
//! measurement.

use drive_nn::checkpoint;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::PnnPolicy;
use drive_rl::actor::Actor;
use drive_rl::bc::{BcConfig, Cloner, Demonstrations};
use drive_rl::replay::{Batch, ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_rl::snapshot::TrainSnapshot;
use drive_seed::StreamPos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread minus bytes freed on it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since the last `reset_peak`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live heap bytes by `delta`, raising the peak.
fn track(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// System allocator wrapper counting allocation events and live bytes on
/// this thread. Only `alloc`/`realloc` count as events — frees matter to
/// the live bytes alone.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping around it is
// thread-local counter bumps with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        track(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts this thread's high-water mark at its live bytes, which it
/// returns.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// SAC settings for the allocation tests: `actor_delay` 0 so the very
/// first update already exercises the actor and temperature paths
/// (warming the Adam moment buffers too).
fn config(batch_size: usize) -> SacConfig {
    SacConfig {
        batch_size,
        actor_delay: 0,
        ..SacConfig::default()
    }
}

/// Warms `sac` up on one fixed batch, then asserts that ten more
/// `update_batch` calls allocate nothing.
fn assert_update_batch_allocation_free<A: Actor>(mut sac: Sac<A>, rng: &mut StdRng) {
    let (obs_dim, action_dim) = (sac.actor.obs_dim(), sac.actor.action_dim());
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
    let batch_size = sac.config().batch_size;
    let mut batch = Batch::default();
    rb.sample_into(batch_size, rng, &mut batch);

    // Warm-up: first call sizes every scratch buffer and lazily creates
    // the Adam moment vectors; a second call catches stragglers.
    sac.update_batch(&batch, rng);
    sac.update_batch(&batch, rng);

    let before = allocs();
    for _ in 0..10 {
        let losses = sac.update_batch(&batch, rng);
        assert!(losses.q1_loss.is_finite());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "Sac::update_batch ({obs_dim} obs, {action_dim} actions, {}, batch {batch_size}) \
         allocated {} times across 10 warmed-up calls",
        std::any::type_name::<A>(),
        after - before
    );
}

/// A plain Gaussian learner of the given shape.
fn assert_gaussian_allocation_free(
    obs_dim: usize,
    action_dim: usize,
    hidden: &[usize],
    batch_size: usize,
) {
    let mut rng = StdRng::seed_from_u64(42);
    let sac = Sac::new(obs_dim, action_dim, hidden, config(batch_size), &mut rng);
    assert_update_batch_allocation_free(sac, &mut rng);
}

#[test]
fn update_batch_is_allocation_free_after_warmup() {
    assert_gaussian_allocation_free(6, 2, &[16, 16], 32);
}

/// The victim's training shape: every kernel path a `train-tenth` update
/// runs — 32-wide strips, the padded remainder strip (62-wide critic
/// input, 60-wide observations), the tall tile of the 1- and 4-wide
/// heads and the bias-gradient buffer — allocates nothing once warm.
#[test]
fn victim_shape_update_is_allocation_free() {
    assert_gaussian_allocation_free(60, 2, &[128, 128], 128);
}

/// The steering attacker's shape: 1 action, so a 2-wide policy head and
/// a 61-wide critic input.
#[test]
fn attacker_shape_update_is_allocation_free() {
    assert_gaussian_allocation_free(60, 1, &[128, 128], 128);
}

/// The deployed PNN defense's shape: a second column with laterals over
/// the victim's [128, 128] trunk, trained at batch 128. Its sample cache
/// and backward workspace are reused like the Gaussian's.
#[test]
fn pnn_shape_update_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(42);
    let base = GaussianPolicy::new(60, &[128, 128], 2, &mut rng);
    let pnn = PnnPolicy::new(base, &mut rng);
    let sac = Sac::with_actor(pnn, &[128, 128], config(128), &mut rng);
    assert_update_batch_allocation_free(sac, &mut rng);
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

/// Saving a training snapshot at the victim's shapes (60 obs, 2 actions,
/// [128, 128], a 10 000-transition replay) streams its text to disk: the
/// save raises the thread's heap high-water mark by a fixed bound, not by
/// the megabytes of the file, and writes the same bytes as encoding the
/// text whole and appending its checksum line.
#[test]
fn snapshot_save_heap_does_not_grow_with_the_file() {
    /// The most heap one save may add: the write buffer and paths, far
    /// below the text's size.
    const BOUND: i64 = 256 * 1024;
    let mut rng = StdRng::seed_from_u64(11);
    let sac = Sac::new(60, 2, &[128, 128], config(128), &mut rng);
    let mut buffer = ReplayBuffer::new(20_000, 60, 2);
    let mut draw = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    for i in 0..10_000 {
        buffer.push(Transition {
            obs: draw(60),
            action: draw(2),
            reward: draw(1)[0],
            next_obs: draw(60),
            terminal: i % 97 == 0,
        });
    }
    let snap = TrainSnapshot {
        step: 10_000,
        episode_seed: 3,
        config_hash: 0x0123_4567_89ab_cdef,
        rng: StreamPos::capture(&StdRng::seed_from_u64(5)),
        healthy_updates: 40,
        rollbacks: 0,
        best: Some((sac.actor.clone(), 12.5)),
        sac: sac.clone(),
        last_good: Some(sac),
        buffer,
    };
    let dir = std::env::temp_dir().join(format!("drive-rl-alloc-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("victim_sac.snap");

    let before = reset_peak();
    checkpoint::save_with(&path, |out| snap.encode(out)).expect("save");
    let rise = peak() - before;

    let mut text = String::new();
    snap.encode(&mut text).expect("encode");
    assert!(
        text.len() > 4 << 20,
        "the snapshot text is {} bytes",
        text.len()
    );
    assert!(
        rise < BOUND,
        "saving a {}-byte snapshot raised the heap high-water mark by {rise} bytes",
        text.len()
    );
    assert!(text.ends_with('\n'));
    let expected = format!(
        "{text}checksum {:016x}\n",
        drive_seed::fnv1a_64(text.as_bytes())
    );
    let on_disk = std::fs::read(&path).expect("read back");
    assert!(on_disk == expected.as_bytes(), "the saved bytes differ");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
