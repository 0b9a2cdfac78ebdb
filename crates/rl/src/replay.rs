//! Uniform experience replay buffer.

use drive_nn::checkpoint::{encode_floats, CheckpointError, Reader};
use drive_nn::mat::Mat;
use rand::Rng;
use std::fmt;

/// Version tag of the replay-buffer checkpoint section.
const REPLAY_VERSION: &str = "v1";

/// One stored transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation before the action.
    pub obs: Vec<f32>,
    /// Action taken, in `[-1, 1]^action_dim`.
    pub action: Vec<f32>,
    /// Reward received.
    pub reward: f32,
    /// Observation after the action.
    pub next_obs: Vec<f32>,
    /// True terminal (no bootstrapping); time-limit truncations store
    /// `false` here.
    pub terminal: bool,
}

/// A sampled mini-batch in matrix form, ready for network passes.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Observations, `(batch, obs_dim)`.
    pub obs: Mat,
    /// Actions, `(batch, action_dim)`.
    pub actions: Mat,
    /// Rewards.
    pub rewards: Vec<f32>,
    /// Next observations.
    pub next_obs: Mat,
    /// Terminal flags as 0/1 masks.
    pub terminals: Vec<f32>,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }
}

/// An empty batch — the natural seed for a reusable buffer filled by
/// [`ReplayBuffer::sample_into`].
impl Default for Batch {
    fn default() -> Self {
        Batch {
            obs: Mat::default(),
            actions: Mat::default(),
            rewards: Vec::new(),
            next_obs: Mat::default(),
            terminals: Vec::new(),
        }
    }
}

/// Fixed-capacity ring buffer with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    storage: Vec<Transition>,
    capacity: usize,
    next: usize,
    obs_dim: usize,
    action_dim: usize,
}

impl ReplayBuffer {
    /// Creates a buffer for transitions of the given shapes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, obs_dim: usize, action_dim: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            storage: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            next: 0,
            obs_dim,
            action_dim,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Maximum number of transitions retained.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a transition, evicting the oldest once full.
    ///
    /// # Panics
    ///
    /// Panics if the transition's shapes do not match the buffer.
    pub fn push(&mut self, t: Transition) {
        assert_eq!(t.obs.len(), self.obs_dim, "obs dim mismatch");
        assert_eq!(t.next_obs.len(), self.obs_dim, "next_obs dim mismatch");
        assert_eq!(t.action.len(), self.action_dim, "action dim mismatch");
        if self.storage.len() < self.capacity {
            self.storage.push(t);
        } else {
            self.storage[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// [`ReplayBuffer::sample_into`] into a fresh batch: the reference the
    /// tests hold the reusing path to.
    #[cfg(test)]
    pub fn sample<R: Rng>(&self, batch: usize, rng: &mut R) -> Batch {
        let mut out = Batch::default();
        self.sample_into(batch, rng, &mut out);
        out
    }

    /// Samples a uniform mini-batch with replacement into a caller-provided
    /// [`Batch`], reusing its buffers, so hot training loops (thousands of
    /// SAC updates per run) sample without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty or `batch == 0`.
    pub fn sample_into<R: Rng>(&self, batch: usize, rng: &mut R, out: &mut Batch) {
        assert!(!self.is_empty(), "cannot sample from an empty buffer");
        assert!(batch > 0, "batch size must be positive");
        out.obs.resize(batch, self.obs_dim);
        out.actions.resize(batch, self.action_dim);
        out.next_obs.resize(batch, self.obs_dim);
        out.rewards.clear();
        out.rewards.reserve(batch);
        out.terminals.clear();
        out.terminals.reserve(batch);
        for b in 0..batch {
            let t = &self.storage[rng.gen_range(0..self.storage.len())];
            out.obs.row_mut(b).copy_from_slice(&t.obs);
            out.actions.row_mut(b).copy_from_slice(&t.action);
            out.next_obs.row_mut(b).copy_from_slice(&t.next_obs);
            out.rewards.push(t.reward);
            out.terminals.push(if t.terminal { 1.0 } else { 0.0 });
        }
    }

    /// Writes the buffer — capacity, shapes, write cursor, and every
    /// stored transition — as a versioned checkpoint section. A restored
    /// buffer evicts and samples exactly like the original, which training
    /// snapshots rely on for deterministic resume.
    pub fn encode_into(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        writeln!(
            out,
            "replay {REPLAY_VERSION} {} {} {} {} {}",
            self.capacity,
            self.obs_dim,
            self.action_dim,
            self.storage.len(),
            self.next
        )?;
        for t in &self.storage {
            writeln!(out, "t {} {}", t.reward, if t.terminal { 1 } else { 0 })?;
            encode_floats(out, &t.obs)?;
            encode_floats(out, &t.action)?;
            encode_floats(out, &t.next_obs)?;
        }
        Ok(())
    }

    /// Parses one buffer section from a reader positioned at its `replay`
    /// tag.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Version`] for a section written by a
    /// different format revision — an old snapshot must surface as a typed
    /// error, never load as garbage transitions — and
    /// [`CheckpointError::Parse`] on structural mismatch.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let parse_err = CheckpointError::Parse;
        let args = r.expect_tag("replay")?;
        let version = *args
            .first()
            .ok_or_else(|| parse_err("replay tag needs a version".into()))?;
        if version != REPLAY_VERSION {
            return Err(CheckpointError::Version {
                found: version.to_string(),
                expected: REPLAY_VERSION,
            });
        }
        if args.len() != 6 {
            return Err(parse_err(
                "replay tag needs '<version> <capacity> <obs_dim> <action_dim> <len> <next>'"
                    .into(),
            ));
        }
        let mut nums = [0usize; 5];
        for (dst, tok) in nums.iter_mut().zip(&args[1..6]) {
            *dst = tok
                .parse()
                .map_err(|_| parse_err(format!("bad replay field '{tok}'")))?;
        }
        let [capacity, obs_dim, action_dim, len, next] = nums;
        if capacity == 0 || len > capacity || next >= capacity.max(1) {
            return Err(parse_err(format!(
                "inconsistent replay geometry: capacity {capacity}, len {len}, next {next}"
            )));
        }
        let mut rb = ReplayBuffer::new(capacity, obs_dim, action_dim);
        for _ in 0..len {
            let targs = r.expect_tag("t")?;
            if targs.len() != 2 {
                return Err(parse_err(
                    "transition tag needs '<reward> <terminal>'".into(),
                ));
            }
            let reward: f32 = targs[0]
                .parse()
                .map_err(|_| parse_err(format!("bad reward '{}'", targs[0])))?;
            let terminal = match targs[1] {
                "0" => false,
                "1" => true,
                other => return Err(parse_err(format!("bad terminal flag '{other}'"))),
            };
            let obs = r.floats(obs_dim)?;
            let action = r.floats(action_dim)?;
            let next_obs = r.floats(obs_dim)?;
            rb.storage.push(Transition {
                obs,
                action,
                reward,
                next_obs,
                terminal,
            });
        }
        rb.next = next;
        Ok(rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tr(v: f32) -> Transition {
        Transition {
            obs: vec![v, v],
            action: vec![v],
            reward: v,
            next_obs: vec![v + 1.0, v + 1.0],
            terminal: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut rb = ReplayBuffer::new(10, 2, 1);
        assert!(rb.is_empty());
        for i in 0..5 {
            rb.push(tr(i as f32));
        }
        assert_eq!(rb.len(), 5);
    }

    #[test]
    fn ring_eviction_keeps_capacity() {
        let mut rb = ReplayBuffer::new(4, 2, 1);
        for i in 0..10 {
            rb.push(tr(i as f32));
        }
        assert_eq!(rb.len(), 4);
        // Oldest entries were evicted: all rewards must be >= 2.
        let mut rng = StdRng::seed_from_u64(0);
        let batch = rb.sample(64, &mut rng);
        assert!(batch.rewards.iter().all(|&r| r >= 2.0));
    }

    #[test]
    fn sample_shapes() {
        let mut rb = ReplayBuffer::new(8, 2, 1);
        rb.push(tr(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let b = rb.sample(3, &mut rng);
        assert_eq!(b.len(), 3);
        assert_eq!((b.obs.rows(), b.obs.cols()), (3, 2));
        assert_eq!((b.actions.rows(), b.actions.cols()), (3, 1));
        assert_eq!(b.terminals, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn terminal_flag_round_trips() {
        let mut rb = ReplayBuffer::new(2, 2, 1);
        let mut t = tr(0.0);
        t.terminal = true;
        rb.push(t);
        let mut rng = StdRng::seed_from_u64(2);
        let b = rb.sample(4, &mut rng);
        assert!(b.terminals.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn sample_into_reuses_buffers_and_matches_sample() {
        let mut rb = ReplayBuffer::new(16, 2, 1);
        for i in 0..9 {
            rb.push(tr(i as f32));
        }
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let mut reused = Batch::default();
        for _ in 0..4 {
            let fresh = rb.sample(6, &mut r1);
            rb.sample_into(6, &mut r2, &mut reused);
            assert_eq!(fresh.obs, reused.obs);
            assert_eq!(fresh.actions, reused.actions);
            assert_eq!(fresh.next_obs, reused.next_obs);
            assert_eq!(fresh.rewards, reused.rewards);
            assert_eq!(fresh.terminals, reused.terminals);
        }
        // RNG streams stayed in lockstep.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn checkpoint_round_trip_preserves_sampling_and_eviction() {
        let mut rb = ReplayBuffer::new(6, 2, 1);
        for i in 0..9 {
            let mut t = tr(i as f32);
            t.terminal = i % 3 == 0;
            rb.push(t);
        }
        let mut buf = String::new();
        rb.encode_into(&mut buf).unwrap();
        let mut r = Reader::new(&buf);
        let mut back = ReplayBuffer::decode_from(&mut r).expect("round trip");
        assert_eq!(back.capacity(), rb.capacity());
        assert_eq!(back.len(), rb.len());
        assert_eq!(back.storage, rb.storage);
        // Identical sampling stream...
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = rb.sample(8, &mut r1);
        let b = back.sample(8, &mut r2);
        assert_eq!(a.rewards, b.rewards);
        assert_eq!(a.obs, b.obs);
        // ...and the eviction cursor continues from the same slot.
        rb.push(tr(50.0));
        back.push(tr(50.0));
        assert_eq!(back.storage, rb.storage);
        assert_eq!(back.next, rb.next);
    }

    #[test]
    fn checkpoint_version_mismatch_is_typed_error() {
        let mut rb = ReplayBuffer::new(4, 2, 1);
        rb.push(tr(1.0));
        let mut buf = String::new();
        rb.encode_into(&mut buf).unwrap();
        let tampered = buf.replacen("replay v1", "replay v0", 1);
        let mut r = Reader::new(&tampered);
        match ReplayBuffer::decode_from(&mut r) {
            Err(CheckpointError::Version { found, expected }) => {
                assert_eq!(found, "v0");
                assert_eq!(expected, REPLAY_VERSION);
            }
            other => panic!("old-version file must be a typed error, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_rejects_inconsistent_geometry() {
        let mut rb = ReplayBuffer::new(4, 2, 1);
        rb.push(tr(1.0));
        let mut buf = String::new();
        rb.encode_into(&mut buf).unwrap();
        // len > capacity must be refused before reading transitions.
        let bad = buf.replacen("replay v1 4 2 1 1 0", "replay v1 4 2 1 9 0", 1);
        let mut r = Reader::new(&bad);
        assert!(matches!(
            ReplayBuffer::decode_from(&mut r),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sampling_empty_panics() {
        let rb = ReplayBuffer::new(2, 2, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = rb.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "obs dim mismatch")]
    fn shape_mismatch_panics() {
        let mut rb = ReplayBuffer::new(2, 3, 1);
        rb.push(tr(0.0));
    }
}
