#![warn(missing_docs)]

//! # drive-seed — hierarchical deterministic seed derivation
//!
//! Every stochastic stream in the workspace (simulator episodes, SAC
//! training, fault injection, attacker exploration) must be independently
//! seeded *and* reproducible from one root seed. Historically each module
//! derived its streams ad hoc (`seed ^ 0x5f5f`-style magic constants),
//! which collides silently, is impossible to audit, and leaks derivation
//! details into every call site. This crate replaces all of that with one
//! primitive: the [`SeedTree`].
//!
//! A [`SeedTree`] is an immutable node in a labelled derivation tree.
//! [`SeedTree::root`] mixes the user's root seed through SplitMix64;
//! [`SeedTree::child`] derives a namespaced sub-node by hashing the child
//! label (FNV-1a) into the parent state and re-mixing. Labels are anything
//! `Display`, so grids read naturally:
//!
//! ```
//! use drive_seed::SeedTree;
//! let root = SeedTree::root(10_000);
//! let cell = root.child("fig4").child("camera").child(3);
//! assert_eq!(cell.path(), "root/fig4/camera/3");
//! // Sibling streams never collide, and the derivation is stable:
//! assert_ne!(cell.seed(), root.child("fig4").child("imu").child(3).seed());
//! assert_eq!(cell.seed(), SeedTree::root(10_000).child("fig4").child("camera").child(3).seed());
//! ```
//!
//! The node's [`SeedTree::seed`] feeds `StdRng::seed_from_u64` (or any
//! other consumer of a `u64` seed); [`SeedTree::path`] is recorded in run
//! manifests so a figure can be re-derived from its manifest alone.

/// SplitMix64 finalizer: a fast, well-distributed `u64 -> u64` mixer
/// (Steele et al., "Fast splittable pseudorandom number generators").
///
/// Used as the state-advance of [`SeedTree`] and available directly for
/// call sites that only need to decorrelate two combined seeds.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash of a byte string.
///
/// The workspace's standard non-cryptographic checksum: checkpoint files,
/// run-manifest output checksums, and [`SeedTree`] label hashing all use
/// it, so a hash printed anywhere is comparable everywhere.
#[inline]
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(FNV_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// [`fnv1a_64`] continued over more bytes: `fnv1a_64_extend(fnv1a_64(a), b)`
/// equals the hash of `a` followed by `b`, so a writer can hash text in
/// the pieces it produces it in.
#[inline]
#[must_use]
pub fn fnv1a_64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a_64`] of the text `args` formats to, streamed through the hash
/// as it is formatted instead of built as a `String` first: the same
/// bytes, so the same hash. `fnv1a_64_fmt(format_args!("{x:?}"))` equals
/// `fnv1a_64(format!("{x:?}").as_bytes())`.
#[must_use]
pub fn fnv1a_64_fmt(args: std::fmt::Arguments<'_>) -> u64 {
    struct Sink(u64);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a_64_extend(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(FNV_OFFSET);
    // `Sink` never fails, so neither does formatting into it.
    let _ = std::fmt::Write::write_fmt(&mut sink, args);
    sink.0
}

/// A node in a hierarchical seed-derivation tree.
///
/// Nodes are cheap immutable values: `child` returns a new node and the
/// parent stays usable, so a grid loop can fan out
/// `root.child("fig6").child(agent).child(budget)` without bookkeeping.
/// See the crate docs for the derivation scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeedTree {
    state: u64,
    path: String,
}

impl SeedTree {
    /// The root node for a user-supplied seed.
    #[must_use]
    pub fn root(seed: u64) -> Self {
        SeedTree {
            state: splitmix64(seed),
            path: "root".to_string(),
        }
    }

    /// Derives the child node for `label`.
    ///
    /// The label's display form is FNV-hashed into the parent state and
    /// re-mixed, so distinct labels (and distinct positions in the tree)
    /// yield decorrelated streams. Integer labels are the idiomatic way to
    /// index episodes or grid cells.
    #[must_use]
    pub fn child(&self, label: impl std::fmt::Display) -> Self {
        let label = label.to_string();
        let state = splitmix64(self.state ^ fnv1a_64(label.as_bytes()));
        SeedTree {
            state,
            path: format!("{}/{}", self.path, label),
        }
    }

    /// The 64-bit seed of this node (feed to `StdRng::seed_from_u64`).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.state
    }

    /// The `/`-separated label path from the root, e.g.
    /// `"root/fig4/camera/3"`. Recorded in run manifests.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// A captured mid-stream position of a [`StdRng`](rand::rngs::StdRng).
///
/// A [`SeedTree`] pins where every stochastic stream *starts*; a
/// `StreamPos` pins where a stream currently *is*, so a crash-recovery
/// snapshot can resume a generator exactly where training left off instead
/// of replaying the stream from its seed. The position serializes as one
/// colon-separated hex token (stable, whitespace-free) for embedding in
/// the plain-text checkpoint format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPos([u64; 4]);

impl StreamPos {
    /// Captures the current position of a generator.
    #[must_use]
    pub fn capture(rng: &rand::rngs::StdRng) -> Self {
        StreamPos(rng.state())
    }

    /// Rebuilds a generator at this position; its next draw continues the
    /// captured stream.
    #[must_use]
    pub fn restore(&self) -> rand::rngs::StdRng {
        rand::rngs::StdRng::from_state(self.0)
    }

    /// Encodes the position as a single `s0:s1:s2:s3` hex token.
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!(
            "{:016x}:{:016x}:{:016x}:{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }

    /// Parses a token produced by [`StreamPos::to_hex`].
    ///
    /// # Errors
    ///
    /// Returns a message when the token is not four 16-digit hex words.
    pub fn from_hex(token: &str) -> Result<Self, String> {
        let mut words = [0u64; 4];
        let mut parts = token.split(':');
        for (i, w) in words.iter_mut().enumerate() {
            let part = parts
                .next()
                .ok_or_else(|| format!("stream position '{token}' has fewer than 4 words"))?;
            *w = u64::from_str_radix(part, 16)
                .map_err(|_| format!("stream position word {i} '{part}' is not hex"))?;
        }
        if parts.next().is_some() {
            return Err(format!("stream position '{token}' has more than 4 words"));
        }
        Ok(StreamPos(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_mixes_nearby_inputs() {
        // Consecutive seeds must land far apart: count differing bits.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16, "poor avalanche: {a:x} vs {b:x}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"),
            fnv1a_64(b"foobar")
        );
    }

    #[test]
    fn roots_differ_per_seed_and_are_stable() {
        assert_ne!(SeedTree::root(0).seed(), SeedTree::root(1).seed());
        assert_eq!(SeedTree::root(42).seed(), SeedTree::root(42).seed());
    }

    #[test]
    fn children_are_namespaced_and_order_sensitive() {
        let root = SeedTree::root(7);
        assert_ne!(root.child("a").seed(), root.child("b").seed());
        assert_ne!(root.child("a").seed(), root.seed());
        // Path order matters: a/b != b/a.
        assert_ne!(
            root.child("a").child("b").seed(),
            root.child("b").child("a").seed()
        );
        // Label concatenation does not alias: ("ab", "c") != ("a", "bc").
        assert_ne!(
            root.child("ab").child("c").seed(),
            root.child("a").child("bc").seed()
        );
    }

    #[test]
    fn integer_and_string_labels_compose() {
        let root = SeedTree::root(10_000);
        let cell = root.child("fig4").child("camera").child(3usize);
        assert_eq!(cell.path(), "root/fig4/camera/3");
        // An integer label equals its decimal-string spelling by design
        // (labels hash their display form).
        assert_eq!(
            cell.seed(),
            root.child("fig4").child("camera").child("3").seed()
        );
    }

    #[test]
    fn sibling_grid_has_no_collisions() {
        use std::collections::HashSet;
        let root = SeedTree::root(123);
        let mut seen = HashSet::new();
        for exp in ["baseline", "fig4", "fig5", "fig6", "fig7", "ablations"] {
            for cell in 0..100 {
                assert!(
                    seen.insert(root.child(exp).child(cell).seed()),
                    "collision at {exp}/{cell}"
                );
            }
        }
    }

    #[test]
    fn stream_pos_round_trips_through_hex() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(SeedTree::root(3).child("pos").seed());
        for _ in 0..11 {
            let _: u64 = rng.gen();
        }
        let pos = StreamPos::capture(&rng);
        let token = pos.to_hex();
        let back = StreamPos::from_hex(&token).expect("hex round trip");
        assert_eq!(back, pos);
        let mut resumed = back.restore();
        let a: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| resumed.gen()).collect();
        assert_eq!(a, b, "restored generator continues the stream");
        // Malformed tokens are rejected, not panicked on.
        assert!(StreamPos::from_hex("zz").is_err());
        assert!(StreamPos::from_hex("1:2:3").is_err());
        assert!(StreamPos::from_hex("1:2:3:4:5").is_err());
        assert!(StreamPos::from_hex("1:2:3:g").is_err());
    }

    #[test]
    fn parent_survives_child_derivation() {
        let root = SeedTree::root(5);
        let before = root.seed();
        let _ = root.child("x");
        assert_eq!(root.seed(), before);
        assert_eq!(root.path(), "root");
    }
}
