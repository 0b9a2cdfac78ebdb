//! Crash-recovery snapshots of the SAC refinement loop.
//!
//! A [`TrainSnapshot`] holds everything [`crate::train::refine`] needs to
//! continue bit-exactly after a kill: the learner with its optimizers, the
//! watchdog's healthy copy and counters, the best actor so far, the replay
//! buffer and the RNG stream *position* ([`StreamPos`]). It is taken at
//! episode boundaries, so the environment re-derives from the episode
//! seed. Files use the drive-nn checkpoint grammar (tagged text sections,
//! trailing checksum, atomic durable writes streamed to disk by
//! [`checkpoint::save_with`]); a torn, stale-format or foreign snapshot
//! loads as a typed [`CheckpointError`].

use crate::actor::Actor;
use crate::replay::ReplayBuffer;
use crate::sac::{Sac, SacConfig};
use drive_nn::checkpoint::{self, CheckpointError, Reader};
use drive_seed::StreamPos;
use std::fmt;
use std::path::Path;

/// Version tag of the training-snapshot file format. `v1` files (and the
/// older `victim-sac v1` files) are rejected with a typed error.
const SNAPSHOT_VERSION: &str = "v2";

/// A complete mid-refinement state, restorable to a bit-identical run.
#[derive(Debug, Clone)]
pub struct TrainSnapshot<A: Actor> {
    /// Environment steps already executed (the resumed loop starts here).
    pub step: usize,
    /// Seed of the episode the resumed loop must reset into.
    pub episode_seed: u64,
    /// Hash of the training setup; a run with another setup ignores the
    /// snapshot.
    pub config_hash: u64,
    /// Exact RNG stream position at the snapshot point.
    pub rng: StreamPos,
    /// Healthy updates seen by the loss watchdog.
    pub healthy_updates: usize,
    /// Watchdog rollbacks so far.
    pub rollbacks: usize,
    /// The best actor selected so far and its evaluation score (`None`
    /// when the run does no best-actor selection).
    pub best: Option<(A, f64)>,
    /// The learner.
    pub sac: Sac<A>,
    /// The loss watchdog's last healthy learner copy, if one exists.
    pub last_good: Option<Sac<A>>,
    /// The replay buffer, including its eviction cursor.
    pub buffer: ReplayBuffer,
}

impl<A: Actor> TrainSnapshot<A> {
    /// Writes the snapshot as checkpoint text; `checkpoint::save_with(path,
    /// |out| snap.encode(out))` streams it to a file.
    pub fn encode(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            out,
            "train-snapshot {SNAPSHOT_VERSION}\nmeta {} {} {:016x} {} {}\nrng {}\n",
            self.step,
            self.episode_seed,
            self.config_hash,
            self.healthy_updates,
            self.rollbacks,
            self.rng.to_hex()
        )?;
        match &self.best {
            Some((actor, score)) => {
                writeln!(out, "best 1 {score}")?;
                actor.encode_into(out)?;
            }
            None => out.write_str("best 0\n")?,
        }
        self.sac.encode_state_into(out)?;
        match &self.last_good {
            Some(sac) => {
                out.write_str("last_good 1\n")?;
                sac.encode_state_into(out)?;
            }
            None => out.write_str("last_good 0\n")?,
        }
        self.buffer.encode_into(out)
    }

    /// Parses a snapshot. The SAC hyper-parameters are supplied by the
    /// caller (they are part of the code/config, not the state) and pinned
    /// through [`TrainSnapshot::config_hash`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Version`] for files written by a
    /// different format revision, [`CheckpointError::Parse`] on any
    /// structural mismatch (a truncated file, another file type).
    pub fn decode(text: &str, sac_config: SacConfig) -> Result<Self, CheckpointError> {
        let parse_err = CheckpointError::Parse;
        let mut r = Reader::new(text);
        let args = r.expect_tag("train-snapshot")?;
        let version = *args
            .first()
            .ok_or_else(|| parse_err("train-snapshot tag needs a version".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::Version {
                found: version.to_string(),
                expected: SNAPSHOT_VERSION,
            });
        }
        let meta = r.expect_tag("meta")?;
        let [step, episode_seed, hash, healthy_updates, rollbacks] = meta[..] else {
            return Err(parse_err(
                "meta needs '<step> <episode_seed> <config_hash> <healthy_updates> <rollbacks>'"
                    .into(),
            ));
        };
        let int = |tok: &str| {
            tok.parse::<u64>()
                .map_err(|_| parse_err(format!("bad meta field '{tok}'")))
        };
        let config_hash = u64::from_str_radix(hash, 16)
            .map_err(|_| parse_err(format!("bad config hash '{hash}'")))?;
        let rng_args = r.expect_tag("rng")?;
        let rng = StreamPos::from_hex(
            rng_args
                .first()
                .ok_or_else(|| parse_err("rng tag needs a position".into()))?,
        )
        .map_err(CheckpointError::Parse)?;
        let best = match r.expect_tag("best")?[..] {
            ["1", score] => {
                let score = score
                    .parse()
                    .map_err(|_| parse_err(format!("bad best score '{score}'")))?;
                Some((A::decode_from(&mut r)?, score))
            }
            ["0"] => None,
            _ => return Err(parse_err("best needs '0' or '1 <score>'".into())),
        };
        let sac = Sac::decode_state_from(&mut r, sac_config)?;
        let last_good = match r.expect_tag("last_good")?[..] {
            ["1"] => Some(Sac::decode_state_from(&mut r, sac_config)?),
            ["0"] => None,
            _ => return Err(parse_err("last_good must be 0 or 1".into())),
        };
        let buffer = ReplayBuffer::decode_from(&mut r)?;
        Ok(TrainSnapshot {
            step: int(step)? as usize,
            episode_seed: int(episode_seed)?,
            config_hash,
            rng,
            healthy_updates: int(healthy_updates)? as usize,
            rollbacks: int(rollbacks)? as usize,
            best,
            sac,
            last_good,
            buffer,
        })
    }

    /// Loads the snapshot at `path` if it belongs to the run whose setup
    /// hashes to `config_hash`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns [`CheckpointError::Corrupt`] on a
    /// checksum mismatch, the decode errors of [`TrainSnapshot::decode`],
    /// and [`CheckpointError::Parse`] for a snapshot of another setup.
    pub fn load(
        path: impl AsRef<Path>,
        sac_config: SacConfig,
        config_hash: u64,
    ) -> Result<Self, CheckpointError> {
        let snap = Self::decode(&checkpoint::load_from_file(path)?, sac_config)?;
        if snap.config_hash != config_hash {
            return Err(CheckpointError::Parse(format!(
                "snapshot of another training setup (config hash {:016x}, this run {config_hash:016x})",
                snap.config_hash
            )));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_nn::gaussian::GaussianPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_snapshot() -> (TrainSnapshot<GaussianPolicy>, SacConfig) {
        let mut rng = StdRng::seed_from_u64(21);
        let config = SacConfig {
            batch_size: 8,
            ..SacConfig::default()
        };
        let sac = Sac::new(2, 1, &[8], config, &mut rng);
        let mut buffer = ReplayBuffer::new(32, 2, 1);
        for i in 0..10 {
            let x = i as f32 * 0.1;
            buffer.push(crate::replay::Transition {
                obs: vec![x, -x],
                action: vec![x],
                reward: -x,
                next_obs: vec![x + 0.1, -x],
                terminal: i % 4 == 0,
            });
        }
        let snap = TrainSnapshot {
            step: 123,
            episode_seed: 9,
            config_hash: 0xdead_beef_cafe_f00d,
            rng: StreamPos::capture(&StdRng::seed_from_u64(5)),
            healthy_updates: 7,
            rollbacks: 1,
            best: Some((sac.actor.clone(), 321.5)),
            sac: sac.clone(),
            last_good: Some(sac),
            buffer,
        };
        (snap, config)
    }

    fn text(snap: &TrainSnapshot<GaussianPolicy>) -> String {
        let mut buf = String::new();
        snap.encode(&mut buf).unwrap();
        buf
    }

    #[test]
    fn encode_decode_round_trips_every_field() {
        let (snap, config) = sample_snapshot();
        let encoded = text(&snap);
        let back = TrainSnapshot::<GaussianPolicy>::decode(&encoded, config).expect("round trip");
        assert_eq!(back.step, snap.step);
        assert_eq!(back.episode_seed, snap.episode_seed);
        assert_eq!(back.config_hash, snap.config_hash);
        assert_eq!(back.rng, snap.rng);
        assert_eq!(back.healthy_updates, snap.healthy_updates);
        assert_eq!(back.rollbacks, snap.rollbacks);
        assert_eq!(back.best.as_ref().map(|b| b.1), Some(321.5));
        assert!(back.last_good.is_some());
        assert_eq!(back.buffer.len(), snap.buffer.len());
        // The text form is canonical: re-encoding reproduces it exactly.
        assert_eq!(text(&back), encoded);
        let bare = TrainSnapshot {
            best: None,
            last_good: None,
            ..snap
        };
        let back = TrainSnapshot::<GaussianPolicy>::decode(&text(&bare), config).expect("bare");
        assert!(back.best.is_none() && back.last_good.is_none());
    }

    #[test]
    fn save_load_round_trips_with_checksum() {
        let (snap, config) = sample_snapshot();
        let dir =
            std::env::temp_dir().join(format!("drive-rl-snapshot-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("train.snap");
        checkpoint::save_with(&path, |out| snap.encode(out)).expect("save");
        let back =
            TrainSnapshot::<GaussianPolicy>::load(&path, config, snap.config_hash).expect("load");
        assert_eq!(back.step, snap.step);
        // Another setup's hash is a typed error, not a silent resume.
        assert!(matches!(
            TrainSnapshot::<GaussianPolicy>::load(&path, config, 1),
            Err(CheckpointError::Parse(_))
        ));
        // Corrupting a byte turns the load into a typed Corrupt error.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen("meta", "mata", 1)).unwrap();
        assert!(matches!(
            TrainSnapshot::<GaussianPolicy>::load(&path, config, snap.config_hash),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let (snap, config) = sample_snapshot();
        let text = text(&snap).replacen("train-snapshot v2", "train-snapshot v1", 1);
        match TrainSnapshot::<GaussianPolicy>::decode(&text, config) {
            Err(CheckpointError::Version { found, .. }) => assert_eq!(found, "v1"),
            other => panic!("expected Version error, got {other:?}"),
        }
    }
}
