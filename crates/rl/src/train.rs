//! The one SAC refinement loop every training stage runs.
//!
//! The victim, both attackers and both defenses are warm-started actors
//! refined by SAC ([`refine`]): on-policy stochastic collection into a
//! [`REPLAY_CAPACITY`]-transition buffer, one update every `update_every`
//! steps once [`WARMUP`] transitions exist, best-actor selection every
//! `eval_every` steps, and a loss watchdog. A stage supplies only its
//! environment, a per-episode reset hook and an evaluation score.

use crate::actor::Actor;
use crate::env::Env;
use crate::replay::{ReplayBuffer, Transition};
use crate::sac::{Sac, SacLosses};
use crate::snapshot::TrainSnapshot;
use drive_nn::checkpoint;
use drive_nn::scratch::ActScratch;
use drive_seed::{fnv1a_64, StreamPos};
use rand::rngs::StdRng;
use std::path::Path;

/// Replay capacity of every refinement run.
pub const REPLAY_CAPACITY: usize = 100_000;
/// Transitions collected before the first gradient update.
pub const WARMUP: usize = 1_000;
/// Loss watchdog bound: an update whose loss magnitude exceeds this (or
/// is non-finite) is rolled back.
pub const LOSS_BOUND: f32 = 1e4;
/// Healthy updates between the watchdog's copies of the learner.
pub const HEALTHY_COPY_EVERY: usize = 200;

/// One stage's refinement schedule.
#[derive(Debug, Clone)]
pub struct Schedule<'a> {
    /// Stage name, used in stderr notes.
    pub stage: &'a str,
    /// Environment steps to collect.
    pub steps: usize,
    /// One gradient update every this many environment steps.
    pub update_every: usize,
    /// Best-actor selection period in environment steps; 0 disables
    /// selection and returns the final weights.
    pub eval_every: usize,
    /// Seed of the first episode; each later episode adds one.
    pub first_episode: u64,
    /// Crash-recovery snapshots, if any.
    pub snapshots: Option<Snapshots<'a>>,
}

/// Where and how often [`refine`] snapshots itself.
///
/// A resumed run is bit-identical to an uninterrupted one as long as the
/// reset hook depends on the episode seed alone (it is not snapshotted).
#[derive(Debug, Clone)]
pub struct Snapshots<'a> {
    /// Snapshot file (parent directories are created as needed).
    pub path: &'a Path,
    /// Minimum environment steps between snapshots, taken at the first
    /// episode boundary past the period.
    pub every: usize,
    /// Everything else that defines the run (stage config, scenario, …);
    /// a snapshot taken under another setup is ignored.
    pub setup: String,
}

/// What [`refine`] returns.
#[derive(Debug, Clone)]
pub struct Refined<A> {
    /// The best-evaluating actor (the final one when selection is off).
    pub actor: A,
    /// Times the loss watchdog rolled the learner back.
    #[cfg(test)]
    pub rollbacks: usize,
}

/// True when every loss channel is finite and within [`LOSS_BOUND`].
fn losses_healthy(l: &SacLosses) -> bool {
    [l.q1_loss, l.q2_loss, l.actor_loss, l.alpha]
        .iter()
        .all(|v| v.is_finite() && v.abs() <= LOSS_BOUND)
        && l.entropy.is_finite()
}

/// Refines `sac`'s actor on `env` and returns the best actor.
///
/// Episode `k` starts with `reset(env, first_episode + k)`; the hook may
/// reconfigure the environment (the defenses arm an attacker there). When
/// `eval_every > 0`, `eval` scores the initial actor and then the learner's
/// actor every `eval_every` steps, keeping the best strictly-improving one.
///
/// The loss watchdog copies the learner after its first healthy update and
/// every [`HEALTHY_COPY_EVERY`] healthy updates after that. An update with
/// a non-finite loss, or one beyond [`LOSS_BOUND`], restores the last copy,
/// writes one stderr line and counts a rollback.
///
/// With [`Schedule::snapshots`] set, the loop writes a [`TrainSnapshot`] at
/// episode boundaries and, on the next call, resumes from a snapshot of the
/// same setup; the snapshot file is removed once the run completes, and
/// its directory too when that is left empty. An unreadable, stale-format
/// or foreign snapshot is ignored with one stderr note and the run starts
/// fresh.
pub fn refine<A, E>(
    sac: Sac<A>,
    env: &mut E,
    mut rng: StdRng,
    schedule: &Schedule<'_>,
    mut reset: impl FnMut(&mut E, u64) -> Vec<f32>,
    mut eval: impl FnMut(&A) -> f64,
) -> Refined<A>
where
    A: Actor + Clone,
    E: Env,
{
    let (stage, steps, eval_every) = (schedule.stage, schedule.steps, schedule.eval_every);
    let snapshots = &schedule.snapshots;
    let config_hash = snapshots.as_ref().map_or(0, |s| {
        let run = (
            steps,
            schedule.update_every,
            eval_every,
            schedule.first_episode,
        );
        fnv1a_64(format!("{}|{run:?}|{:?}", s.setup, sac.config()).as_bytes())
    });
    // The loop's state is its snapshot: resume from a matching file, or
    // start fresh (scoring the initial actor when selection is on).
    let resumed = snapshots
        .as_ref()
        .filter(|s| s.path.exists())
        .and_then(|s| {
            TrainSnapshot::load(s.path, *sac.config(), config_hash)
                .map_err(|e| {
                    eprintln!(
                        "[train] {stage}: ignoring snapshot {}: {e}",
                        s.path.display()
                    )
                })
                .ok()
        });
    let mut st = match resumed {
        Some(snap) => {
            rng = snap.rng.restore();
            snap
        }
        None => TrainSnapshot {
            step: 0,
            episode_seed: schedule.first_episode,
            config_hash,
            rng: StreamPos::capture(&rng),
            healthy_updates: 0,
            rollbacks: 0,
            best: (eval_every > 0).then(|| (sac.actor.clone(), eval(&sac.actor))),
            buffer: ReplayBuffer::new(REPLAY_CAPACITY, env.obs_dim(), env.action_dim()),
            sac,
            last_good: None,
        },
    };
    let mut last_snapshot = st.step;
    let mut obs = reset(env, st.episode_seed);
    let mut act_scratch = ActScratch::default();

    for step in st.step..steps {
        let action = st
            .sac
            .actor
            .act_with(&obs, &mut rng, false, &mut act_scratch)
            .to_vec();
        let s = env.step(&action);
        st.buffer.push(Transition {
            obs: std::mem::take(&mut obs),
            action,
            reward: s.reward,
            next_obs: s.obs.clone(),
            terminal: s.done,
        });
        let finished = s.finished();
        obs = s.obs;
        if finished {
            st.episode_seed += 1;
            obs = reset(env, st.episode_seed);
        }
        if st.buffer.len() >= WARMUP && step % schedule.update_every.max(1) == 0 {
            let losses = st.sac.update(&st.buffer, &mut rng);
            if losses_healthy(&losses) {
                st.healthy_updates += 1;
                if st.last_good.is_none() || st.healthy_updates.is_multiple_of(HEALTHY_COPY_EVERY) {
                    st.last_good = Some(st.sac.clone());
                }
            } else {
                st.rollbacks += 1;
                eprintln!(
                    "[train] {stage}: loss watchdog rolled back the learner at step {step} ({losses:?})"
                );
                // Before the first healthy update there is nothing to
                // restore; the next healthy update makes the first copy.
                if let Some(good) = &st.last_good {
                    st.sac = good.clone();
                }
            }
        }
        if eval_every > 0 && (step + 1) % eval_every == 0 {
            let score = eval(&st.sac.actor);
            if st.best.as_ref().is_some_and(|(_, b)| score > *b) {
                st.best = Some((st.sac.actor.clone(), score));
            }
        }
        // Snapshot at episode boundaries only, after this step's RNG draws,
        // and never on the final step.
        let done = step + 1;
        if let (true, Some(s)) = (finished, snapshots) {
            if done < steps && done - last_snapshot >= s.every.max(1) {
                st.step = done;
                st.rng = StreamPos::capture(&rng);
                // Streamed to disk: the snapshot's text is never held whole.
                match checkpoint::save_with(s.path, |out| st.encode(out)) {
                    Ok(()) => last_snapshot = done,
                    Err(e) => eprintln!(
                        "[train] {stage}: snapshot write to {} failed: {e}",
                        s.path.display()
                    ),
                }
            }
        }
    }
    if let Some(s) = snapshots {
        let _ = std::fs::remove_file(s.path);
        // `save_with` may have created the snapshot's directory; drop
        // it too when nothing else is left in it.
        if let Some(dir) = s.path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
    Refined {
        actor: st.best.map_or(st.sac.actor, |(actor, _)| actor),
        #[cfg(test)]
        rollbacks: st.rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::PointEnv;
    use crate::env::{rollout, EnvStep};
    use crate::sac::SacConfig;
    use drive_nn::checkpoint::CheckpointError;
    use drive_nn::gaussian::GaussianPolicy;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn sac(seed: u64, hidden: &[usize], config: SacConfig) -> Sac {
        Sac::new(1, 1, hidden, config, &mut StdRng::seed_from_u64(seed))
    }

    fn small_sac(seed: u64) -> Sac {
        let config = SacConfig {
            batch_size: 16,
            ..SacConfig::default()
        };
        sac(seed, &[16], config)
    }

    fn schedule(steps: usize, eval_every: usize) -> Schedule<'static> {
        Schedule {
            stage: "test",
            steps,
            update_every: 1,
            eval_every,
            first_episode: 0,
            snapshots: None,
        }
    }

    /// Mean deterministic return over five fixed PointEnv episodes.
    fn point_score(actor: &GaussianPolicy) -> f64 {
        let mut env = PointEnv::new();
        let mut rng = StdRng::seed_from_u64(1);
        (0..5)
            .map(|e| rollout(&mut env, |o| actor.act(o, &mut rng, true), 100 + e).0 as f64)
            .sum::<f64>()
            / 5.0
    }

    fn fingerprint(actor: &GaussianPolicy) -> Vec<f32> {
        actor.act(&[0.4], &mut StdRng::seed_from_u64(0), true)
    }

    #[test]
    fn train_loop_improves_point_env() {
        let config = SacConfig {
            batch_size: 64,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            alpha_lr: 1e-3,
            ..SacConfig::default()
        };
        let learner = sac(0, &[32, 32], config);
        let before = point_score(&learner.actor);
        let mut env = PointEnv::new();
        let rng = StdRng::seed_from_u64(7);
        let out = refine(
            learner,
            &mut env,
            rng,
            &schedule(5_000, 500),
            Env::reset,
            point_score,
        );
        let after = point_score(&out.actor);
        assert!(after > before, "training must improve: {before} -> {after}");
        assert!(after > -6.0, "got {after}");
        assert_eq!(out.rollbacks, 0);
    }

    #[test]
    fn eval_every_zero_returns_final_weights_without_evaluating() {
        // Selection off: the eval closure never runs, and the result is the
        // learner's last actor — the same one a run whose every evaluation
        // improves ends up selecting at its final step.
        let mut evals = 0;
        let mut env = PointEnv::new();
        let off = refine(
            small_sac(1),
            &mut env,
            StdRng::seed_from_u64(2),
            &schedule(1_200, 0),
            Env::reset,
            |_| {
                evals += 1;
                0.0
            },
        );
        assert_eq!(evals, 0);
        let mut next = 0.0;
        let mut env = PointEnv::new();
        let always_better = refine(
            small_sac(1),
            &mut env,
            StdRng::seed_from_u64(2),
            &schedule(1_200, 600),
            Env::reset,
            |_| {
                next += 1.0;
                next
            },
        );
        assert_eq!(fingerprint(&off.actor), fingerprint(&always_better.actor));
        assert_ne!(fingerprint(&off.actor), fingerprint(&small_sac(1).actor));
    }

    #[test]
    fn watchdog_health_check_flags_bad_losses() {
        assert!(losses_healthy(&SacLosses::default()));
        let at_bound = SacLosses {
            q2_loss: LOSS_BOUND,
            ..SacLosses::default()
        };
        assert!(losses_healthy(&at_bound));
        let nan = SacLosses {
            q1_loss: f32::NAN,
            ..SacLosses::default()
        };
        assert!(!losses_healthy(&nan));
        let exploded = SacLosses {
            actor_loss: 1.5 * LOSS_BOUND,
            ..SacLosses::default()
        };
        assert!(!losses_healthy(&exploded));
        let bad_entropy = SacLosses {
            entropy: f32::INFINITY,
            ..SacLosses::default()
        };
        assert!(!losses_healthy(&bad_entropy));
    }

    /// PointEnv whose rewards jump to -1e5 after `calm` steps: the first
    /// updates are healthy, then every batch holding a jumped reward pushes
    /// the critic loss far past [`LOSS_BOUND`].
    struct BlowUp {
        inner: PointEnv,
        calm: usize,
    }

    impl Env for BlowUp {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_dim(&self) -> usize {
            1
        }
        fn reset(&mut self, seed: u64) -> Vec<f32> {
            self.inner.reset(seed)
        }
        fn step(&mut self, action: &[f32]) -> EnvStep {
            let mut s = self.inner.step(action);
            if self.calm == 0 {
                s.reward = -1e5;
            } else {
                self.calm -= 1;
            }
            s
        }
    }

    #[test]
    fn watchdog_rolls_back_diverging_training() {
        let healthy = small_sac(3);
        let mut env = BlowUp {
            inner: PointEnv::new(),
            calm: WARMUP + 100,
        };
        let out = refine(
            healthy,
            &mut env,
            StdRng::seed_from_u64(4),
            &schedule(WARMUP + 400, 0),
            Env::reset,
            |_| 0.0,
        );
        assert!(out.rollbacks > 0, "expected the watchdog to fire");
        // Every diverging update was undone: the learner is the copy taken
        // after the first healthy update, so it acts finitely.
        let a = fingerprint(&out.actor);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    /// Wrapper that aborts training after a fixed number of env steps — the
    /// in-process stand-in for a SIGKILL.
    struct KillAfter {
        inner: PointEnv,
        remaining: usize,
    }

    impl Env for KillAfter {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_dim(&self) -> usize {
            1
        }
        fn reset(&mut self, seed: u64) -> Vec<f32> {
            self.inner.reset(seed)
        }
        fn step(&mut self, action: &[f32]) -> EnvStep {
            assert!(self.remaining > 0, "simulated kill");
            self.remaining -= 1;
            self.inner.step(action)
        }
    }

    fn snap_schedule<'a>(
        path: &'a Path,
        steps: usize,
        eval_every: usize,
        setup: &str,
    ) -> Schedule<'a> {
        Schedule {
            snapshots: Some(Snapshots {
                path,
                every: 150,
                setup: setup.to_string(),
            }),
            ..schedule(steps, eval_every)
        }
    }

    fn run<E: Env>(env: &mut E, schedule: &Schedule<'_>) -> Refined<GaussianPolicy> {
        refine(
            small_sac(2),
            env,
            StdRng::seed_from_u64(5),
            schedule,
            Env::reset,
            point_score,
        )
    }

    /// Every weight of the returned actor, plus the rollback count.
    fn digest(out: &Refined<GaussianPolicy>) -> (String, usize) {
        (checkpoint::encode_policy(&out.actor), out.rollbacks)
    }

    /// Runs under `schedule` until the simulated kill after `steps` env
    /// steps, leaving its snapshot behind.
    fn killed_run(schedule: &Schedule<'_>, steps: usize) {
        let mut env = KillAfter {
            inner: PointEnv::new(),
            remaining: steps,
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut env, schedule)));
        assert!(outcome.is_err(), "the kill must interrupt training");
    }

    /// A directory of this test process alone: concurrent runs of the
    /// suite do not share it.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Selection settings every snapshot test runs under: 0 returns the
    /// final learner, so any divergence after the kill shows; 300 also
    /// round-trips the selected best actor through the snapshot.
    const EVAL_EVERY: [usize; 2] = [0, 300];

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        // Three runs of one setup: (a) straight through, (b) snapshotting
        // but never killed, (c) killed mid-run and resumed from the
        // snapshot. The returned actors must be bit-identical.
        let dir = temp_dir("drive-rl-resume-test");
        let path = dir.join("train.snap");
        for eval_every in EVAL_EVERY {
            let snapped = snap_schedule(&path, 1_600, eval_every, "a");
            let plain = digest(&run(&mut PointEnv::new(), &schedule(1_600, eval_every)));
            assert_eq!(plain, digest(&run(&mut PointEnv::new(), &snapped)));
            assert!(!path.exists(), "completed run must remove its snapshot");

            // Killed past the warm-up, so the snapshot holds a learner with
            // updates, a healthy copy and (with selection on) a best actor.
            killed_run(&snapped, 1_250);
            assert!(path.exists(), "kill must leave a snapshot behind");
            let resumed = digest(&run(&mut PointEnv::new(), &snapped));
            assert!(!path.exists());
            assert_eq!(
                plain, resumed,
                "resumed run diverged from the uninterrupted one (eval_every {eval_every})"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_config_snapshot_is_ignored() {
        // A snapshot from another setup (here: another step budget, and
        // another setup string) must not be restored.
        let dir = temp_dir("drive-rl-stale-snap-test");
        let path = dir.join("train.snap");
        for eval_every in EVAL_EVERY {
            let fresh = digest(&run(&mut PointEnv::new(), &schedule(1_300, eval_every)));
            for other in [
                snap_schedule(&path, 1_400, eval_every, "a"),
                snap_schedule(&path, 1_300, eval_every, "b"),
            ] {
                killed_run(&other, 1_100);
                assert!(path.exists());
                let snapped = snap_schedule(&path, 1_300, eval_every, "a");
                assert_eq!(fresh, digest(&run(&mut PointEnv::new(), &snapped)));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_snapshot_files_are_typed_errors_and_restart_fresh() {
        let dir = temp_dir("drive-rl-bad-snap-test");
        let path = dir.join("train.snap");
        let config = *small_sac(2).config();
        for eval_every in EVAL_EVERY {
            let snapped = snap_schedule(&path, 1_300, eval_every, "a");
            let fresh = digest(&run(&mut PointEnv::new(), &schedule(1_300, eval_every)));
            killed_run(&snapped, 1_100);
            let raw = std::fs::read_to_string(&path).expect("snapshot written");
            let body = checkpoint::load_from_file(&path).unwrap();
            let hash = TrainSnapshot::<GaussianPolicy>::decode(&body, config)
                .unwrap()
                .config_hash;

            // Truncated files lose their checksum line and fail to parse;
            // old formats carry a valid checksum and fail on their header.
            let truncated = (1..8).map(|k| raw[..raw.len() * k / 8].to_string());
            for bad in truncated {
                // Each completed run below also removes the emptied
                // directory.
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(&path, &bad).unwrap();
                assert!(TrainSnapshot::<GaussianPolicy>::load(&path, config, hash).is_err());
                assert_eq!(fresh, digest(&run(&mut PointEnv::new(), &snapped)));
                assert!(!path.exists());
            }
            for head in ["train-snapshot v1", "victim-sac v1"] {
                let old = body.replacen("train-snapshot v2", head, 1);
                checkpoint::save_to_file(&path, &old).unwrap();
                assert!(matches!(
                    TrainSnapshot::<GaussianPolicy>::load(&path, config, hash),
                    Err(CheckpointError::Version { .. } | CheckpointError::Parse(_))
                ));
                assert_eq!(fresh, digest(&run(&mut PointEnv::new(), &snapped)));
            }
            // A snapshot of another setup is a typed error too.
            checkpoint::save_to_file(&path, &body).unwrap();
            assert!(matches!(
                TrainSnapshot::<GaussianPolicy>::load(&path, config, hash ^ 1),
                Err(CheckpointError::Parse(_))
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
