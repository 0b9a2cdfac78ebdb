//! Per-episode panic isolation with reseeded retries.
//!
//! The figure harnesses run thousands of episodes; one poisoned episode (a
//! panic in an agent, a degenerate scenario) used to abort the whole run
//! and lose every completed cell. [`run_cell`] isolates each episode behind
//! `catch_unwind`, retries a failed episode on a reseeded stream, and
//! returns whatever completed together with the episodes that never did.

use drive_core::retry::{self, Exhausted, RetryPolicy};
use drive_sim::record::EpisodeRecord;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempts per episode (first try + retries).
pub const ATTEMPTS: usize = 3;

/// Seed offset applied per retry so a reattempt does not replay the exact
/// failing stream (odd constant from the SplitMix64 increment).
pub const RESEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One episode that panicked on every one of its [`ATTEMPTS`].
#[derive(Debug, Clone)]
pub struct EpisodeFailure {
    /// Index within the cell.
    pub episode: usize,
    /// Seed of the final failing attempt.
    pub seed: u64,
    /// Panic payload of the final attempt, stringified.
    pub reason: String,
}

impl std::fmt::Display for EpisodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "episode {} (final seed {}): {}",
            self.episode, self.seed, self.reason
        )
    }
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `requested` episodes through `run_one`, isolating each behind
/// `catch_unwind`, and returns the completed records in episode order
/// plus the episodes that failed every attempt.
///
/// Episode `e`'s first attempt uses seed `base_seed + e` — identical to
/// the naive loop, so healthy runs reproduce bit-for-bit. Attempt `a`
/// (0-based, through the shared `drive_core::retry` loop with no
/// backoff) offsets that seed by `a * RESEED_STRIDE`.
///
/// `run_one` must leave shared state usable after a panic; agents heal via
/// their episode-start `reset`, which is why the runner resets everything
/// before stepping.
pub fn run_cell(
    requested: usize,
    base_seed: u64,
    mut run_one: impl FnMut(u64) -> EpisodeRecord,
) -> (Vec<EpisodeRecord>, Vec<EpisodeFailure>) {
    let policy = RetryPolicy::attempts(ATTEMPTS);
    let mut records = Vec::with_capacity(requested);
    let mut failures = Vec::new();
    for episode in 0..requested {
        let result = retry::run(&policy, base_seed, |attempt| {
            let seed = (base_seed + episode as u64)
                .wrapping_add((attempt as u64).wrapping_mul(RESEED_STRIDE));
            catch_unwind(AssertUnwindSafe(|| run_one(seed)))
                .map_err(|payload| (seed, panic_reason(payload)))
        });
        match result {
            Ok(done) => records.push(done.value),
            Err(Exhausted {
                last: (seed, reason),
                ..
            }) => failures.push(EpisodeFailure {
                episode,
                seed,
                reason,
            }),
        }
    }
    (records, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record carrying its seed in `steps`.
    fn fake_record(seed: u64) -> EpisodeRecord {
        EpisodeRecord {
            steps: seed as usize,
            dt: 0.1,
            ..EpisodeRecord::default()
        }
    }

    fn seeds(records: &[EpisodeRecord]) -> Vec<u64> {
        records.iter().map(|r| r.steps as u64).collect()
    }

    #[test]
    fn healthy_cell_matches_naive_seeding() {
        let (records, failures) = run_cell(4, 100, fake_record);
        assert!(failures.is_empty());
        assert_eq!(seeds(&records), vec![100, 101, 102, 103]);
    }

    #[test]
    fn poisoned_episode_is_retried_with_new_seed() {
        let mut calls = 0;
        let (records, failures) = run_cell(3, 0, |seed| {
            calls += 1;
            // Episode 1's first attempt (seed == 1) panics; its retry
            // (seed offset by the stride) succeeds.
            if seed == 1 {
                panic!("poisoned episode");
            }
            fake_record(seed)
        });
        assert!(failures.is_empty(), "retry must recover the episode");
        assert_eq!(calls, 4, "3 episodes + 1 retry");
        assert_eq!(seeds(&records), vec![0, 1 + RESEED_STRIDE, 2]);
    }

    #[test]
    fn persistent_failure_is_bounded_and_reported() {
        let mut calls = 0;
        let final_seed = RESEED_STRIDE.wrapping_mul(2);
        let (records, failures) = run_cell(2, 0, |seed| {
            calls += 1;
            // Episode 0's three attempt seeds — fail all of them.
            if [0, RESEED_STRIDE, final_seed].contains(&seed) {
                panic!("always broken");
            }
            fake_record(seed)
        });
        assert_eq!(calls, 4, "3 failed attempts + 1 healthy episode");
        assert_eq!(seeds(&records), vec![1]);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].episode, 0);
        assert_eq!(failures[0].seed, final_seed);
        assert_eq!(failures[0].reason, "always broken");
        // The harness warning names everything needed to replay it.
        assert_eq!(
            failures[0].to_string(),
            format!("episode 0 (final seed {final_seed}): always broken")
        );
    }

    #[test]
    fn poisoned_figure_cell_retries_on_a_new_seed() {
        use drive_agents::modular::{ModularAgent, ModularConfig};
        use drive_agents::runner::run_episode;
        use drive_sim::scenario::Scenario;

        // One artificially-poisoned episode in a real figure-style cell:
        // the first attempt of episode 1 panics and the retry completes
        // instead of the run aborting.
        let scenario = Scenario::default();
        let episode = |seed| {
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            run_episode(&mut agent, &scenario, seed, None, |_, _, _| {})
        };
        let (records, failures) = run_cell(3, 50, |seed| {
            if seed == 51 {
                panic!("artificially poisoned episode");
            }
            episode(seed)
        });
        assert!(
            failures.is_empty(),
            "retry must recover the poisoned episode"
        );
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], episode(51 + RESEED_STRIDE));
    }
}
