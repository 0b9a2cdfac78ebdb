//! Deterministic virtual-time serving simulator.
//!
//! The threaded server ([`crate::server`]) is faithful but nondeterministic:
//! thread scheduling decides batch composition. This module is its
//! deterministic twin: the same [`Scheduler`] decisions and [`Pipeline`]
//! driven by an integer-microsecond event loop instead of threads, so a
//! fixed seed reproduces the whole run **byte for byte** (compare
//! [`ServeReport::render`] strings). It keeps only what depends on its
//! clock: arrivals, batch-window formation, the [`CostModel`] and the
//! closed-loop steering readback.
//!
//! The request stream is closed-loop: each observation's steering readback
//! (`obs[STEER_FEATURE]`) follows the vehicle's Eq. (1) actuator lag around
//! the actions the service returns, so the full rung's detector stays quiet
//! on clean runs — and an injected action-space delta ([`AttackWindow`])
//! shows up in the readback exactly as the paper's attacks do, tripping the
//! detector and dropping the ladder to the fallback rung.

use crate::config::ServeConfig;
use crate::faults::{FaultPlan, FaultPlanConfig};
use crate::ladder::Rung;
use crate::pipeline::{DetectorStream, Pipeline, STEER_FEATURE};
use crate::report::ServeReport;
use crate::request::{Outcome, Request, ShedReason};
use crate::scheduler::{Dispatch, Scheduler};
use drive_nn::gaussian::GaussianPolicy;
use drive_seed::{splitmix64, SeedTree};
use std::collections::VecDeque;
use std::sync::Arc;

/// Modeled virtual-time costs. Inference itself runs for real (the actions
/// are genuine policy outputs); only the *clock* charged for it is modeled,
/// which keeps the event loop deterministic and host-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost per batch dispatch, µs.
    pub batch_fixed_us: u64,
    /// Per-request cost at [`Rung::Full`] (detector + policy), µs.
    pub per_item_full_us: u64,
    /// Per-request cost at [`Rung::NoDetector`], µs.
    pub per_item_nodet_us: u64,
    /// Per-request cost at [`Rung::Fallback`] (PID only), µs.
    pub per_item_fallback_us: u64,
    /// Time to respawn a killed worker, µs.
    pub respawn_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            batch_fixed_us: 200,
            per_item_full_us: 150,
            per_item_nodet_us: 100,
            per_item_fallback_us: 20,
            respawn_us: 20_000,
        }
    }
}

impl CostModel {
    fn service_us(&self, rung: Rung, batch: usize) -> u64 {
        let per = match rung {
            Rung::Full => self.per_item_full_us,
            Rung::NoDetector => self.per_item_nodet_us,
            Rung::Fallback => self.per_item_fallback_us,
        };
        self.batch_fixed_us + per * batch as u64
    }
}

/// A simulated action-space attack: from `start_us` on, every realized
/// steering value is the commanded one plus `delta` — the readback the next
/// observations carry no longer matches Eq. (1) around the served commands,
/// which is precisely the signature the detector inverts for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackWindow {
    /// Attack start, virtual µs.
    pub start_us: u64,
    /// Constant steering perturbation added to every actuation.
    pub delta: f64,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Shared serving configuration (also used by the threaded server).
    pub serve: ServeConfig,
    /// Master seed: arrivals, observation noise, and fault plans all derive
    /// from it through [`SeedTree`].
    pub seed: u64,
    /// Requests in the run.
    pub requests: u64,
    /// Mean open-loop interarrival gap, µs (jittered ±50% per gap).
    pub interarrival_us: u64,
    /// Virtual-time costs.
    pub cost: CostModel,
    /// Seeded fault plan shape.
    pub faults: FaultPlanConfig,
    /// Optional action-space attack.
    pub attack: Option<AttackWindow>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            serve: ServeConfig::default(),
            seed: 42,
            requests: 400,
            interarrival_us: 1_000,
            cost: CostModel::default(),
            faults: FaultPlanConfig::none(),
            attack: None,
        }
    }
}

struct VirtualWorker {
    free_at_us: u64,
    pipeline: Pipeline,
}

/// Runs the simulator to completion and returns the reconciled report.
///
/// # Panics
///
/// Panics on an invalid [`ServeConfig`], on a policy whose observation
/// dimension lacks the steering-readback feature, or — the invariant this
/// layer exists for — if any request fails to resolve exactly once.
pub fn run_sim(policy: &Arc<GaussianPolicy>, config: &SimConfig) -> ServeReport {
    config.serve.validate().expect("serve config");
    assert!(
        policy.obs_dim() > STEER_FEATURE,
        "serving at the full rung needs obs[{STEER_FEATURE}] (the steer readback)"
    );
    let tree = SeedTree::root(config.seed).child("serve-sim");
    let arr_seed = tree.child("arrivals").seed();
    let obs_seed = tree.child("obs").seed();

    // Open-loop arrival times: mean `interarrival_us`, ±50% deterministic
    // jitter per gap.
    let n = config.requests as usize;
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0u64;
    for i in 0..n as u64 {
        let jitter = splitmix64(arr_seed.wrapping_add(i)) % config.interarrival_us.max(1);
        t += config.interarrival_us / 2 + jitter;
        arrivals.push(t);
    }
    // Fault events land inside the arrival span (the plan keeps them in
    // its middle 80%), so every scheduled fault strikes while the service
    // is actually busy.
    let horizon_us = arrivals.last().copied().unwrap_or(0);
    let plan = FaultPlan::seeded(
        config.seed,
        config.serve.workers,
        horizon_us,
        &config.faults,
    );

    let alpha = config.serve.detector.alpha;
    let mut realized_steer = 0.0f64;
    let obs_dim = policy.obs_dim();
    let gen_obs = |id: u64, realized: f64| -> Vec<f32> {
        (0..obs_dim)
            .map(|j| {
                if j == STEER_FEATURE {
                    realized as f32
                } else {
                    let x = splitmix64(obs_seed.wrapping_add(id * obs_dim as u64 + j as u64));
                    ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
                }
            })
            .collect()
    };

    let mut sched = Scheduler::new(Arc::clone(policy), config.serve.clone(), plan);
    let mut workers: Vec<VirtualWorker> = (0..config.serve.workers)
        .map(|w| VirtualWorker {
            free_at_us: 0,
            pipeline: sched.pipeline(w),
        })
        .collect();

    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut next_arr = 0usize;
    let mut stream = DetectorStream::new(&config.serve);

    macro_rules! admit {
        ($realized:expr) => {{
            let at = arrivals[next_arr];
            sched.submit();
            if queue.len() >= config.serve.queue_capacity {
                sched.record(&Outcome::Shed {
                    reason: ShedReason::QueueFull,
                });
            } else {
                queue.push_back(Request {
                    obs: gen_obs(next_arr as u64, $realized),
                    enqueued_at_us: at,
                    deadline_us: config.serve.deadline_us,
                });
            }
            next_arr += 1;
        }};
    }

    loop {
        // The worker that frees up first serves the next batch.
        let w = (0..workers.len())
            .min_by_key(|&i| workers[i].free_at_us)
            .expect("at least one worker");
        let now = workers[w].free_at_us;
        while next_arr < n && arrivals[next_arr] <= now {
            admit!(realized_steer);
        }
        if queue.is_empty() {
            if next_arr >= n {
                break;
            }
            // Idle until the next arrival lands.
            let t_next = arrivals[next_arr];
            while next_arr < n && arrivals[next_arr] <= t_next {
                admit!(realized_steer);
            }
            continue;
        }

        // Batch formation: start when both the worker and the first request
        // are ready, then hold the window open (closing early when full).
        let head_at = queue.front().expect("non-empty").enqueued_at_us;
        let t0 = now.max(head_at);
        let mut close = t0 + config.serve.batch_window_us;
        if queue.len() >= config.serve.max_batch {
            close = t0;
        } else {
            while queue.len() < config.serve.max_batch
                && next_arr < n
                && arrivals[next_arr] <= close
            {
                let at = arrivals[next_arr];
                admit!(realized_steer);
                if queue.len() >= config.serve.max_batch {
                    close = at.max(t0);
                }
            }
        }

        // Worker faults strike at dispatch time. A killed worker has not
        // taken the batch: nothing is lost, the queue just ages while the
        // worker respawns.
        let (t_d, rung) = match sched.dispatch(w, close, &mut workers[w].pipeline) {
            Dispatch::Killed { at_us } => {
                sched.retire(&workers[w].pipeline);
                workers[w].pipeline = sched.respawn(w);
                workers[w].free_at_us = at_us + config.cost.respawn_us;
                continue;
            }
            Dispatch::Serve { start_us, rung, .. } => (start_us, rung),
        };
        while next_arr < n && arrivals[next_arr] <= t_d {
            admit!(realized_steer);
        }

        // Take the batch — only requests that have actually arrived by the
        // dispatch time (another worker's stall may have admitted later
        // arrivals into the shared queue already).
        let mut batch: Vec<Request> = Vec::new();
        while batch.len() < config.serve.max_batch
            && queue.front().is_some_and(|r| r.enqueued_at_us <= t_d)
        {
            batch.push(queue.pop_front().expect("front checked"));
        }
        let batch = sched.expire(w, t_d, queue.len(), batch, |_, _| true);
        if batch.is_empty() {
            workers[w].free_at_us = t_d;
            continue;
        }

        let mut obs: Vec<Vec<f32>> = batch.iter().map(|r| r.obs.clone()).collect();
        let detector = (rung == Rung::Full).then_some(&mut stream);
        let result = workers[w].pipeline.process(rung, &mut obs, detector);
        let finish = t_d + config.cost.service_us(rung, batch.len());
        workers[w].free_at_us = finish;

        // Closed loop: the vehicle realizes each (possibly attacked)
        // command through the Eq. (1) actuator lag; the next generated
        // observations carry this readback.
        let attack_delta = match config.attack {
            Some(a) if finish >= a.start_us => a.delta,
            _ => 0.0,
        };
        for action in &result.actions {
            realized_steer = (1.0 - alpha) * (action.steer + attack_delta) + alpha * realized_steer;
        }

        // Arrivals that landed during the service interval are part of the
        // pressure the ladder should see (the threaded server's queue
        // depth is live in exactly this way).
        while next_arr < n && arrivals[next_arr] <= finish {
            admit!(realized_steer);
        }
        sched.complete(w, finish, queue.len(), &batch, &result, |_, _| true);
    }

    for vw in &workers {
        sched.retire(&vw.pipeline);
    }
    let report = sched.report();
    report
        .counters
        .reconcile()
        .expect("simulator broke the exactly-once outcome invariant");
    report
}

/// Finds the highest candidate QPS the simulated service sustains at an SLO:
/// p99 latency within `slo_p99_us`, nothing shed, nothing timed out.
/// Candidates are tried in the order given; returns the best passing one.
pub fn max_qps_at_slo(
    policy: &Arc<GaussianPolicy>,
    base: &SimConfig,
    slo_p99_us: u64,
    candidates: &[u64],
) -> Option<u64> {
    let mut best = None;
    for &qps in candidates {
        if qps == 0 {
            continue;
        }
        let config = SimConfig {
            interarrival_us: (1_000_000 / qps).max(1),
            ..base.clone()
        };
        let report = run_sim(policy, &config);
        let ok = report.latency.p99() <= slo_p99_us
            && report.counters.shed() == 0
            && report.counters.timed_out == 0;
        if ok && best.is_none_or(|b| qps > b) {
            best = Some(qps);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy() -> Arc<GaussianPolicy> {
        let mut rng = StdRng::seed_from_u64(11);
        Arc::new(GaussianPolicy::new(6, &[16], 2, &mut rng))
    }

    #[test]
    fn clean_low_load_serves_everything_at_full_rung() {
        let report = run_sim(&policy(), &SimConfig::default());
        assert_eq!(report.counters.submitted, 400);
        assert_eq!(report.counters.served, 400, "{}", report.render());
        assert_eq!(report.counters.shed(), 0);
        assert_eq!(report.counters.timed_out, 0);
        assert_eq!(report.counters.degraded, 0);
        assert!(report.transitions.is_empty(), "{}", report.render());
        assert!(report.respawns == 0 && report.stalls == 0);
        // Lone requests pay roughly the batch window + service.
        assert!(report.latency.p50() >= 1_000, "{}", report.render());
        assert!(report.latency.max() < 50_000, "{}", report.render());
    }

    #[test]
    fn fixed_seed_reports_are_byte_identical() {
        let config = SimConfig {
            faults: FaultPlanConfig {
                kills: 2,
                stalls: 3,
                stall_us: 30_000,
                corrupt_rate: 0.05,
            },
            attack: Some(AttackWindow {
                start_us: 150_000,
                delta: 0.5,
            }),
            ..SimConfig::default()
        };
        let p = policy();
        let a = run_sim(&p, &config).render();
        let b = run_sim(&p, &config).render();
        assert_eq!(a, b, "virtual-time runs must replay byte-for-byte");
        let other = run_sim(&p, &SimConfig { seed: 43, ..config }).render();
        assert_ne!(a, other, "different seeds explore different runs");
    }

    #[test]
    fn action_space_attack_trips_detector_and_ladder_degrades() {
        let config = SimConfig {
            attack: Some(AttackWindow {
                start_us: 100_000,
                delta: 0.6,
            }),
            ..SimConfig::default()
        };
        let report = run_sim(&policy(), &config);
        assert!(
            report.transitions.iter().any(|t| t.to == Rung::Fallback
                && t.reason == crate::ladder::TransitionReason::DetectorAlarm),
            "{}",
            report.render()
        );
        assert!(report.counters.degraded > 0, "{}", report.render());
        report.counters.reconcile().expect("books balance");
    }

    #[test]
    fn kills_and_stalls_are_survived_without_losing_requests() {
        let config = SimConfig {
            requests: 600,
            faults: FaultPlanConfig {
                kills: 3,
                stalls: 3,
                stall_us: 40_000,
                corrupt_rate: 0.0,
            },
            ..SimConfig::default()
        };
        let report = run_sim(&policy(), &config);
        assert!(report.respawns >= 1, "{}", report.render());
        assert!(report.stalls >= 1, "{}", report.render());
        // Exactly-once accounting holds even across kills (reconcile already
        // ran inside run_sim; restate the partition explicitly here).
        let c = report.counters;
        assert_eq!(
            c.submitted,
            c.served + c.degraded + c.shed() + c.timed_out,
            "{}",
            report.render()
        );
        assert!(c.served + c.degraded > 0);
    }

    #[test]
    fn saturating_load_sheds_typed_not_silently() {
        let config = SimConfig {
            requests: 500,
            interarrival_us: 20,
            serve: ServeConfig {
                workers: 1,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
            ..SimConfig::default()
        };
        let report = run_sim(&policy(), &config);
        assert!(report.counters.shed_queue_full > 0, "{}", report.render());
        assert!(
            report
                .transitions
                .iter()
                .any(|t| t.from == Rung::Full && t.to == Rung::NoDetector),
            "overload must engage the ladder in order: {}",
            report.render()
        );
        report.counters.reconcile().expect("books balance");
    }

    #[test]
    fn corruption_alarms_into_fallback() {
        let config = SimConfig {
            faults: FaultPlanConfig {
                kills: 0,
                stalls: 0,
                stall_us: 0,
                corrupt_rate: 0.4,
            },
            ..SimConfig::default()
        };
        let report = run_sim(&policy(), &config);
        assert!(report.corrupted_values > 0, "{}", report.render());
        assert!(report.nonfinite_frames > 0, "{}", report.render());
        assert!(
            report
                .transitions
                .iter()
                .any(|t| t.reason == crate::ladder::TransitionReason::DetectorAlarm),
            "{}",
            report.render()
        );
    }

    #[test]
    fn qps_search_finds_a_sustainable_rate() {
        let p = policy();
        let base = SimConfig {
            requests: 200,
            ..SimConfig::default()
        };
        let best = max_qps_at_slo(&p, &base, 20_000, &[100, 400, 1_600, 6_400]);
        assert!(best.is_some(), "a 20ms SLO is generous at low rates");
        // An impossible SLO yields nothing.
        assert_eq!(max_qps_at_slo(&p, &base, 1, &[100]), None);
    }
}
