//! The real multi-threaded inference server.
//!
//! Worker threads pop micro-batches from one [`BoundedQueue`], take every
//! dispatch and completion decision through the one [`Scheduler`] the
//! simulator also drives (behind one lock), run their own [`Pipeline`],
//! and resolve each request's [`ResponseSlot`] exactly once. The
//! [`DetectorStream`] has its own lock, held across full-rung inference so
//! each batch's frames and commands reach the detector as one pair without
//! stalling every client's accounting for the length of an inference. A supervisor thread watches for dead workers (injected
//! kills, or any panic caught in the batch path) and respawns them after
//! rescuing the in-flight batch back onto the queue front — no request is
//! ever silently lost to a crash. Clients block on their slot with a
//! deadline and claim `TimedOut` themselves when the service is too slow,
//! so every submission resolves even if the server wedges.
//!
//! The slot is the exactly-once point: whichever side resolves first
//! (worker answer, client timeout, admission shed) records the outcome
//! into the scheduler's books; the loser's resolution is a no-op. At
//! [`Server::shutdown`] the queue closes, workers drain what remains, and
//! the merged [`ServeReport`] is returned.

use crate::config::ServeConfig;
use crate::faults::FaultPlan;
use crate::ladder::Rung;
use crate::pipeline::{DetectorStream, Pipeline};
use crate::queue::{BoundedQueue, PushError};
use crate::report::ServeReport;
use crate::request::{Outcome, Request, ShedReason};
use crate::scheduler::{Dispatch, Scheduler};
use drive_nn::gaussian::GaussianPolicy;
use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a request's one outcome lands. Resolution is first-wins: the
/// worker's answer, the client's timeout claim, and the admission shed
/// path all race safely.
pub struct ResponseSlot {
    state: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Installs `outcome` if the slot is still open. Returns whether this
    /// call won the race (and therefore owns the counting).
    fn resolve(&self, outcome: Outcome) -> bool {
        let mut g = guarded(&self.state);
        if g.is_some() {
            return false;
        }
        *g = Some(outcome);
        drop(g);
        self.done.notify_all();
        true
    }

    /// Blocks up to `timeout` for a resolution.
    fn wait(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = Instant::now() + timeout;
        let mut g = guarded(&self.state);
        while g.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .done
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            g = guard;
        }
        g.clone()
    }
}

struct QueuedRequest {
    req: Request,
    slot: Arc<ResponseSlot>,
}

impl Borrow<Request> for QueuedRequest {
    fn borrow(&self) -> &Request {
        &self.req
    }
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<QueuedRequest>,
    epoch: Instant,
    sched: Mutex<Scheduler>,
    detector: Mutex<DetectorStream>,
    closing: AtomicBool,
}

fn guarded<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sched(&self) -> MutexGuard<'_, Scheduler> {
        guarded(&self.sched)
    }

    /// The exactly-once counting point for client-side resolutions:
    /// whoever wins the slot records the outcome; losers change nothing.
    fn resolve_counted(&self, slot: &ResponseSlot, outcome: Outcome) -> bool {
        if !slot.resolve(outcome.clone()) {
            return false;
        }
        self.sched().record(&outcome);
        true
    }
}

enum WorkerExit {
    Drained,
    Killed,
}

fn worker_main(shared: Arc<Shared>, slot: usize, mut pipeline: Pipeline) -> WorkerExit {
    // A worker's outcome wins only if the client has not claimed it first.
    let resolve = |q: &QueuedRequest, o: &Outcome| q.slot.resolve(o.clone());
    let exit = loop {
        let Some(batch) = shared.queue.pop_batch(
            shared.config.max_batch,
            Duration::from_millis(20),
            Duration::from_micros(shared.config.batch_window_us),
        ) else {
            break WorkerExit::Drained; // drain complete
        };
        if batch.is_empty() {
            continue;
        }
        let now = shared.now_us();
        let verdict = shared.sched().dispatch(slot, now, &mut pipeline);
        let Dispatch::Serve { start_us, rung, .. } = verdict else {
            // Die "mid-service": the supervisor rescues the batch via
            // the queue front and respawns this slot.
            shared.queue.requeue_front(batch);
            break WorkerExit::Killed;
        };
        if start_us > now {
            std::thread::sleep(Duration::from_micros(start_us - now));
        }

        // Expire what aged out while queued.
        let now = shared.now_us();
        let depth = shared.queue.len();
        let live = shared.sched().expire(slot, now, depth, batch, resolve);
        if live.is_empty() {
            continue;
        }

        let mut obs: Vec<Vec<f32>> = live.iter().map(|q| q.req.obs.clone()).collect();
        let processed = catch_unwind(AssertUnwindSafe(|| {
            if rung == Rung::Full {
                let mut stream = guarded(&shared.detector);
                pipeline.process(rung, &mut obs, Some(&mut stream))
            } else {
                pipeline.process(rung, &mut obs, None)
            }
        }));
        let Ok(result) = processed else {
            // A genuine panic in the batch path: rescue the batch and
            // let the supervisor replace this worker (the pipeline
            // state is suspect after unwinding through it).
            shared.queue.requeue_front(live);
            break WorkerExit::Killed;
        };

        let finish = shared.now_us();
        let depth = shared.queue.len();
        shared
            .sched()
            .complete(slot, finish, depth, &live, &result, resolve);
    };
    shared.sched().retire(&pipeline);
    exit
}

fn supervisor_main(shared: Arc<Shared>, mut slots: Vec<Option<JoinHandle<WorkerExit>>>) {
    loop {
        let closing = shared.closing.load(Ordering::Acquire);
        for (i, slot) in slots.iter_mut().enumerate() {
            if !slot.as_ref().is_some_and(JoinHandle::is_finished) {
                continue;
            }
            // A panic that escaped the worker's own catch (should not
            // happen) counts as a kill; its stats are lost but its batch
            // was either resolved or still queued.
            let exit = slot
                .take()
                .expect("checked above")
                .join()
                .unwrap_or(WorkerExit::Killed);
            // Respawn unless the drain is effectively over; a killed
            // worker's rescued batch still needs someone to run it.
            if matches!(exit, WorkerExit::Killed) && !(closing && shared.queue.is_empty()) {
                let pipeline = shared.sched().respawn(i);
                let shared2 = Arc::clone(&shared);
                *slot = Some(std::thread::spawn(move || {
                    worker_main(shared2, i, pipeline)
                }));
            }
        }
        if closing && slots.iter().all(Option::is_none) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A cloneable client handle: submit observations, get typed outcomes.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Submits one observation frame and blocks for its outcome. Exactly
    /// one [`Outcome`] is returned per call, always — shed at admission,
    /// answered by a worker, or claimed as timed out by this client when
    /// the deadline (plus a grace period for in-flight batches) passes.
    pub fn request(&self, obs: Vec<f32>) -> Outcome {
        let shared = &self.shared;
        let enqueued_at_us = shared.now_us();
        shared.sched().submit();
        let slot = Arc::new(ResponseSlot::new());
        let queued = QueuedRequest {
            req: Request {
                obs,
                enqueued_at_us,
                deadline_us: shared.config.deadline_us,
            },
            slot: Arc::clone(&slot),
        };
        if let Err((q, err)) = shared.queue.push(queued) {
            let reason = match err {
                PushError::Full => ShedReason::QueueFull,
                PushError::Closed => ShedReason::Closing,
            };
            let outcome = Outcome::Shed { reason };
            shared.resolve_counted(&q.slot, outcome.clone());
            return outcome;
        }
        // Wait past the deadline by a grace window so a batch dispatched
        // just-in-time can still land its answer.
        let grace_us = 4 * shared.config.batch_window_us + 20_000;
        let wait = Duration::from_micros(shared.config.deadline_us + grace_us);
        if let Some(outcome) = slot.wait(wait) {
            return outcome;
        }
        let waited_us = shared.now_us().saturating_sub(enqueued_at_us);
        let claim = Outcome::TimedOut { waited_us };
        if shared.resolve_counted(&slot, claim.clone()) {
            claim
        } else {
            slot.wait(Duration::ZERO)
                .expect("slot lost the race, so it is resolved")
        }
    }
}

/// The running service: worker threads, a supervisor, and the shared
/// state. Create with [`Server::start`], stop with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Validates the config, spawns the workers and the supervisor, and
    /// returns the running server.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`ServeConfig`] or a policy without the
    /// steering-readback observation feature.
    pub fn start(policy: Arc<GaussianPolicy>, config: ServeConfig, plan: FaultPlan) -> Server {
        config.validate().expect("serve config");
        assert!(
            policy.obs_dim() > crate::pipeline::STEER_FEATURE,
            "serving at the full rung needs the steer-readback feature"
        );
        let sched = Scheduler::new(policy, config.clone(), plan);
        let pipelines: Vec<Pipeline> = (0..config.workers).map(|i| sched.pipeline(i)).collect();
        let shared = Arc::new(Shared {
            detector: Mutex::new(DetectorStream::new(&config)),
            queue: BoundedQueue::new(config.queue_capacity),
            sched: Mutex::new(sched),
            closing: AtomicBool::new(false),
            epoch: Instant::now(),
            config,
        });
        let slots = pipelines
            .into_iter()
            .enumerate()
            .map(|(i, pipeline)| {
                let shared2 = Arc::clone(&shared);
                Some(std::thread::spawn(move || {
                    worker_main(shared2, i, pipeline)
                }))
            })
            .collect();
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::spawn(move || supervisor_main(sup_shared, slots));
        Server {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful drain: stop admitting, let the workers finish everything
    /// queued, join them all, and return the merged report. Outstanding
    /// [`ServerHandle::request`] calls finish with `Shed(Closing)` or
    /// their worker's answer; once they have all returned, the report's
    /// counters reconcile.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.closing.store(true, Ordering::Release);
        self.shared.queue.close();
        self.supervisor
            .take()
            .expect("shutdown consumes the server")
            .join()
            .expect("supervisor never panics");
        self.shared.sched().report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::WorkerFault;
    use crate::request::{Counters, OutcomeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy() -> Arc<GaussianPolicy> {
        let mut rng = StdRng::seed_from_u64(11);
        Arc::new(GaussianPolicy::new(6, &[16], 2, &mut rng))
    }

    fn obs(i: u64) -> Vec<f32> {
        (0..6)
            .map(|j| {
                let x = drive_seed::splitmix64(i * 6 + j);
                ((x >> 11) as f64 / (1u64 << 53) as f64 * 0.4 - 0.2) as f32
            })
            .collect()
    }

    #[test]
    fn serves_requests_and_reconciles_on_shutdown() {
        let server = Server::start(policy(), ServeConfig::default(), FaultPlan::none(2));
        let handle = server.handle();
        let mut served = 0u64;
        for i in 0..20 {
            let out = handle.request(obs(i));
            if let Outcome::Served { action, .. } = out {
                assert!(action.steer.is_finite() && action.thrust.is_finite());
                served += 1;
            }
        }
        let report = server.shutdown();
        report.counters.reconcile().expect("books balance");
        assert_eq!(report.counters.submitted, 20);
        assert_eq!(report.counters.served, served);
        assert!(served > 0, "{}", report.render());
        assert!(report.batches > 0);
    }

    #[test]
    fn concurrent_clients_tally_matches_server_counters() {
        let server = Server::start(policy(), ServeConfig::default(), FaultPlan::none(2));
        let mut clients = Vec::new();
        for c in 0..4u64 {
            let handle = server.handle();
            clients.push(std::thread::spawn(move || {
                let mut tally = Counters::default();
                for i in 0..25u64 {
                    tally.submitted += 1;
                    tally.record(&handle.request(obs(c * 1_000 + i)));
                }
                tally
            }));
        }
        let mut client_side = Counters::default();
        for c in clients {
            client_side.merge(&c.join().expect("client thread"));
        }
        let report = server.shutdown();
        assert_eq!(
            report.counters, client_side,
            "server books must equal the sum of client tallies"
        );
        report.counters.reconcile().expect("balanced");
    }

    #[test]
    fn injected_kill_is_respawned_and_nothing_is_lost() {
        let plan = FaultPlan {
            per_worker: vec![vec![WorkerFault::Kill { at_us: 0 }], Vec::new()],
            corruption: drive_sim::faults::FaultSchedule::none(),
        };
        let server = Server::start(policy(), ServeConfig::default(), plan);
        let handle = server.handle();
        let mut kinds = Vec::new();
        for i in 0..30 {
            kinds.push(handle.request(obs(i)).kind());
        }
        let report = server.shutdown();
        report.counters.reconcile().expect("books balance");
        assert_eq!(report.counters.submitted, 30);
        assert!(report.respawns >= 1, "{}", report.render());
        // Every request resolved with a real outcome kind.
        assert!(kinds.iter().all(|k| matches!(
            k,
            OutcomeKind::Served | OutcomeKind::Degraded | OutcomeKind::TimedOut
        )));
    }

    #[test]
    fn shutdown_sheds_new_requests_as_closing() {
        let server = Server::start(policy(), ServeConfig::default(), FaultPlan::none(2));
        let handle = server.handle();
        let _ = handle.request(obs(0));
        let report = server.shutdown();
        let out = handle.request(obs(1));
        assert_eq!(
            out,
            Outcome::Shed {
                reason: ShedReason::Closing
            }
        );
        // The post-shutdown shed still resolved exactly once client-side;
        // the drained report covers everything submitted before it.
        report.counters.reconcile().expect("balanced");
    }
}
