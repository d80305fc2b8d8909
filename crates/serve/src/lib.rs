#![warn(missing_docs)]

//! # msd-serve
//!
//! A batched, multi-threaded inference runtime over the unified
//! [`msd_nn::Model`] trait: callers submit single samples, the runtime
//! packs same-shape requests into micro-batches, evaluates each batch with
//! one tape-free forward pass on a worker pool, and splits the result back
//! into per-request responses.
//!
//! The design contract, in order of importance:
//!
//! 1. **Bit-identity** — a batched answer is the *exact* bytes the caller
//!    would get from a sequential [`msd_nn::Model::predict`] call, for
//!    every batch composition. This holds because the tensor kernels
//!    accumulate each output element in a fixed order independent of the
//!    batch extent, and eval-mode forwards are deterministic, so batching
//!    is purely a throughput optimisation, never an accuracy trade.
//! 2. **No lost requests** — every admitted request receives exactly one
//!    response, even when a worker panics mid-batch (the panic is caught
//!    and surfaced as [`ServeError::Internal`] to that batch's callers)
//!    and during shutdown (in-flight batches drain before workers exit).
//! 3. **Typed backpressure** — when the bounded queue is full, submission
//!    fails *immediately* with [`ServeError::Overloaded`]; the runtime
//!    never panics and never blocks the caller on admission.
//!
//! ## Anatomy
//!
//! ```text
//! submit() --try_send--> [bounded queue] --> workers --.
//!    |                                     (the one holding the queue
//!    |                                      seals same-shape requests until
//!    |                                      max_batch or max_wait, releases
//!    |                                      the queue, then evaluates)    |
//!    '<------------------- per-request response channel <-----------------'
//! ```
//!
//! Workers take turns holding the intake, so only one thread composes a
//! batch at a time and composition is deterministic given an arrival order.
//! Workers each own an [`msd_nn::EvalScratch`] so repeated forwards reuse
//! tape allocations. Counters ([`ServeStats`]) are always on; JSONL
//! telemetry ([`ServeEvent`]) is opt-in via [`ServeConfig::events_path`]
//! and mirrors the training telemetry schema.

pub mod chaos;
mod events;
pub mod loadgen;
mod stats;

pub use chaos::{Chaos, FaultPlan, FaultPoint};
pub use events::{json_escape, ServeEvent};
pub use stats::{percentile, ServeStats};

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use events::EventSink;
use msd_autograd::{CompiledPlan, PlanArena};
use msd_nn::{EvalScratch, Model, ParamStore};
use msd_tensor::Tensor;
use stats::StatsInner;

/// Compiled plans shared by the worker pool, keyed by packed batch shape.
/// `None` caches a failed compile so that shape permanently takes the tape
/// path with no per-batch retry cost.
type PlanCache = Mutex<HashMap<Vec<usize>, Option<Arc<CompiledPlan>>>>;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest micro-batch a worker will seal (≥ 1).
    pub max_batch: usize,
    /// Longest a seed request waits for companions before its batch is
    /// sealed anyway. Zero disables coalescing entirely: every request
    /// ships as a batch of one.
    pub max_wait: Duration,
    /// Bound of the admission queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Worker threads evaluating batches (≥ 1). Distinct from
    /// `MSD_NUM_THREADS`, which controls intra-op parallelism *inside* one
    /// forward pass.
    pub workers: usize,
    /// Optional JSONL sink for [`ServeEvent`] telemetry.
    pub events_path: Option<PathBuf>,
    /// Default per-request deadline applied at admission when the caller
    /// does not pass one to [`Server::submit_with_deadline`]. `None` (the
    /// default) means requests never expire — the pre-deadline behavior,
    /// bit for bit.
    pub default_deadline: Option<Duration>,
    /// Explicit fault injector for this server. `None` (the default) falls
    /// back to the process-global `MSD_CHAOS` plan ([`Chaos::from_env`]);
    /// tests inject two isolated instances of one plan to assert schedule
    /// determinism.
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
            queue_cap: 256,
            workers: 4,
            events_path: None,
            default_deadline: None,
            chaos: None,
        }
    }
}

impl ServeConfig {
    /// Preset for one-at-a-time callers (the streaming scorer): coalescing
    /// off (`max_wait` zero), a single worker, and batches of one. A
    /// sequential caller gains nothing from the coalescing window — it only
    /// adds `max_wait` of dead time per request — and one worker keeps the
    /// evaluation order identical to the submission order, which the stream
    /// replay-determinism gate relies on.
    pub fn low_latency() -> Self {
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        }
    }
}

/// Why the runtime could not (or will not) answer a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; retry later or shed load.
    Overloaded,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The runtime dropped the response channel without answering. This is
    /// a bug guard; the drain invariant means callers should never see it.
    Canceled,
    /// A worker panicked while evaluating the batch containing this
    /// request; the payload is the panic message.
    Internal(String),
    /// The request's deadline passed before a worker evaluated it; it was
    /// shed without running the model. Maps to HTTP 504 at the gateway.
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Canceled => write!(f, "request canceled without a response"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One admitted request travelling through the runtime.
struct Request {
    x: Tensor,
    admitted: Instant,
    /// Absolute deadline; `None` never expires. Checked at admission and
    /// again when a worker seals its batch, so an expired request is shed
    /// instead of burning model time on an answer nobody is waiting for.
    deadline: Option<Instant>,
    resp: SyncSender<Result<Tensor, ServeError>>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// A handle to one in-flight request.
pub struct Pending {
    rx: Receiver<Result<Tensor, ServeError>>,
}

impl Pending {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }

    /// Returns the response if it has already arrived.
    pub fn try_wait(&mut self) -> Option<Result<Tensor, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Canceled)),
        }
    }

    /// Blocks for at most `timeout`, returning `None` if no response
    /// arrived in time. Non-consuming: the handle stays valid, so a caller
    /// can poll again, give up, or fall back to [`Pending::wait`] — it
    /// never blocks forever on a wedged worker. The late response, if one
    /// eventually arrives, is received by a later call or discarded when
    /// the handle drops; the runtime's ledger counts it either way.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Tensor, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Canceled)),
        }
    }
}

/// State shared by the intake and every worker.
struct Shared {
    stats: StatsInner,
    events: EventSink,
}

/// The running inference server. Dropping it (or calling
/// [`Server::shutdown`]) drains all in-flight work before returning.
pub struct Server {
    intake: Option<SyncSender<Request>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    default_deadline: Option<Duration>,
}

impl Server {
    /// Spawns the worker threads and starts serving `model` with the
    /// (frozen) parameters in `store`.
    ///
    /// Fails only if `cfg.events_path` cannot be opened for appending.
    pub fn start(
        model: impl Model + Send + Sync + 'static,
        store: ParamStore,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let max_batch = cfg.max_batch.max(1);
        let max_wait = cfg.max_wait;
        let workers = cfg.workers.max(1);
        let events = match &cfg.events_path {
            Some(path) => EventSink::to_path(path)?,
            None => EventSink::disabled(),
        };
        let shared = Arc::new(Shared {
            stats: StatsInner::default(),
            events,
        });
        let engine: Arc<(Box<dyn Model + Send + Sync>, ParamStore)> =
            Arc::new((Box::new(model), store));

        // Nothing is sealed ahead of a free worker: while every worker is
        // busy, admitted requests wait in the bounded intake, which fills and
        // starts rejecting — backpressure reaches callers as typed errors
        // instead of unbounded memory growth.
        let (intake_tx, rx) = sync_channel::<Request>(cfg.queue_cap.max(1));
        let intake = Arc::new(Mutex::new(Intake { rx, parked: None }));
        let chaos = cfg.chaos.clone().or_else(Chaos::from_env);
        // Compiled plans are pool-global: compilation is expensive (traces
        // plus probe verification at the full batch shape), so a shape must
        // compile at most once per server, not once per worker.
        let plan_cache: Arc<PlanCache> = Arc::new(Mutex::new(HashMap::new()));
        let workers = (0..workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let intake = Arc::clone(&intake);
                let shared = Arc::clone(&shared);
                let plan_cache = Arc::clone(&plan_cache);
                let chaos = chaos.clone();
                std::thread::Builder::new()
                    .name(format!("msd-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &engine,
                            &intake,
                            max_batch,
                            max_wait,
                            &shared,
                            &plan_cache,
                            chaos,
                        )
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(Server {
            intake: Some(intake_tx),
            workers,
            shared,
            default_deadline: cfg.default_deadline,
        })
    }

    /// Submits one sample (shaped `[1, C, L]`, matching
    /// [`msd_nn::Model::predict_batch`]'s per-sample convention) and
    /// returns a handle to the in-flight response.
    ///
    /// Never blocks: a full queue is an immediate [`ServeError::Overloaded`].
    ///
    /// The request carries [`ServeConfig::default_deadline`] (none by
    /// default); use [`Server::submit_with_deadline`] for a caller-chosen
    /// deadline.
    pub fn submit(&self, x: Tensor) -> Result<Pending, ServeError> {
        let deadline = self.default_deadline.map(|d| Instant::now() + d);
        self.submit_with_deadline(x, deadline)
    }

    /// [`Server::submit`] with an explicit absolute deadline (`None` never
    /// expires, overriding any configured default).
    ///
    /// A request whose deadline passes before a worker evaluates it is shed
    /// — answered [`ServeError::DeadlineExceeded`] and counted in
    /// [`ServeStats::expired`] — without running the model; one already
    /// past its deadline is shed here, at admission, and never queued. A
    /// deadline does not interrupt an evaluation already in flight: once a
    /// live request enters the forward pass it completes normally, so
    /// answers stay bit-identical regardless of deadline pressure.
    pub fn submit_with_deadline(
        &self,
        x: Tensor,
        deadline: Option<Instant>,
    ) -> Result<Pending, ServeError> {
        let intake = self.intake.as_ref().ok_or(ServeError::ShuttingDown)?;
        let (tx, rx) = sync_channel(1);
        let req = Request {
            x,
            admitted: Instant::now(),
            deadline,
            resp: tx,
        };
        // A busy pool has no thread watching the queue, so a request that
        // arrives dead is answered now rather than when a worker frees up.
        if req.expired(req.admitted) {
            self.shared.stats.note_submit();
            expire(&self.shared, req);
            return Ok(Pending { rx });
        }
        match intake.try_send(req) {
            Ok(()) => {
                self.shared.stats.note_submit();
                Ok(Pending { rx })
            }
            Err(TrySendError::Full(_)) => {
                // A rejected attempt still counts as submitted, so the
                // terminal ledger reads `completed + failed + rejected +
                // expired == submitted` — every attempt is accounted for.
                self.shared.stats.note_submit();
                self.shared.stats.note_reject();
                self.shared.events.emit(&ServeEvent::Reject);
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// [`Server::submit`] + [`Pending::wait`] in one blocking call.
    pub fn infer(&self, x: Tensor) -> Result<Tensor, ServeError> {
        self.submit(x)?.wait()
    }

    /// A live snapshot of the runtime's counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Requests admitted but not yet answered, from the relaxed counters.
    ///
    /// Cheap — no latency-vector clone like [`Server::stats`] — so
    /// admission-control policies (the gateway's brownout) can consult it
    /// per request. Reads of independent relaxed counters can race, so the
    /// value may transiently be off by the number of in-flight counter
    /// updates; it is a load signal, not a ledger.
    pub fn in_flight(&self) -> u64 {
        self.shared.stats.in_flight()
    }

    /// Stops admitting requests, drains every in-flight batch, joins all
    /// threads, and returns the final counters.
    ///
    /// `shutdown` consumes `self`, so `Drop` runs afterwards and calls
    /// [`Server::drain`] a second time — `drain` is idempotent by
    /// construction (every field it touches is `take`n or `drain`ed on the
    /// first pass), so the second pass joins nothing and cannot double-join
    /// a thread. The counter invariant `completed + failed + rejected +
    /// expired == submitted` holds at the moment `shutdown` returns even
    /// when a worker panics on a batch *during* the drain: the panic is
    /// caught in
    /// [`worker_loop`] and every request of that batch is answered and
    /// counted as failed before the worker picks up its next batch.
    pub fn shutdown(mut self) -> ServeStats {
        self.drain();
        let stats = self.shared.stats.snapshot();
        self.shared.events.emit(&ServeEvent::Stop {
            stats: stats.clone(),
        });
        stats
    }

    fn drain(&mut self) {
        // Dropping the intake sender ends each worker once `parked` and the
        // queue are empty and its last batch is answered.
        //
        // Idempotent: `take()`/`drain(..)` leave nothing behind for a second
        // call (shutdown-then-Drop) to join again. Worker panics never reach
        // `join` as an `Err` from inside a batch — `worker_loop` catches
        // them — so an `Err` here can only mean a bug outside the eval path;
        // ignoring it is safe because every response channel a dead thread
        // held is dropped, which surfaces to callers as `Canceled` rather
        // than a hang.
        drop(self.intake.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The admission queue plus the shape-change request parked to seed the
/// next batch. Workers share it behind one mutex; the holder seals a batch.
struct Intake {
    rx: Receiver<Request>,
    parked: Option<Request>,
}

/// Seals the next micro-batch off the intake; `None` once the intake is
/// closed and both `parked` and the queue are empty.
///
/// A batch is seeded by the parked request or else the first waiting one,
/// then grows with every same-shape arrival until it reaches `max_batch` or
/// the seed has waited `max_wait`. A differently-shaped arrival closes the
/// current batch and is parked to seed the next one, so mixed-shape traffic
/// degrades to smaller batches instead of failing.
fn seal_batch(
    intake: &mut Intake,
    max_batch: usize,
    max_wait: Duration,
    shared: &Shared,
) -> Option<Vec<Request>> {
    loop {
        let seed = match intake.parked.take() {
            Some(r) => r,
            // Intake closed and queue drained.
            None => intake.rx.recv().ok()?,
        };
        // Shed a seed that expired while queued: answering it now costs a
        // channel send; packing it would cost a model evaluation nobody is
        // waiting for.
        if seed.expired(Instant::now()) {
            expire(shared, seed);
            continue;
        }
        // The coalescing window is anchored at the seed's *admission*, not
        // at the moment a worker picked it up. A seed that already sat in
        // the queue — in particular a shape-change request parked while
        // every worker was busy — has spent its wait budget; re-anchoring
        // at pop time silently extended its worst-case latency to nearly
        // 2× `max_wait`.
        let deadline = seed.admitted + max_wait;
        let mut batch = vec![seed];
        let mut closed = false;
        // Already-queued same-shape requests are free companions: drain them
        // without consulting the deadline, so an expired window (seed aged
        // in the queue) still packs the burst instead of degrading to
        // singleton batches.
        while !closed && batch.len() < max_batch {
            match intake.rx.try_recv() {
                Ok(r) if r.expired(Instant::now()) => expire(shared, r),
                Ok(r) if r.x.shape() == batch[0].x.shape() => batch.push(r),
                Ok(r) => {
                    intake.parked = Some(r);
                    closed = true;
                }
                Err(_) => break,
            }
        }
        while !closed && batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match intake.rx.recv_timeout(deadline - now) {
                Ok(r) => {
                    if r.expired(Instant::now()) {
                        expire(shared, r);
                    } else if r.x.shape() == batch[0].x.shape() {
                        batch.push(r);
                    } else {
                        intake.parked = Some(r);
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        shared.stats.note_batch(batch.len());
        return Some(batch);
    }
}

/// Answers one expired request ([`ServeError::DeadlineExceeded`]) and
/// counts it in the `expired` ledger column.
fn expire(shared: &Shared, r: Request) {
    shared.stats.note_expired();
    shared.events.emit(&ServeEvent::Expired);
    let _ = r.resp.send(Err(ServeError::DeadlineExceeded));
}

/// Seals and evaluates batches until the intake is closed and drained. The
/// intake lock is held only while sealing, so peers evaluate meanwhile.
///
/// Workers evaluate through the pool-shared
/// [`PlanCache`]: a packed batch shape compiles at most once per *server*
/// (the first worker to see it compiles under the cache lock; peers block
/// briefly, then reuse the `Arc`'d plan), and each worker keeps a private
/// lock-free mirror so the steady-state hot path never touches the mutex.
/// A failed compile caches the typed failure, so that shape permanently
/// takes the tape path with no per-batch retry cost. Plan answers are
/// bit-identical to the tape path by the compile-time probe verification
/// in [`Model::compile_plan`], so the fallback is invisible to callers.
fn worker_loop(
    engine: &(Box<dyn Model + Send + Sync>, ParamStore),
    intake: &Mutex<Intake>,
    max_batch: usize,
    max_wait: Duration,
    shared: &Shared,
    plan_cache: &PlanCache,
    chaos: Option<Arc<Chaos>>,
) {
    let (model, store) = engine;
    let mut scratch = EvalScratch::new();
    let mut plans: HashMap<Vec<usize>, Option<Arc<CompiledPlan>>> = HashMap::new();
    let mut arena = PlanArena::new();
    loop {
        let sealed = {
            let mut guard = intake.lock().unwrap_or_else(|p| p.into_inner());
            seal_batch(&mut guard, max_batch, max_wait, shared)
        };
        let Some(batch) = sealed else { break };
        let xs: Vec<Tensor> = batch.iter().map(|r| r.x.clone()).collect();
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Chaos probes sit inside `catch_unwind`, exactly where a model
            // bug would surface, so an injected panic exercises the real
            // containment path rather than a parallel one.
            if let Some(c) = &chaos {
                if let Some(stall) = c.worker_stall() {
                    std::thread::sleep(stall);
                }
                if c.worker_panic() {
                    panic!("chaos: injected worker panic");
                }
            }
            if xs.iter().all(|x| x.ndim() >= 1 && x.shape()[0] == 1) {
                // Pack exactly like `predict_batch` so shapes (and answers)
                // are byte-for-byte the same on both paths.
                let packed = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 0);
                let shape = packed.shape().to_vec();
                let plan = match plans.get(&shape) {
                    Some(p) => p.clone(),
                    None => {
                        let p = {
                            let mut cache =
                                plan_cache.lock().unwrap_or_else(|p| p.into_inner());
                            cache
                                .entry(shape.clone())
                                .or_insert_with(|| {
                                    // Compilation always traces and verifies
                                    // at f32; an int8-tier store then lowers
                                    // the plan's matmuls onto the int8
                                    // kernels as an explicit post-step.
                                    model.compile_plan(store, &shape).ok().map(|mut plan| {
                                        if store.tier() == msd_nn::PrecisionTier::Int8 {
                                            plan.lower_int8(store);
                                        }
                                        Arc::new(plan)
                                    })
                                })
                                .clone()
                        };
                        plans.insert(shape, p.clone());
                        p
                    }
                };
                if let Some(plan) = plan {
                    shared.stats.note_plan_batch();
                    let full = model.predict_plan(&plan, store, &packed, &mut arena);
                    return (0..xs.len()).map(|i| full.narrow(0, i, 1)).collect();
                }
            }
            model.predict_batch_with(&mut scratch, store, &xs)
        }));
        let eval_us = t0.elapsed().as_micros() as u64;
        match result {
            Ok(ys) if ys.len() == batch.len() => {
                let size = batch.len();
                for (req, y) in batch.into_iter().zip(ys) {
                    shared.stats.note_done(req.admitted.elapsed().as_micros() as u64);
                    let _ = req.resp.send(Ok(y));
                }
                shared.events.emit(&ServeEvent::BatchEnd { size, eval_us });
            }
            Ok(ys) => {
                // A model returning the wrong output count is a contract
                // violation; zipping would silently truncate and strand the
                // tail of the batch without a response. Fail the whole batch
                // loudly instead.
                let message = format!(
                    "model returned {} outputs for a batch of {}",
                    ys.len(),
                    batch.len()
                );
                shared.stats.note_failed(batch.len());
                for req in batch {
                    let _ = req.resp.send(Err(ServeError::Internal(message.clone())));
                }
                shared.events.emit(&ServeEvent::WorkerPanic { message });
            }
            Err(payload) => {
                // The half-built tape is gone with the unwound stack; start
                // the scratch arena fresh rather than reason about its state.
                scratch = EvalScratch::new();
                let message = panic_message(payload.as_ref());
                shared.stats.note_failed(batch.len());
                for req in batch {
                    let _ = req.resp.send(Err(ServeError::Internal(message.clone())));
                }
                shared.events.emit(&ServeEvent::WorkerPanic { message });
            }
        }
    }
}

// Takes the unboxed trait object: coercing `&Box<dyn Any>` would downcast
// against the Box itself and never match the payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
