//! End-to-end tests of the serving runtime against a small real model:
//! bit-identity under every batch composition, typed backpressure, panic
//! containment, drained shutdown, and a 1000-request mixed-shape smoke.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use msd_autograd::{CompiledPlan, PlanError};
use msd_nn::{Ctx, Linear, Model, ModelOutput, ParamStore, Task};
use msd_serve::loadgen::{run_open_loop, sequential_baseline, LoadSpec};
use msd_serve::{Chaos, FaultPlan, ServeConfig, ServeError, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// A linear forecaster over the flattened input. `len`-generic so tests can
/// drive mixed request shapes through one server.
struct Affine {
    task: Task,
    lin: Linear,
    out_channels: usize,
    in_len: usize,
}

impl Affine {
    fn new(store: &mut ParamStore, channels: usize, len: usize) -> Self {
        let mut rng = Rng::seed_from(5);
        Affine {
            task: Task::Forecast { horizon: 4 },
            lin: Linear::new(store, &mut rng, "affine", channels * len, channels * 4),
            out_channels: channels,
            in_len: channels * len,
        }
    }
}

impl Model for Affine {
    fn name(&self) -> &str {
        "affine"
    }
    fn task(&self) -> &Task {
        &self.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        let b = x.shape()[0];
        assert_eq!(
            x.shape()[1] * x.shape()[2],
            self.in_len,
            "affine model saw an unexpected sample shape"
        );
        let v = ctx.g.input(x.reshape(&[b, self.in_len]));
        let y = self.lin.forward(ctx, v);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, self.out_channels, 4]))
    }
}

/// The sentinel value that makes [`Tripwire`] panic mid-forward.
const POISON: f32 = -12345.0;

/// A model that panics whenever a sample starts with the poison sentinel.
struct Tripwire(Affine);

impl Model for Tripwire {
    fn name(&self) -> &str {
        "tripwire"
    }
    fn task(&self) -> &Task {
        self.0.task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        assert!(x.data()[0] != POISON, "tripwire: poisoned sample");
        self.0.forward(ctx, x)
    }
    /// A compiled plan replays kernels without re-entering `forward`, so the
    /// data-dependent panic would never fire; refusing to compile keeps every
    /// batch on the tape path, whose panic containment these tests exercise.
    fn compile_plan(&self, _: &ParamStore, _: &[usize]) -> Result<CompiledPlan, PlanError> {
        Err(PlanError::UnsupportedOp("tripwire"))
    }
}

/// A model that parks every forward call until the test opens the gate —
/// used to hold the sole worker busy while requests age in the intake, so
/// its next batch is sealed from an already-aged parked request.
struct Gated {
    inner: Affine,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Model for Gated {
    fn name(&self) -> &str {
        "gated"
    }
    fn task(&self) -> &Task {
        self.inner.task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        let (lock, cv) = &*self.gate;
        let open = lock.lock().unwrap();
        // 5 s cap: a scheduling accident must fail the latency assert in the
        // test body, not hang the whole suite.
        let _unused = cv
            .wait_timeout_while(open, Duration::from_secs(5), |o| !*o)
            .unwrap();
        self.inner.forward(ctx, x)
    }
    /// Compiling would trace `forward` (and wait on the gate) at compile
    /// time, then replay kernels that never consult it; refusing keeps the
    /// gate on the hot path.
    fn compile_plan(&self, _: &ParamStore, _: &[usize]) -> Result<CompiledPlan, PlanError> {
        Err(PlanError::UnsupportedOp("gated"))
    }
}

fn sample(channels: usize, len: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(&[1, channels, len], 1.0, &mut rng)
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).collect::<Vec<_>>().into_iter().enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

#[test]
fn served_responses_are_bit_identical_to_sequential_predict() {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 6);
    let inputs: Vec<Tensor> = (0..64).map(|i| sample(2, 6, 100 + i)).collect();
    let (reference, _) = sequential_baseline(&model, &store, &inputs);

    // Sweep batching regimes: no coalescing, tiny batches, large batches
    // with a generous wait (the whole backlog packs together). Bit-identity
    // must hold for every composition the workers can seal.
    for (max_batch, max_wait_us) in [(1, 0u64), (3, 2_000), (32, 20_000)] {
        let mut store2 = ParamStore::new();
        let model2 = Affine::new(&mut store2, 2, 6);
        let server = Server::start(
            model2,
            store2,
            ServeConfig {
                max_batch,
                max_wait: Duration::from_micros(max_wait_us),
                workers: 3,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let pending: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).expect("queue has room"))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let y = p.wait().expect("request must succeed");
            assert_bits_equal(&y, &reference[i], &format!("max_batch={max_batch} req {i}"));
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.failed + stats.rejected, 0);
        if max_batch == 1 {
            assert_eq!(stats.batches, 64, "no coalescing at max_batch=1");
        }
    }
}

#[test]
fn full_queue_rejects_with_typed_overload_error() {
    let mut store = ParamStore::new();
    // Large model input keeps workers busy long enough to fill the queue.
    let model = Affine::new(&mut store, 4, 256);
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 2,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut accepted = Vec::new();
    let mut rejections = 0usize;
    for i in 0..200 {
        match server.submit(sample(4, 256, i)) {
            Ok(p) => accepted.push(p),
            Err(ServeError::Overloaded) => rejections += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejections > 0, "a cap-2 queue must shed some of 200 instant arrivals");
    for p in accepted {
        p.wait().expect("accepted requests still complete");
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, rejections as u64);
    // `submitted` counts every attempt, rejected or admitted, so the
    // terminal ledger balances by construction.
    assert_eq!(stats.submitted, 200);
    assert_eq!(stats.completed, stats.submitted - stats.rejected);
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn worker_panic_fails_only_that_batch_and_serving_continues() {
    let mut store = ParamStore::new();
    let model = Tripwire(Affine::new(&mut store, 2, 6));
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 1, // isolate the poisoned sample in its own batch
            max_wait: Duration::ZERO,
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let good_before = server.submit(sample(2, 6, 1)).unwrap();
    let mut poison = sample(2, 6, 2);
    poison.data_mut()[0] = POISON;
    let poisoned = server.submit(poison).unwrap();
    let good_after = server.submit(sample(2, 6, 3)).unwrap();

    good_before.wait().expect("clean request before the panic");
    match poisoned.wait() {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("tripwire"), "panic message surfaced: {msg}")
        }
        other => panic!("poisoned request must fail with Internal, got {other:?}"),
    }
    good_after
        .wait()
        .expect("the pool must keep serving after a contained panic");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
}

#[test]
fn worker_panic_during_shutdown_keeps_counters_balanced() {
    // Satellite regression: `shutdown` drains while a batch is still being
    // evaluated; a panic *inside that drain window* must still answer every
    // request and keep `completed + failed + rejected == submitted`. The
    // shutdown-then-Drop double-drain must also be a no-op (no double-join
    // hang, no poisoned-lock panic).
    for seed in 0..5u64 {
        let mut store = ParamStore::new();
        let model = Tripwire(Affine::new(&mut store, 2, 6));
        let server = Server::start(
            model,
            store,
            ServeConfig {
                max_batch: 1, // each sample is its own batch
                max_wait: Duration::ZERO,
                queue_cap: 64,
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut pending = Vec::new();
        let mut submitted = 0u64;
        for i in 0..24u64 {
            let mut x = sample(2, 6, seed * 1000 + i);
            // Poison a third of the batches; they panic whenever the worker
            // reaches them — for late queue positions that is mid-drain.
            if i % 3 == 1 {
                x.data_mut()[0] = POISON;
            }
            if let Ok(p) = server.submit(x) {
                pending.push((i, p));
                submitted += 1;
            }
        }
        // Shut down immediately: most of the queue is still in flight, so
        // poisoned batches panic while the drain is running.
        let stats = server.shutdown();
        assert_eq!(stats.submitted, submitted);
        assert_eq!(stats.rejected, 0, "cap-64 queue must admit all 24");
        assert_eq!(
            stats.completed + stats.failed + stats.rejected,
            stats.submitted,
            "ledger imbalance: {stats:?}"
        );
        assert!(stats.failed >= 1, "at least one poisoned batch must fail");
        // Every handle resolves: a typed error, never a Canceled hang.
        for (i, p) in pending {
            match p.wait() {
                Ok(_) => assert!(i % 3 != 1, "poisoned request {i} succeeded"),
                Err(ServeError::Internal(_)) => assert!(i % 3 == 1, "clean request {i} failed"),
                Err(e) => panic!("request {i}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn shape_change_seed_keeps_its_admission_deadline() {
    // Regression: batching used to re-anchor the coalescing window at the
    // moment it *popped* a seed rather than at the seed's admission. A
    // shape-change request parked while the pipeline was stalled behind a
    // busy worker then waited up to ~2× max_wait end to end. Rebuild
    // that stall with a gated model and assert the parked request's latency
    // stays near 1× max_wait.
    let max_wait = Duration::from_millis(600);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut store = ParamStore::new();
    let model = Gated {
        inner: Affine::new(&mut store, 2, 6),
        gate: gate.clone(),
    };
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 2,
            max_wait,
            workers: 1,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Batch 1 fills and reaches the (gated) sole worker; G3..G5 and the
    // shape-change arrival B1 age in the intake behind it. Once the gate
    // opens, G3+G4 seal as batch 2 and G5 seeds batch 3, which B1 closes —
    // B1 is parked to seed batch 4 with its window long spent.
    let _g1 = server.submit(sample(2, 6, 1)).unwrap();
    let _g2 = server.submit(sample(2, 6, 2)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let _g3 = server.submit(sample(2, 6, 3)).unwrap();
    let _g4 = server.submit(sample(2, 6, 4)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let _g5 = server.submit(sample(2, 6, 5)).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let submitted_b = Instant::now();
    let b1 = server.submit(sample(1, 12, 6)).unwrap(); // parks after G5

    // Hold the pipeline stalled past B1's whole wait budget, then release.
    std::thread::sleep(Duration::from_millis(700));
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    b1.wait().expect("parked request completes");
    let latency = submitted_b.elapsed();
    // Correct admission anchoring: B1's window expired while it was parked,
    // so its batch closes as soon as the worker frees up (~700 ms). The old
    // re-anchoring granted a fresh window at pop time (~1300 ms). The
    // threshold splits the gap with slack for slow CI on both sides.
    assert!(
        latency < Duration::from_millis(1000),
        "shape-change seed inherited a fresh coalescing window: {latency:?}"
    );
    server.shutdown();
}

#[test]
fn expired_requests_are_shed_with_a_typed_deadline_error() {
    // A gated sole worker wedges the pipeline; requests submitted with an
    // already-expired deadline must come back `DeadlineExceeded` from the
    // admission shed path — typed, counted, and without waiting for the
    // worker — while the healthy request completes once the gate opens.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut store = ParamStore::new();
    let model = Gated {
        inner: Affine::new(&mut store, 2, 6),
        gate: gate.clone(),
    };
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Occupies the worker (and then some): batches queue behind the gate.
    let healthy = server.submit(sample(2, 6, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // Deadline already in the past at submission: sheddable on arrival.
    let doomed: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit_with_deadline(sample(2, 6, 10 + i), Some(Instant::now()))
                .unwrap()
        })
        .collect();
    let shed_started = Instant::now();
    for p in doomed {
        match p.wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert!(
        shed_started.elapsed() < Duration::from_secs(2),
        "shedding must not wait out the wedged worker"
    );
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    healthy.wait().expect("healthy request survives");
    let stats = server.shutdown();
    assert_eq!(stats.expired, 4, "{stats:?}");
    assert_eq!(stats.completed, 1);
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn wait_timeout_reports_a_stalled_worker_without_consuming_the_answer() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut store = ParamStore::new();
    let model = Gated {
        inner: Affine::new(&mut store, 2, 6),
        gate: gate.clone(),
    };
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut pending = server.submit(sample(2, 6, 1)).unwrap();
    // The worker is parked on the gate: bounded waits report "not yet"
    // (None) and can be repeated — a timeout must not eat the answer.
    assert!(pending.wait_timeout(Duration::from_millis(40)).is_none());
    assert!(pending.wait_timeout(Duration::from_millis(40)).is_none());
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    match pending.wait_timeout(Duration::from_secs(5)) {
        Some(Ok(_)) => {}
        other => panic!("expected the answer after the gate opened, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn chaos_schedules_replay_bit_identically_for_the_same_seed() {
    // Two fresh servers under the same fault plan, driven with the same
    // sequential request stream, must produce identical outcomes per
    // request, identical fired-fault logs, balanced ledgers, and
    // bit-identical successful responses.
    let plan = FaultPlan::parse("seed:42,worker_panic:0.25,worker_stall:0.1,worker_stall_ms:5")
        .unwrap();
    let run = |plan: FaultPlan| {
        let mut store = ParamStore::new();
        let model = Affine::new(&mut store, 2, 6);
        let chaos = Arc::new(Chaos::new(plan));
        let server = Server::start(
            model,
            store,
            ServeConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                workers: 1, // one worker + sequential driving = total order
                chaos: Some(chaos.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut outcomes: Vec<Result<Vec<u32>, String>> = Vec::new();
        for i in 0..60u64 {
            let r = server.submit(sample(2, 6, i)).unwrap().wait();
            outcomes.push(match r {
                Ok(y) => Ok(y.data().iter().map(|v| v.to_bits()).collect()),
                Err(e) => Err(format!("{e:?}")),
            });
        }
        let stats = server.shutdown();
        assert!(stats.ledger_balanced(), "{stats:?}");
        assert_eq!(stats.completed + stats.failed, 60, "no hung request");
        (outcomes, chaos.fired())
    };
    let (outcomes_a, fired_a) = run(plan.clone());
    let (outcomes_b, fired_b) = run(plan);
    assert!(
        outcomes_a.iter().any(|o| o.is_err()),
        "a 25% panic rate over 60 requests must inject something"
    );
    assert!(
        outcomes_a.iter().any(|o| o.is_ok()),
        "some requests must survive"
    );
    assert_eq!(outcomes_a, outcomes_b, "same seed, different outcomes");
    assert_eq!(fired_a, fired_b, "same seed, different fault schedule");
}

#[test]
fn shutdown_drains_every_in_flight_request() {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 6);
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(5),
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let pending: Vec<_> = (0..40)
        .map(|i| server.submit(sample(2, 6, i)).unwrap())
        .collect();
    let stats = server.shutdown(); // returns only after the drain
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.failed + stats.rejected, 0);
    for p in pending {
        p.wait().expect("drained request still delivers its response");
    }
}

#[test]
fn shutdown_right_after_a_shape_change_answers_the_parked_request() {
    // The sole worker seals [A1, A2], parks the shape-change arrival B to
    // seed its next batch, and is still evaluating (gated) when shutdown
    // drops the intake. B must still be sealed and answered — never
    // dropped as `Canceled` — and the ledger must balance.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut store = ParamStore::new();
    let model = Gated {
        inner: Affine::new(&mut store, 2, 6),
        gate: gate.clone(),
    };
    let mut ref_store = ParamStore::new();
    let reference = Affine::new(&mut ref_store, 2, 6);
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(1),
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let a: Vec<_> = (0..2)
        .map(|i| server.submit(sample(2, 6, i)).unwrap())
        .collect();
    let xb = sample(1, 12, 9);
    let b = server.submit(xb.clone()).unwrap();
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    });
    let stats = server.shutdown();
    opener.join().unwrap();
    for p in a {
        p.wait().expect("same-shape request completes");
    }
    match b.wait() {
        Ok(y) => assert_bits_equal(&y, &reference.predict(&ref_store, &xb), "parked request"),
        Err(e) => panic!("parked request must be answered, got {e:?}"),
    }
    assert_eq!(stats.completed, 3, "{stats:?}");
    assert_eq!(stats.batches, 2, "the shape change splits the batch");
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn smoke_1k_mixed_shape_requests_zero_lost_zero_corrupted() {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 6);
    // Two request shapes with equal flattened length: same model, but the
    // workers must never pack them together.
    let inputs: Vec<Tensor> = (0..1000)
        .map(|i| {
            if i % 3 == 0 {
                sample(2, 6, i)
            } else {
                sample(1, 12, i)
            }
        })
        .collect();
    let (reference, _) = sequential_baseline(&model, &store, &inputs);

    let events = std::env::temp_dir().join("msd_serve_smoke_events.jsonl");
    let _ = std::fs::remove_file(&events);
    let mut store2 = ParamStore::new();
    let model2 = Affine::new(&mut store2, 2, 6);
    let server = Server::start(
        model2,
        store2,
        ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(300),
            queue_cap: 2048,
            workers: 4,
            events_path: Some(events.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let outcome = run_open_loop(
        &server,
        &inputs,
        &LoadSpec {
            requests: 1000,
            rate_rps: 0.0, // flat out; queue_cap covers the full load
            seed: 7,
            ..LoadSpec::default()
        },
    );
    assert_eq!(outcome.responses.len(), 1000);
    for (i, resp) in outcome.responses.iter().enumerate() {
        let y = resp.as_ref().expect("no request may be lost or shed");
        assert_bits_equal(y, &reference[i], &format!("smoke req {i}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 1000);
    assert_eq!(stats.completed, 1000);
    assert_eq!(stats.rejected + stats.failed, 0);
    assert!(stats.mean_batch >= 1.0);

    let text = std::fs::read_to_string(&events).unwrap();
    let batch_lines = text.lines().filter(|l| l.contains("serve_batch")).count() as u64;
    assert_eq!(batch_lines, stats.batches, "one JSONL line per batch");
    assert!(text.lines().any(|l| l.contains("serve_stop")));
    let _ = std::fs::remove_file(&events);
}

#[test]
fn low_latency_preset_is_bit_identical_and_keeps_submission_order() {
    let cfg = ServeConfig::low_latency();
    assert_eq!(cfg.max_batch, 1);
    assert_eq!(cfg.max_wait, Duration::ZERO);
    assert_eq!(cfg.workers, 1);

    // Affine's init seed is fixed, so two builds are bit-identical: one is
    // the sequential reference, one goes to the server.
    let mut ref_store = ParamStore::new();
    let ref_model = Affine::new(&mut ref_store, 2, 16);
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 16);
    let server = Server::start(model, store, cfg).unwrap();

    for i in 0..32u64 {
        let x = sample(2, 16, 900 + i);
        let y = server.infer(x.clone()).expect("low-latency request succeeds");
        assert_bits_equal(&y, &ref_model.predict(&ref_store, &x), "low-latency response");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.batches, 32, "batch-of-one: no coalescing");
    assert!(stats.ledger_balanced(), "{}", stats.to_json());
}
