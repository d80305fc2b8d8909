//! Fault-tolerance integration tests: deadlines end to end, breaker
//! trip/reroute/heal on a sick replica, brownout shedding with known-answer
//! `Retry-After`, and the degradation gate — one replica 100% stalled must
//! cost typed errors and a bounded success tail, never hangs or losses.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_autograd::{CompiledPlan, PlanError};
use msd_gateway::http::Client;
use msd_gateway::loadgen::{run_tcp_open_loop, TcpLoadSpec, TcpRequest};
use msd_gateway::router::{route, route_order};
use msd_gateway::{
    BreakerConfig, BreakerState, BrownoutConfig, Gateway, GatewayConfig, GatewayError,
    ModelFactory, Registry,
};
use msd_nn::{Ctx, DynModel, Linear, Model, ModelOutput, ParamStore, Task};
use msd_serve::ServeConfig;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

const CHANNELS: usize = 2;
const LEN: usize = 6;
const HORIZON: usize = 4;

struct Affine {
    task: Task,
    lin: Linear,
}

impl Affine {
    fn new(store: &mut ParamStore) -> Self {
        let mut rng = Rng::seed_from(7);
        Affine {
            task: Task::Forecast { horizon: HORIZON },
            lin: Linear::new(store, &mut rng, "affine", CHANNELS * LEN, CHANNELS * HORIZON),
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
        let v = ctx.g.input(x.reshape(&[b, CHANNELS * LEN]));
        let y = self.lin.forward(ctx, v);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, CHANNELS, HORIZON]))
    }
}

/// [`Affine`] that stalls `stall` per forward while the shared switch is on.
struct Sickable {
    inner: Affine,
    sick: Arc<AtomicBool>,
    stall: Duration,
}

impl Model for Sickable {
    fn name(&self) -> &str {
        "sickable"
    }
    fn task(&self) -> &Task {
        self.inner.task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        if self.sick.load(Ordering::Relaxed) {
            std::thread::sleep(self.stall);
        }
        self.inner.forward(ctx, x)
    }
    /// A compiled plan would replay kernels without re-entering `forward`;
    /// refusing to compile keeps the sick switch on the hot path, honored
    /// per request.
    fn compile_plan(&self, _: &ParamStore, _: &[usize]) -> Result<CompiledPlan, PlanError> {
        Err(PlanError::UnsupportedOp("sickable"))
    }
}

/// A factory whose FIRST build (replica 0 — the registry builds replicas in
/// index order) carries the sick switch; every later build is plain. This
/// pins the fault to exactly one replica of the set.
fn factory_with_sick_replica0(sick: Arc<AtomicBool>, stall: Duration) -> ModelFactory {
    let builds = AtomicUsize::new(0);
    Box::new(move || {
        let mut store = ParamStore::new();
        let inner = Affine::new(&mut store);
        let n = builds.fetch_add(1, Ordering::Relaxed);
        let switch = if n == 0 {
            sick.clone()
        } else {
            Arc::new(AtomicBool::new(false))
        };
        let model = Sickable {
            inner,
            sick: switch,
            stall,
        };
        (Box::new(model) as DynModel, store)
    })
}

fn sample(seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(&[1, CHANNELS, LEN], 1.0, &mut rng)
}

/// A key whose plain FNV route in a `replicas`-wide set is `want`.
fn key_for_replica(want: usize, replicas: usize) -> String {
    (0..)
        .map(|i| format!("k{i}"))
        .find(|k| route(k.as_bytes(), replicas) == want)
        .unwrap()
}

/// Serve config for fault tests: no batching tricks.
fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        queue_cap: 256,
        workers: 1,
        events_path: None,
        ..ServeConfig::default()
    }
}

#[test]
fn sick_replica_trips_the_breaker_reroutes_and_heals() {
    let sick = Arc::new(AtomicBool::new(false));
    let registry = Registry::with_policies(
        serve_cfg(),
        2,
        BreakerConfig {
            consecutive_errors: 2,
            cooldown: Duration::from_millis(300),
            half_open_successes: 2,
            ..BreakerConfig::default()
        },
        BrownoutConfig::default(),
        None,
    );
    registry
        .register(
            "m",
            factory_with_sick_replica0(sick.clone(), Duration::from_millis(150)),
            None,
        )
        .unwrap();
    let key = key_for_replica(0, 2);
    let deadline = || Some(Instant::now() + Duration::from_millis(60));

    // Healthy: the key lands on replica 0 and succeeds.
    let ok = registry
        .predict("m", key.as_bytes(), sample(1), deadline())
        .unwrap();
    assert_eq!(ok.replica, 0);

    // Sick: two deadline blow-ups trip the breaker on replica 0.
    sick.store(true, Ordering::Relaxed);
    for i in 0..2 {
        match registry.predict("m", key.as_bytes(), sample(2 + i), deadline()) {
            Err(GatewayError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let set = registry.current_set("m").unwrap();
    assert_eq!(set.health()[0].state(), BreakerState::Open);
    assert!(
        registry.stats_json().contains("\"breaker\":\"open\""),
        "stats must expose the open breaker: {}",
        registry.stats_json()
    );

    // Open: the same key deterministically reroutes to replica 1 and works.
    for i in 0..3 {
        let ok = registry
            .predict("m", key.as_bytes(), sample(10 + i), deadline())
            .unwrap();
        assert_eq!(ok.replica, 1, "open breaker must reroute");
    }

    // Heal: switch off, drain the stalled backlog, wait out the cooldown.
    sick.store(false, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(500));
    for i in 0..2 {
        let ok = registry
            .predict("m", key.as_bytes(), sample(20 + i), deadline())
            .unwrap();
        assert_eq!(ok.replica, 0, "half-open must probe replica 0 again");
    }
    assert_eq!(set.health()[0].state(), BreakerState::Closed);
    registry.shutdown();
}

#[test]
fn all_breakers_open_still_answers_via_least_bad_fail_static() {
    let sick = Arc::new(AtomicBool::new(false));
    let registry = Registry::with_policies(
        serve_cfg(),
        2,
        BreakerConfig {
            consecutive_errors: 1,
            cooldown: Duration::from_secs(60), // no half-open during the test
            ..BreakerConfig::default()
        },
        BrownoutConfig::default(),
        None,
    );
    // Both replicas plain (switch never flipped): we trip the breakers
    // artificially via the health records to isolate the routing behavior.
    registry
        .register(
            "m",
            factory_with_sick_replica0(sick, Duration::ZERO),
            None,
        )
        .unwrap();
    let set = registry.current_set("m").unwrap();
    set.health()[0].on_error();
    set.health()[1].on_error();
    set.health()[1].on_error(); // replica 1 is "worse": longer error streak
    assert_eq!(set.health()[0].state(), BreakerState::Open);
    assert_eq!(set.health()[1].state(), BreakerState::Open);
    // Fail static: the fleet still answers, on the least-bad replica 0 —
    // regardless of where the key would normally route.
    for i in 0..4u64 {
        let key = format!("any-{i}");
        let ok = registry
            .predict("m", key.as_bytes(), sample(40 + i), None)
            .unwrap();
        assert_eq!(ok.replica, 0, "fail-static must pick the least-bad replica");
    }
    registry.shutdown();
}

#[test]
fn brownout_sheds_with_the_known_answer_retry_after() {
    let sick = Arc::new(AtomicBool::new(true)); // replica 0 always slow
    let registry = Registry::with_policies(
        serve_cfg(),
        1,
        BreakerConfig {
            consecutive_errors: 0, // breakers off: this test is about brownout
            ..BreakerConfig::default()
        },
        BrownoutConfig {
            max_in_flight: 1,
            max_ewma_us: 0,
        },
        None,
    );
    registry
        .register(
            "m",
            factory_with_sick_replica0(sick, Duration::from_millis(400)),
            None,
        )
        .unwrap();
    // Occupy the sole replica (in_flight rises to 1), then hit the brownout.
    let reg = &registry;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = reg.predict("m", b"a", sample(1), None);
        });
        std::thread::sleep(Duration::from_millis(100));
        match reg.predict("m", b"b", sample(2), None) {
            Err(GatewayError::Brownout { retry_after_secs }) => {
                // Known answer: 1 s floor + 0 s wait window + 1/256 queues.
                assert_eq!(retry_after_secs, 1);
            }
            other => panic!("expected Brownout, got {other:?}"),
        }
    });
    registry.shutdown();
}

#[test]
fn deadline_and_brownout_surface_as_typed_http_statuses_with_headers() {
    let sick = Arc::new(AtomicBool::new(true));
    let cfg = GatewayConfig {
        serve: serve_cfg(),
        replicas: 1,
        breaker: BreakerConfig {
            consecutive_errors: 0,
            ..BreakerConfig::default()
        },
        brownout: BrownoutConfig {
            max_in_flight: 1,
            max_ewma_us: 0,
        },
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).unwrap();
    gw.registry()
        .register(
            "m",
            factory_with_sick_replica0(sick, Duration::from_millis(400)),
            None,
        )
        .unwrap();
    let addr = gw.local_addr().to_string();
    let body = msd_gateway::wire::encode_tensor(&sample(1));

    // Bad deadline header → typed 400, not a silent unbounded wait.
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request(
            "POST",
            "/v1/models/m/predict",
            &[("X-Msd-Deadline-Ms", "soon")],
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    // Wedge the sole replica, then: a deadlined request must 504 and a
    // surplus request must brownout-429 with the known Retry-After.
    let addr2 = addr.clone();
    let body2 = body.clone();
    let hog = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.request("POST", "/v1/models/m/predict", &[], &body2)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let resp = client
        .request(
            "POST",
            "/v1/models/m/predict",
            &[("X-Msd-Deadline-Ms", "60")],
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 429, "brownout precedes admission");
    assert_eq!(resp.header("retry-after"), Some("1"), "known-answer hint");
    assert_eq!(hog.join().unwrap().status, 200, "the hog still completes");

    // With brownout quiet again, a too-short deadline surfaces as 504.
    let resp = client
        .request(
            "POST",
            "/v1/models/m/predict",
            &[("X-Msd-Deadline-Ms", "60")],
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 504, "blown deadline is a typed gateway timeout");
    gw.shutdown();
}

#[test]
fn default_deadline_applies_to_requests_without_a_deadline_header() {
    let cfg = GatewayConfig {
        serve: serve_cfg(),
        replicas: 1,
        default_deadline: Some(Duration::from_millis(60)),
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).unwrap();
    gw.registry()
        .register(
            "m",
            factory_with_sick_replica0(Arc::new(AtomicBool::new(true)), Duration::from_millis(400)),
            None,
        )
        .unwrap();
    let body = msd_gateway::wire::encode_tensor(&sample(1));
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    let t0 = Instant::now();
    let resp = client
        .request("POST", "/v1/models/m/predict", &[], &body)
        .unwrap();
    assert_eq!(resp.status, 504, "the configured default deadline must apply");
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "answered after {:?}: waited out the stall instead of the deadline",
        t0.elapsed()
    );
    gw.shutdown();
}

#[test]
fn degraded_fleet_answers_everything_typed_with_a_bounded_success_tail() {
    // The degradation gate: one of two replicas 100% stalled. Every request
    // must resolve to 200/429/504 (zero lost, zero hangs) and the p99 of
    // *successes* must stay under 3× the healthy-fleet p99.
    let requests: Vec<TcpRequest> = (0..120)
        .map(|i| TcpRequest {
            model: "m".to_string(),
            key: format!("key-{i}"),
            body: msd_gateway::wire::encode_tensor(&sample(1000 + i as u64)),
        })
        .collect();
    let spec = TcpLoadSpec {
        rate_rps: 0.0,
        connections: 4,
        seed: 11,
        retry_budget: 2,
        deadline_ms: Some(150),
        ..TcpLoadSpec::default()
    };
    let run = |sick_now: bool| {
        let sick = Arc::new(AtomicBool::new(sick_now));
        let cfg = GatewayConfig {
            serve: serve_cfg(),
            replicas: 2,
            breaker: BreakerConfig {
                consecutive_errors: 2,
                // Longer than the measured run: no half-open probe lands a
                // fresh 300 ms stall inside the latency measurement.
                cooldown: Duration::from_secs(30),
                half_open_successes: 2,
                ..BreakerConfig::default()
            },
            ..GatewayConfig::default()
        };
        let gw = Gateway::bind("127.0.0.1:0", cfg).unwrap();
        gw.registry()
            .register(
                "m",
                factory_with_sick_replica0(sick, Duration::from_millis(300)),
                None,
            )
            .unwrap();
        let addr = gw.local_addr().to_string();
        if sick_now {
            // Prime the breaker: the fleet pays for discovering the sick
            // replica once (typed 504s), then the measured load sees the
            // degraded steady state the gate is about.
            let mut c = Client::connect(&addr).unwrap();
            let key = key_for_replica(0, 2);
            let body = msd_gateway::wire::encode_tensor(&sample(1));
            for _ in 0..2 {
                let r = c
                    .request(
                        "POST",
                        "/v1/models/m/predict",
                        &[("X-Msd-Key", key.as_str()), ("X-Msd-Deadline-Ms", "60")],
                        &body,
                    )
                    .unwrap();
                assert_eq!(r.status, 504, "priming request must blow its deadline");
            }
        }
        let outcome = run_tcp_open_loop(&addr, &requests, &spec);
        gw.shutdown();
        outcome
    };

    let healthy = run(false);
    assert_eq!(healthy.lost(), 0);
    let healthy_lat = healthy.ok_latencies_sorted();
    assert_eq!(healthy_lat.len(), requests.len(), "healthy fleet answers all");
    let healthy_p99 =
        msd_serve::percentile(&healthy_lat, 99).max(Duration::from_millis(20).as_micros() as u64);

    let started = Instant::now();
    let degraded = run(true);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "degraded run must not wedge"
    );
    assert_eq!(degraded.lost(), 0, "retries must absorb every transport blip");
    for resp in degraded.responses.iter().flatten() {
        assert!(
            matches!(resp.status, 200 | 429 | 504),
            "untyped degraded status {}",
            resp.status
        );
    }
    let ok = degraded.count_status(200);
    assert!(
        ok > requests.len() / 2,
        "rerouting must keep the majority succeeding, got {ok}"
    );
    let degraded_p99 = msd_serve::percentile(&degraded.ok_latencies_sorted(), 99);
    assert!(
        degraded_p99 < 3 * healthy_p99,
        "success tail blew up: degraded p99 {degraded_p99}us vs healthy p99 {healthy_p99}us"
    );
}

#[test]
fn chaos_run_loses_nothing_and_survivors_are_bit_identical() {
    // Worker panics + stalls + mid-response connection drops, all armed.
    // A retrying client must absorb every injected fault: zero lost
    // requests, only typed statuses, every replica ledger balanced, and
    // every 200 body bit-identical to the sequential oracle.
    use msd_serve::{Chaos, FaultPlan};
    let plan = FaultPlan::parse(
        "seed:42,worker_panic:0.03,worker_stall:0.05,worker_stall_ms:20,conn_drop:0.04",
    )
    .unwrap();
    let chaos = Arc::new(Chaos::new(plan));
    let sick = Arc::new(AtomicBool::new(false)); // never flipped: chaos only
    let cfg = GatewayConfig {
        serve: serve_cfg(),
        replicas: 2,
        chaos: Some(chaos.clone()),
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).unwrap();
    gw.registry()
        .register("m", factory_with_sick_replica0(sick, Duration::ZERO), None)
        .unwrap();
    let addr = gw.local_addr().to_string();

    let inputs: Vec<Tensor> = (0..200).map(|i| sample(5000 + i)).collect();
    let requests: Vec<TcpRequest> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| TcpRequest {
            model: "m".to_string(),
            key: format!("key-{i}"),
            body: msd_gateway::wire::encode_tensor(x),
        })
        .collect();
    let outcome = run_tcp_open_loop(
        &addr,
        &requests,
        &TcpLoadSpec {
            connections: 4,
            seed: 9,
            retry_budget: 3,
            ..TcpLoadSpec::default()
        },
    );
    assert!(!chaos.fired().is_empty(), "the plan must inject something");
    assert_eq!(outcome.lost(), 0, "retries must absorb every injected fault");
    assert!(
        outcome.retries_total > 0,
        "injected faults must have forced retries"
    );

    // The oracle: a fresh build of the same deterministic architecture.
    let mut store = ParamStore::new();
    let oracle = Affine::new(&mut store);
    for (i, resp) in outcome.responses.iter().enumerate() {
        let resp = resp.as_ref().unwrap();
        assert!(
            matches!(resp.status, 200 | 429 | 500 | 504),
            "untyped status {} on request {i}",
            resp.status
        );
        if resp.status == 200 {
            let got = msd_gateway::wire::decode_tensor(&resp.body).unwrap();
            let want = oracle.predict(&store, &inputs[i]);
            assert_eq!(got.shape(), want.shape(), "request {i}: shape");
            for (j, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "request {i} element {j}: chaos corrupted a survivor"
                );
            }
        }
    }
    let set = gw.registry().current_set("m").unwrap();
    for (r, st) in set.stats().iter().enumerate() {
        assert!(st.ledger_balanced(), "replica {r} ledger: {st:?}");
    }
    gw.shutdown();
}

#[test]
fn routing_respects_the_deterministic_failover_order_under_an_open_breaker() {
    // End-to-end flavor of the router property tests: with replica 0's
    // breaker open, every key must land exactly on the first non-0 entry of
    // its route_order — the same answer a fresh gateway with the same
    // breaker state would give.
    let sick = Arc::new(AtomicBool::new(false));
    let registry = Registry::with_policies(
        serve_cfg(),
        3,
        BreakerConfig {
            consecutive_errors: 1,
            cooldown: Duration::from_secs(60),
            ..BreakerConfig::default()
        },
        BrownoutConfig::default(),
        None,
    );
    registry
        .register("m", factory_with_sick_replica0(sick, Duration::ZERO), None)
        .unwrap();
    let set = registry.current_set("m").unwrap();
    set.health()[0].on_error();
    for i in 0..20u64 {
        let key = format!("key-{i}");
        let want = *route_order(key.as_bytes(), 3)
            .iter()
            .find(|&&r| r != 0)
            .unwrap();
        let ok = registry
            .predict("m", key.as_bytes(), sample(60 + i), None)
            .unwrap();
        assert_eq!(ok.replica, want, "key {key}");
    }
    registry.shutdown();
}
