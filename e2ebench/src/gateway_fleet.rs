//! `gateway_fleet`: the demo fleet behind an in-process gateway, driven
//! over two keep-alive HTTP connections.
//!
//! Model compute is a few percent of a request here and batches hold one
//! request, so this workload isolates the HTTP, wire and registry edge, the
//! serve-thread hand-offs, the coalescing wait, and swaps running beside
//! reads. Kernel changes should not move it.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_gateway::http::{Client, Request as HttpRequest};
use msd_gateway::{handle_request, wire, Gateway, GatewayConfig, ModelFactory, Registry};
use msd_harness::gwdemo::{DemoModel, DEMO_MODELS};
use msd_nn::{DynModel, PrecisionTier};
use msd_serve::ServeConfig;
use msd_tensor::Tensor;

use crate::json::Json;
use crate::pace::{drive_paced, poisson_schedule, Timing};
use crate::stats::{bits_equal, median_f64, percentile, SplitMix};
use crate::trace::{Traced, Tracer};
use crate::{
    batch_spans, eval_layers, request_spans, Outcome, PassNumbers, ReqSpan, RunArgs, Windows,
};

/// Open-loop arrival rate across both connections.
const RATE_RPS: f64 = 800.0;
/// Client connections (and load threads).
const CONNECTIONS: usize = 2;
/// Distinct inputs per model; responses are checked against a reference
/// computed once per input and parameter version.
const POOL: usize = 256;
/// A pass is a run of slices, each an open-loop half with one hot-swap and
/// a closed-loop half. The gated latency and capacity come from the pass's
/// least disturbed windows ([`Windows`]).
const SLICE: Duration = Duration::from_secs(4);
/// Warm-up requests per model during set-up.
const WARMUP: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// In-process `handle_request` calls timed in the traced run.
const HANDLE_CALLS: usize = 2000;
/// Standalone `Registry::swap` calls timed in the traced run.
const REGISTRY_SWAPS: usize = 8;

/// One demo model with its inputs, request frames and expected answers.
struct Fleet {
    demo: &'static DemoModel,
    predict_path: String,
    swap_path: String,
    inputs: Vec<Tensor>,
    bodies: Vec<Vec<u8>>,
    /// Expected response frames per parameter set (v1, v2) and input.
    expect: [Vec<Vec<u8>>; 2],
    /// f32 artifacts of v1 and v2.
    params: [Vec<u8>; 2],
}

impl Fleet {
    fn new(demo: &'static DemoModel, seed: u64) -> Fleet {
        let mut rng = SplitMix::new(seed);
        let shape = [1, demo.channels, demo.input_len];
        let inputs: Vec<Tensor> = (0..POOL)
            .map(|_| {
                let n = demo.channels * demo.input_len;
                Tensor::from_vec(&shape, (0..n).map(|_| rng.normal()).collect())
            })
            .collect();
        let expect = [demo.seed_v1, demo.seed_v2].map(|seed| {
            let (model, store) = demo.build(seed);
            inputs
                .iter()
                .map(|x| wire::encode_tensor(&model.predict(&store, x)))
                .collect()
        });
        Fleet {
            demo,
            predict_path: format!("/v1/models/{}/predict", demo.name),
            swap_path: format!("/v1/models/{}/swap", demo.name),
            bodies: inputs.iter().map(wire::encode_tensor).collect(),
            inputs,
            expect,
            params: [1, 2].map(|v| demo.params(v, PrecisionTier::F32)),
        }
    }

    /// Parameter set (0 = v1, 1 = v2) a registry version serves: versions
    /// alternate v1, v2, v1, ... because every swap flips the set.
    fn set_of(version: u32) -> usize {
        (version.max(1) as usize - 1) % 2
    }
}

/// The gateway as `msd-gateway --demo` configures it.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        serve: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_cap: 256,
            workers: 2,
            ..ServeConfig::default()
        },
        replicas: 2,
        ..GatewayConfig::default()
    }
}

fn traced_factory(demo: &'static DemoModel, tracer: &Arc<Tracer>) -> ModelFactory {
    let tracer = Arc::clone(tracer);
    Box::new(move || {
        let (model, store) = demo.build(demo.seed_v1);
        (
            Box::new(Traced::new(model, Arc::clone(&tracer))) as DynModel,
            store,
        )
    })
}

/// Result of one predict over HTTP.
enum Answer {
    /// 200 whose body matches the reference for the version it names.
    Correct,
    /// 200 whose body does not.
    Mismatch(String),
    /// Any other status.
    Refused,
}

fn predict(client: &mut Client, f: &Fleet, input: usize, key: &str) -> io::Result<Answer> {
    let headers = [("X-Msd-Key", key), ("Content-Type", wire::CONTENT_TYPE)];
    let resp = client.request("POST", &f.predict_path, &headers, &f.bodies[input])?;
    if resp.status != 200 {
        return Ok(Answer::Refused);
    }
    let version: u32 = resp
        .header("x-msd-model-version")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok(if resp.body == f.expect[Fleet::set_of(version)][input] {
        Answer::Correct
    } else {
        Answer::Mismatch(format!("{} input {input} version {version}", f.demo.name))
    })
}

/// Counts of one measured pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    non_200: u64,
    lost: u64,
    mismatched: Vec<String>,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.non_200 + self.lost + self.mismatched.len() as u64
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.non_200 += o.non_200;
        self.lost += o.lost;
        self.mismatched.extend(o.mismatched);
    }

    /// Sends one request and tallies it; reconnects after a transport error.
    fn send(
        &mut self,
        client: &mut Client,
        addr: &str,
        f: &Fleet,
        input: usize,
        key: &str,
    ) -> bool {
        self.attempted += 1;
        match predict(client, f, input, key) {
            Ok(Answer::Correct) => true,
            Ok(Answer::Mismatch(what)) => {
                self.mismatched.push(what);
                false
            }
            Ok(Answer::Refused) => {
                self.non_200 += 1;
                false
            }
            Err(_) => {
                self.lost += 1;
                if let Ok(c) = Client::connect(addr) {
                    *client = c;
                }
                false
            }
        }
    }
}

/// Request `i` of a pass: model, input and routing key.
fn route(i: usize) -> (usize, usize, String) {
    ((i / 2) % 2, (i / 4) % POOL, format!("k{}", i % 61))
}

/// One slice of a pass: the open-loop timings and the closed-loop count.
struct Slice {
    timings: Vec<Timing>,
    closed_done: u64,
}

/// One measured pass: slices of open loop with a swap, then closed loop.
struct Pass {
    slices: Vec<Slice>,
    windows: Windows,
    swap_ms: Vec<f64>,
    tally: Tally,
    swap_errors: Vec<String>,
    wall_ns: u64,
}

impl Pass {
    fn timings(&self) -> impl Iterator<Item = &Timing> {
        self.slices.iter().flat_map(|s| s.timings.iter())
    }
}

/// Swaps `f`'s model to the parameter set its current `version` does not
/// serve, and checks the reply names the next version. Records the round
/// trip in `pass.0` and any failure in `pass.1`.
fn swap(
    client: &mut Client,
    addr: &str,
    f: &Fleet,
    version: &mut u32,
    pass: &mut (Vec<f64>, Vec<String>),
) {
    let t0 = Instant::now();
    let reply = client.request(
        "POST",
        &f.swap_path,
        &[("X-Msd-Tier", "f32")],
        &f.params[*version as usize % 2],
    );
    pass.0.push(t0.elapsed().as_secs_f64() * 1e3);
    let got = reply.ok().filter(|r| r.status == 200).and_then(|r| {
        let v = Json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
        v.get("version")?.num()
    });
    if got == Some(f64::from(*version + 1)) {
        *version += 1;
    } else {
        pass.1
            .push(format!("swap of {} answered {got:?}", f.demo.name));
        *client = Client::connect(addr).expect("reconnect to gateway");
    }
}

fn measure(
    addr: &str,
    fleets: &[Fleet],
    versions: &mut [u32; 2],
    seed: u64,
    len: Duration,
) -> Pass {
    let begin = Instant::now();
    // A new connection waits for the gateway's accept loop, which polls
    // every 25 ms; one untimed request per connection absorbs that wait.
    let mut warm = Tally::default();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|c| {
            let mut client = Client::connect(addr).expect("connect to gateway");
            warm.send(&mut client, addr, &fleets[c % 2], c, "warm");
            client
        })
        .collect();
    let mut pass = Pass {
        slices: Vec::new(),
        windows: Windows::default(),
        swap_ms: Vec::new(),
        tally: warm,
        swap_errors: Vec::new(),
        wall_ns: 0,
    };
    let slices = (len.as_secs_f64() / SLICE.as_secs_f64()).floor().max(1.0) as u64;
    for k in 0..slices {
        // Open loop: arrival i goes to connection i % CONNECTIONS; halfway
        // through, connection 0 also swaps one model (alternating) between
        // its v1 and v2 parameters.
        let offsets = poisson_schedule(seed.wrapping_add(k), RATE_RPS, SLICE / 2);
        let start = Instant::now() + Duration::from_millis(1);
        let swap_at = start + SLICE / 4;
        let m_swap = k as usize % 2;
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let offsets = &offsets;
                    let mut version = versions[m_swap];
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut swaps = (Vec::new(), Vec::new());
                        let mut swapped = c != 0;
                        let timings = drive_paced(
                            start,
                            offsets,
                            (c..offsets.len()).step_by(CONNECTIONS),
                            |i| {
                                if !swapped && Instant::now() >= swap_at {
                                    swap(client, addr, &fleets[m_swap], &mut version, &mut swaps);
                                    swapped = true;
                                }
                                let (m, input, key) = route(i);
                                let sent = Instant::now();
                                (sent, tally.send(client, addr, &fleets[m], input, &key))
                            },
                        );
                        (timings, tally, swaps, version)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let mut timings: Vec<Timing> = Vec::new();
        for (c, (t, tally, (ms, errors), version)) in results.into_iter().enumerate() {
            timings.extend(t);
            pass.tally.merge(tally);
            pass.swap_ms.extend(ms);
            pass.swap_errors.extend(errors);
            if c == 0 {
                versions[m_swap] = version;
            }
        }
        pass.windows.add_open(
            start,
            timings
                .iter()
                .filter(|t| t.ok)
                .map(|t| (t.due, t.latency_ns())),
        );
        // Closed loop: each connection sends its next request when the
        // previous one is answered.
        let begin = Instant::now();
        let deadline = begin + SLICE / 2;
        let results: Vec<(Vec<Instant>, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut done = Vec::new();
                        let mut i = c;
                        while Instant::now() < deadline {
                            let (m, input, key) = route(i);
                            if tally.send(client, addr, &fleets[m], input, &key) {
                                done.push(Instant::now());
                            }
                            i += CONNECTIONS;
                        }
                        (done, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let mut done = Vec::new();
        for (d, tally) in results {
            done.extend(d);
            pass.tally.merge(tally);
        }
        let closed_done = done.iter().filter(|&&at| at <= deadline).count() as u64;
        pass.windows.add_closed(begin, SLICE / 2, done);
        pass.slices.push(Slice {
            timings,
            closed_done,
        });
    }
    pass.wall_ns = begin.elapsed().as_nanos() as u64;
    pass
}

/// What one set-up left behind.
struct SetUp {
    gw: Gateway,
    addr: String,
    /// Bind, registration and warm-up, without the accept wait.
    secs: f64,
    /// Round trip of the first request on the set-up's connection, which
    /// waits for the gateway's accept loop to take the connection.
    accept_ms: f64,
    /// Warm-up requests that failed.
    failed: u64,
}

/// Binds a gateway, registers the fleet and sends warm-up requests over one
/// connection. The accept loop polls every 25 ms, so a `GET /healthz`,
/// which touches no model, first waits for it to take the connection;
/// that wait is reported apart from the set-up time. `events`, if given, is
/// where every replica server writes its telemetry.
fn set_up(fleets: &[Fleet], tracer: &Arc<Tracer>, events: Option<PathBuf>) -> SetUp {
    let t0 = Instant::now();
    let mut cfg = gateway_config();
    cfg.serve.events_path = events;
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind gateway");
    for f in fleets {
        gw.registry()
            .register_tiered(
                f.demo.name,
                traced_factory(f.demo, tracer),
                Some(&f.params[0]),
                Some(PrecisionTier::F32),
            )
            .expect("register demo model");
    }
    let addr = gw.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect to gateway");
    let registered = t0.elapsed();
    let a0 = Instant::now();
    let probe = client.request("GET", "/healthz", &[], &[]);
    let accept = a0.elapsed();
    let mut tally = Tally::default();
    if !probe.is_ok_and(|r| r.status == 200) {
        tally.non_200 += 1;
    }
    let w0 = Instant::now();
    for f in fleets {
        for j in 0..WARMUP {
            tally.send(&mut client, &addr, f, j % POOL, &format!("w{j}"));
        }
    }
    SetUp {
        gw,
        addr,
        secs: (registered + w0.elapsed()).as_secs_f64(),
        accept_ms: accept.as_secs_f64() * 1e3,
        failed: tally.failed(),
    }
}

/// Per-replica counters from `/stats`, parsed.
struct Replica {
    balanced: bool,
    breaker: String,
    p50_us: f64,
    completed: f64,
}

fn replicas(addr: &str) -> Result<Vec<Replica>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let resp = client
        .request("GET", "/stats", &[], &[])
        .map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text)?;
    let mut out = Vec::new();
    for model in doc.get("models").ok_or("no models array")?.arr() {
        for r in model.get("replicas").ok_or("no replicas array")?.arr() {
            let n = |k: &str| {
                r.get(k)
                    .and_then(Json::num)
                    .ok_or(format!("replica has no {k}"))
            };
            out.push(Replica {
                balanced: n("completed")? + n("failed")? + n("rejected")? + n("expired")?
                    == n("submitted")?,
                breaker: r
                    .get("breaker")
                    .and_then(Json::str)
                    .unwrap_or("?")
                    .to_string(),
                p50_us: n("p50_us")?,
                completed: n("completed")?,
            });
        }
    }
    Ok(out)
}

/// Checks that every replica ledger in the gateway's `/stats` balances and
/// returns the replicas.
fn check_ledgers(out: &mut Outcome, addr: &str, label: &str) -> Vec<Replica> {
    match replicas(addr) {
        Ok(reps) => {
            let unbalanced = reps.iter().filter(|r| !r.balanced).count();
            out.check(
                &format!("gateway_fleet.{label}replica_ledgers_balance"),
                unbalanced == 0,
                || {
                    format!(
                        "{unbalanced} of {} replica ledgers in /stats do not balance",
                        reps.len()
                    )
                },
            );
            reps
        }
        Err(e) => {
            out.check(&format!("gateway_fleet.{label}stats_parse"), false, || e);
            Vec::new()
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let fleets: Vec<Fleet> = DEMO_MODELS
        .iter()
        .enumerate()
        .map(|(m, demo)| Fleet::new(demo, args.seed.wrapping_mul(31).wrapping_add(m as u64)))
        .collect();
    for (m, f) in fleets.iter().enumerate() {
        tracer.register_inputs((m * POOL) as u32, &f.inputs);
    }

    let (mut setups, mut accept_ms) = (Vec::new(), Vec::new());
    let mut live: Option<SetUp> = None;
    let mut warm_failed = 0;
    for _ in 0..SETUPS {
        // One gateway at a time, so the peak resident set is one gateway's.
        if let Some(old) = live.take() {
            old.gw.shutdown();
        }
        let up = set_up(&fleets, &tracer, None);
        setups.push(up.secs);
        accept_ms.push(up.accept_ms);
        warm_failed += up.failed;
        live = Some(up);
    }
    let SetUp { gw, addr, .. } = live.expect("at least one set-up");
    let untraced = measure(&addr, &fleets, &mut [1; 2], args.seed, args.pass_len());
    check_ledgers(&mut out, &addr, "");
    if args.trace {
        in_process_layers(&mut out, gw.registry(), &fleets);
    }
    gw.shutdown();

    // The traced pass runs on a gateway of its own, whose replica servers
    // write their batch telemetry; the untraced pass's gateway writes none.
    let mut traced = None;
    if args.trace {
        let events = crate::events_path("gateway_fleet").expect("create e2ebench/out");
        let compiles_from = tracer.compiles().len();
        let up = set_up(&fleets, &tracer, Some(events.clone()));
        warm_failed += up.failed;
        tracer.set_on(true);
        let pass = measure(
            &up.addr,
            &fleets,
            &mut [1; 2],
            args.seed ^ 0x5eed,
            args.pass_len(),
        );
        tracer.set_on(false);
        let reps = check_ledgers(&mut out, &up.addr, "traced.");
        up.gw.shutdown();
        let batches = batch_spans(&tracer.take_spans());
        let compiles = &tracer.compiles()[compiles_from..];
        // Four replica servers share the file, so the warm-up's batches
        // cannot be told from the pass's: they stay in, under 1 % of the
        // batches of a traced pass.
        match crate::take_batch_events(&events) {
            Ok(all) => {
                crate::check_events_cover(
                    &mut out,
                    "gateway_fleet.batch_telemetry_covers_requests",
                    &all,
                    &batches,
                    (fleets.len() * WARMUP) as u64,
                );
                eval_layers(&mut out, &batches, &all, pass.wall_ns, compiles);
            }
            Err(e) => out.check("gateway_fleet.batch_telemetry_parses", false, || e),
        }
        let done: f64 = reps.iter().map(|r| r.completed).sum();
        let sojourn = reps.iter().map(|r| r.p50_us * r.completed).sum::<f64>() / done.max(1.0);
        let eval_us = out
            .layers
            .iter()
            .find(|m| m.name == "nn.eval_us")
            .map_or(0.0, |m| m.value);
        out.layer("serve.wait_us", "us", sojourn - eval_us);
        out.layer("serve.sojourn_p50_us", "us", sojourn);
        let rtt: Vec<u64> = pass
            .timings()
            .filter(|t| t.ok)
            .map(Timing::rtt_ns)
            .collect();
        let rtt50 = percentile(&rtt, 50) as f64 / 1e3;
        out.extra("gateway.rtt_us", "us", rtt50);
        out.extra("gateway.edge_us", "us", rtt50 - sojourn);
        out.extra(
            "gateway.breaker_trips",
            "count",
            reps.iter().filter(|r| r.breaker != "closed").count() as f64,
        );
        let reqs: Vec<ReqSpan> = pass
            .timings()
            .enumerate()
            .map(|(n, t)| {
                let (m, input, _) = route(t.index);
                ReqSpan {
                    id: n as u64 + 1,
                    input: (m * POOL + input) as u32,
                    start_ns: tracer.ns_at(t.sent),
                    end_ns: tracer.ns_at(t.done),
                }
            })
            .collect();
        out.spans = request_spans("gateway.request", &reqs, &batches);
        traced = Some(pass);
    }
    out.check("gateway_fleet.warmup_answers", warm_failed == 0, || {
        format!("{warm_failed} warm-up requests failed")
    });

    let ok_ns = |ts: &mut dyn Iterator<Item = &Timing>| -> Vec<u64> {
        ts.filter(|t| t.ok).map(Timing::latency_ns).collect()
    };
    let numbers = |pass: &Pass| PassNumbers {
        p50_us: pass.windows.p50_us(),
        p99_us: percentile(&ok_ns(&mut pass.timings()), 99) as f64 / 1e3,
        capacity_per_s: pass.windows.capacity_per_s(),
    };
    out.report_passes(
        median_f64(&setups),
        numbers(&untraced),
        traced.as_ref().map(numbers),
    );
    out.extra("gateway.accept_wait_ms", "ms", median_f64(&accept_ms));
    for (label, pass) in
        std::iter::once(("", &untraced)).chain(traced.iter().map(|p| ("traced.", p)))
    {
        out.extra(&format!("{label}swap_ms"), "ms", median_f64(&pass.swap_ms));
        // Medians over whole slices, beside the gated figures.
        let p50s: Vec<f64> = pass
            .slices
            .iter()
            .map(|s| percentile(&ok_ns(&mut s.timings.iter()), 50) as f64 / 1e3)
            .collect();
        let caps: Vec<f64> = pass
            .slices
            .iter()
            .map(|s| s.closed_done as f64 / (SLICE / 2).as_secs_f64())
            .collect();
        out.extra(&format!("{label}pass.p50_us"), "us", median_f64(&p50s));
        out.extra(
            &format!("{label}pass.capacity_per_s"),
            "1/s",
            median_f64(&caps),
        );
        out.extra(
            &format!("{label}failed_share"),
            "fraction",
            pass.tally.failed() as f64 / pass.tally.attempted.max(1) as f64,
        );
        let lateness: Vec<u64> = pass.timings().map(Timing::lateness_ns).collect();
        out.extra(
            &format!("{label}loadgen.lateness_us"),
            "us",
            percentile(&lateness, 50) as f64 / 1e3,
        );
        out.attempted += pass.tally.attempted;
        out.failed += pass.tally.failed();
        let t = &pass.tally;
        out.check(
            &format!("gateway_fleet.{label}bodies_match_reference"),
            t.mismatched.is_empty(),
            || {
                format!(
                    "{} mismatched responses, first: {}",
                    t.mismatched.len(),
                    t.mismatched[0]
                )
            },
        );
        out.check(
            &format!("gateway_fleet.{label}no_lost_requests"),
            t.lost == 0,
            || format!("{} requests got no response", t.lost),
        );
        out.check(
            &format!("gateway_fleet.{label}swaps_publish"),
            pass.swap_errors.is_empty(),
            || pass.swap_errors.join("; "),
        );
    }
    out.e2e("rss_mb", "MiB", crate::peak_rss_mb());
    if traced.is_some() {
        out.extra(
            "gateway.registry_swap_ms",
            "ms",
            registry_swap_ms(&fleets[0]),
        );
    }
    out
}

/// Edge layers timed in-process on the workload's own bodies:
/// `handle_request`, and the wire frame's decode and encode.
fn in_process_layers(out: &mut Outcome, registry: &Registry, fleets: &[Fleet]) {
    let mut handle_ns = Vec::with_capacity(HANDLE_CALLS);
    let mut mismatched = 0usize;
    for i in 0..HANDLE_CALLS {
        let (m, input, key) = route(i);
        let f = &fleets[m];
        let req = HttpRequest {
            method: "POST".into(),
            path: f.predict_path.clone(),
            headers: vec![("x-msd-key".into(), key)],
            body: f.bodies[input].clone(),
        };
        let t0 = Instant::now();
        let resp = handle_request(registry, &req);
        handle_ns.push(t0.elapsed().as_nanos() as u64);
        let version = resp
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("x-msd-model-version"))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        if resp.status != 200 || resp.body != f.expect[Fleet::set_of(version)][input] {
            mismatched += 1;
        }
    }
    out.check(
        "gateway_fleet.handle_request_matches_reference",
        mismatched == 0,
        || format!("{mismatched} of {HANDLE_CALLS} in-process answers differ"),
    );
    out.extra(
        "gateway.handle_us",
        "us",
        percentile(&handle_ns, 50) as f64 / 1e3,
    );

    let (mut dec, mut enc) = (Vec::new(), Vec::new());
    let mut roundtrip_ok = true;
    for f in fleets {
        for (body, x) in f.bodies.iter().zip(&f.inputs) {
            let t0 = Instant::now();
            let decoded = wire::decode_tensor(body);
            dec.push(t0.elapsed().as_nanos() as u64);
            roundtrip_ok &= decoded.is_ok_and(|d| bits_equal(d.data(), x.data()));
            let t0 = Instant::now();
            let encoded = wire::encode_tensor(x);
            enc.push(t0.elapsed().as_nanos() as u64);
            roundtrip_ok &= &encoded == body;
        }
    }
    out.check("gateway_fleet.wire_roundtrip", roundtrip_ok, || {
        "a frame did not round-trip".into()
    });
    out.extra("wire.decode_us", "us", percentile(&dec, 50) as f64 / 1e3);
    out.extra("wire.encode_us", "us", percentile(&enc, 50) as f64 / 1e3);
}

/// Median `Registry::swap` time on a standalone registry serving `f`.
fn registry_swap_ms(f: &Fleet) -> f64 {
    let registry = Registry::new(gateway_config().serve, 2);
    let demo = f.demo;
    let factory: ModelFactory = Box::new(move || {
        let (model, store) = demo.build(demo.seed_v1);
        (Box::new(model) as DynModel, store)
    });
    registry
        .register(demo.name, factory, Some(&f.params[0]))
        .expect("register");
    let ms: Vec<f64> = (0..REGISTRY_SWAPS)
        .map(|k| {
            let t0 = Instant::now();
            registry
                .swap(demo.name, &f.params[(k + 1) % 2])
                .expect("swap");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    registry.shutdown();
    median_f64(&ms)
}
