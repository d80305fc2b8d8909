//! `serve_mixer`: MSD-Mixer behind an in-process `msd_serve::Server`, one
//! thread submitting and one collecting.
//!
//! This workload is bound by compute and its batches fill, so kernels,
//! compiled plans and batching show here while the gateway does no work.

use std::path::PathBuf;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_harness::{AnyModel, ModelSpec};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_serve::{Pending, ServeConfig, ServeError, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::pace::{poisson_schedule, sleep_until};
use crate::stats::{bits_equal, median_f64, percentile, SplitMix};
use crate::trace::{Traced, Tracer};
use crate::{
    batch_spans, eval_layers, request_spans, wait_us, Outcome, PassNumbers, ReqSpan, RunArgs,
    Windows,
};

/// Channels, window and horizon of the served model (as `msd-serve-bench`).
const C: usize = 2;
const L: usize = 96;
const H: usize = 24;
/// Open-loop arrival rate. Depth-64 capacity on two shared cores ranged
/// from 10.7k/s on a quiet host to 4.3k/s while neighbours took a third of
/// the CPU; 1500/s stays near a third of the low end, where latency still
/// measures service rather than a queue collapsing.
const RATE_RPS: f64 = 1500.0;
/// Requests kept outstanding in the closed-loop phase.
const DEPTH: usize = 64;
/// Distinct inputs; each is answered by a reference computed once.
const POOL: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Bursts tried per batch size while warming plan shapes.
const WARM_TRIES: usize = 4;
/// A pass is a run of slices, each an open-loop half and a closed-loop
/// half. The gated latency and capacity come from the pass's least
/// disturbed windows ([`Windows`]).
const SLICE: Duration = Duration::from_secs(4);
/// How long the collector blocks on the oldest request before sweeping the
/// others, so answers that arrive out of order are stamped within this.
/// Each answer records how late its stamp may be (`Done::lag`), and every
/// run reports the most that can have added to the median latency.
const SWEEP: Duration = Duration::from_micros(100);

fn build() -> (AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(13);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        C,
        L,
        Task::Forecast { horizon: H },
        16,
    );
    (model, store)
}

/// One submitted request on its way to the collector.
struct Sub {
    id: u64,
    input: u32,
    due: Instant,
    submit0: Instant,
    submit1: Instant,
    pending: Pending,
    /// Last time the collector found it unanswered.
    seen: Instant,
}

/// One answered request.
#[derive(Clone, Copy)]
struct Done {
    id: u64,
    input: u32,
    due: Instant,
    submit0: Instant,
    submit1: Instant,
    done: Instant,
    /// How much earlier than `done` the answer may have arrived: 0 when the
    /// collector was blocked on it, else the time since it was last seen
    /// unanswered.
    lag: Duration,
    ok: bool,
}

/// Receives submissions and stamps each answer as it arrives, in any
/// order; checks it against the reference; returns a token per answer
/// (the closed loop's credit).
fn collect(
    rx: Receiver<Sub>,
    tokens: Option<SyncSender<()>>,
    reference: &[Tensor],
) -> (Vec<Done>, Vec<String>) {
    let mut outstanding: Vec<Sub> = Vec::new();
    let mut done = Vec::new();
    let mut errors = Vec::new();
    let mut open = true;
    let mut finish = |s: Sub,
                      r: Result<Tensor, ServeError>,
                      at: Instant,
                      lag: Duration,
                      done: &mut Vec<Done>| {
        let ok = match r {
            Ok(y) if bits_equal(y.data(), reference[s.input as usize].data()) => true,
            Ok(_) => {
                errors.push(format!(
                    "request {} (input {}) differs from predict",
                    s.id, s.input
                ));
                false
            }
            Err(e) => {
                errors.push(format!("request {} failed: {e}", s.id));
                false
            }
        };
        done.push(Done {
            id: s.id,
            input: s.input,
            due: s.due,
            submit0: s.submit0,
            submit1: s.submit1,
            done: at,
            lag,
            ok,
        });
        if let Some(t) = &tokens {
            let _ = t.send(());
        }
    };
    while open || !outstanding.is_empty() {
        if outstanding.is_empty() {
            match rx.recv() {
                Ok(s) => outstanding.push(s),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(s) => outstanding.push(s),
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if let Some(r) = outstanding[0].pending.wait_timeout(SWEEP) {
            let s = outstanding.remove(0);
            finish(s, r, Instant::now(), Duration::ZERO, &mut done);
        }
        let mut i = 0;
        while i < outstanding.len() {
            let now = Instant::now();
            match outstanding[i].pending.try_wait() {
                Some(r) => {
                    let s = outstanding.remove(i);
                    let lag = now - s.seen;
                    finish(s, r, now, lag, &mut done);
                }
                None => {
                    outstanding[i].seen = now;
                    i += 1;
                }
            }
        }
    }
    (done, errors)
}

/// Submits `x` as request `id`; a refused submit is answered at once.
fn submit(
    server: &Server,
    tx: &Sender<Sub>,
    refused: &mut u64,
    id: u64,
    input: u32,
    x: &Tensor,
    due: Instant,
) -> bool {
    let submit0 = Instant::now();
    match server.submit(x.clone()) {
        Ok(pending) => {
            let submit1 = Instant::now();
            tx.send(Sub {
                id,
                input,
                due,
                submit0,
                submit1,
                pending,
                seen: submit0,
            })
            .expect("collector alive");
            true
        }
        Err(_) => {
            *refused += 1;
            false
        }
    }
}

/// One measured pass: slices of open loop, then closed loop.
struct Pass {
    open: Vec<Done>,
    /// Per slice: median open-loop latency (ns) and closed-loop answers
    /// per second.
    slices: Vec<(f64, f64)>,
    windows: Windows,
    attempted: u64,
    refused: u64,
    errors: Vec<String>,
    wall_ns: u64,
}

fn measure(
    server: &Server,
    inputs: &[Tensor],
    reference: &[Tensor],
    seed: u64,
    len: Duration,
    first_id: u64,
) -> Pass {
    let begin = Instant::now();
    let mut pass = Pass {
        open: Vec::new(),
        slices: Vec::new(),
        windows: Windows::default(),
        attempted: 0,
        refused: 0,
        errors: Vec::new(),
        wall_ns: 0,
    };
    let mut id = first_id;
    let slices = (len.as_secs_f64() / SLICE.as_secs_f64()).floor().max(1.0) as u64;
    for k in 0..slices {
        // Open loop.
        let offsets = poisson_schedule(seed.wrapping_add(k), RATE_RPS, SLICE / 2);
        let (tx, rx) = channel::<Sub>();
        let start = Instant::now() + Duration::from_millis(1);
        let (open, errors) = std::thread::scope(|s| {
            let collector = s.spawn(|| collect(rx, None, reference));
            for off in &offsets {
                let due = start + *off;
                sleep_until(due);
                let input = (id % POOL as u64) as u32;
                submit(
                    server,
                    &tx,
                    &mut pass.refused,
                    id,
                    input,
                    &inputs[input as usize],
                    due,
                );
                id += 1;
            }
            drop(tx);
            collector.join().expect("collector panicked")
        });
        pass.errors.extend(errors);
        let lat: Vec<u64> = open
            .iter()
            .filter(|d| d.ok)
            .map(|d| d.done.saturating_duration_since(d.due).as_nanos() as u64)
            .collect();
        let p50 = percentile(&lat, 50) as f64;
        pass.windows.add_open(
            start,
            open.iter().filter(|d| d.ok).map(|d| {
                (
                    d.due,
                    d.done.saturating_duration_since(d.due).as_nanos() as u64,
                )
            }),
        );
        pass.open.extend(open);
        // Closed loop: a new request for every answer, DEPTH outstanding.
        let (tx, rx) = channel::<Sub>();
        let (tok_tx, tok_rx) = sync_channel::<()>(DEPTH);
        let begin = Instant::now();
        let deadline = begin + SLICE / 2;
        let (closed, errors) = std::thread::scope(|s| {
            let collector = s.spawn(|| collect(rx, Some(tok_tx), reference));
            let mut credit = DEPTH;
            while Instant::now() < deadline {
                while tok_rx.try_recv().is_ok() {
                    credit += 1;
                }
                if credit == 0 {
                    if tok_rx.recv().is_err() {
                        break;
                    }
                    credit += 1;
                }
                let input = (id % POOL as u64) as u32;
                if submit(
                    server,
                    &tx,
                    &mut pass.refused,
                    id,
                    input,
                    &inputs[input as usize],
                    Instant::now(),
                ) {
                    credit -= 1;
                }
                id += 1;
            }
            drop(tx);
            collector.join().expect("collector panicked")
        });
        pass.errors.extend(errors);
        let in_time = closed.iter().filter(|d| d.ok && d.done <= deadline).count();
        pass.windows.add_closed(
            begin,
            SLICE / 2,
            closed.iter().filter(|d| d.ok).map(|d| d.done),
        );
        pass.slices
            .push((p50, in_time as f64 / (SLICE / 2).as_secs_f64()));
    }
    pass.attempted = id - first_id;
    pass.wall_ns = begin.elapsed().as_nanos() as u64;
    pass
}

/// What one set-up left behind.
struct SetUp {
    server: Server,
    secs: f64,
    /// Warm-up requests sent.
    warm: u64,
    /// Warm-up answers that differ from `predict`.
    wrong: usize,
}

/// Starts a server and warms every plan shape `[b, C, L]`, `b` up to
/// `max_batch`, by sending bursts of `b` until that shape has compiled.
/// `events`, if given, is where the server writes its telemetry.
fn set_up(
    tracer: &Arc<Tracer>,
    inputs: &[Tensor],
    reference: &[Tensor],
    events: Option<PathBuf>,
) -> SetUp {
    let t0 = Instant::now();
    let (model, store) = build();
    let cfg = ServeConfig {
        events_path: events,
        ..ServeConfig::default()
    };
    let max_batch = cfg.max_batch;
    let server =
        Server::start(Traced::new(model, Arc::clone(tracer)), store, cfg).expect("start server");
    let seen = tracer.compiles().len();
    let (mut warm, mut wrong) = (0, 0);
    for b in 1..=max_batch {
        for _ in 0..WARM_TRIES {
            if tracer.compiles()[seen..]
                .iter()
                .any(|(shape, _)| shape[0] == b)
            {
                break;
            }
            let pending: Vec<_> = (0..b).map(|i| server.submit(inputs[i].clone())).collect();
            warm += b as u64;
            for (i, p) in pending.into_iter().enumerate() {
                match p.map(Pending::wait) {
                    Ok(Ok(y)) if bits_equal(y.data(), reference[i].data()) => {}
                    _ => wrong += 1,
                }
            }
        }
    }
    SetUp {
        server,
        secs: t0.elapsed().as_secs_f64(),
        warm,
        wrong,
    }
}

/// Shuts `server` down and checks its ledger balances.
fn shut_down(out: &mut Outcome, server: Server, label: &str) {
    let stats = server.shutdown();
    out.check(
        &format!("serve_mixer.{label}ledger_balances"),
        stats.ledger_balanced(),
        || format!("{stats:?}"),
    );
}

/// Open-loop latencies of correct answers, ns, as stamped and as early as
/// each answer may have arrived.
fn open_latencies(pass: &Pass) -> (Vec<u64>, Vec<u64>) {
    pass.open
        .iter()
        .filter(|d| d.ok)
        .map(|d| {
            let lat = d.done.saturating_duration_since(d.due);
            (
                lat.as_nanos() as u64,
                lat.saturating_sub(d.lag).as_nanos() as u64,
            )
        })
        .unzip()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut rng = SplitMix::new(args.seed.wrapping_mul(0x9e37).wrapping_add(1));
    let inputs: Vec<Tensor> = (0..POOL)
        .map(|_| Tensor::from_vec(&[1, C, L], (0..C * L).map(|_| rng.normal()).collect()))
        .collect();
    let reference: Vec<Tensor> = {
        let (model, store) = build();
        inputs.iter().map(|x| model.predict(&store, x)).collect()
    };
    tracer.register_inputs(0, &inputs);

    let mut setups = Vec::new();
    let mut live: Option<Server> = None;
    let mut warm_wrong = 0;
    for _ in 0..SETUPS {
        // One server at a time, so the peak resident set is one server's.
        if let Some(old) = live.take() {
            old.shutdown();
        }
        let up = set_up(&tracer, &inputs, &reference, None);
        setups.push(up.secs);
        warm_wrong += up.wrong;
        live = Some(up.server);
    }
    let server = live.expect("at least one set-up");
    let untraced = measure(&server, &inputs, &reference, args.seed, args.pass_len(), 1);
    shut_down(&mut out, server, "");

    // The traced pass runs on a server of its own, which writes its batch
    // telemetry; the untraced pass's server writes none.
    let mut traced = None;
    if args.trace {
        let events = crate::events_path("serve_mixer").expect("create e2ebench/out");
        let compiles_from = tracer.compiles().len();
        let up = set_up(&tracer, &inputs, &reference, Some(events.clone()));
        warm_wrong += up.wrong;
        tracer.set_on(true);
        let pass = measure(
            &up.server,
            &inputs,
            &reference,
            args.seed ^ 0x5eed,
            args.pass_len(),
            1 + untraced.attempted,
        );
        tracer.set_on(false);
        let sojourn = up.server.stats().p50_us as f64;
        shut_down(&mut out, up.server, "traced.");
        traced = Some(pass);
        let pass = traced.as_ref().expect("just set");
        let batches = batch_spans(&tracer.take_spans());
        match crate::take_batch_events(&events) {
            Ok(all) => {
                crate::check_events_cover(
                    &mut out,
                    "serve_mixer.batch_telemetry_covers_requests",
                    &all,
                    &batches,
                    up.warm,
                );
                eval_layers(
                    &mut out,
                    &batches,
                    crate::skip_rows(&all, up.warm),
                    pass.wall_ns,
                    &tracer.compiles()[compiles_from..],
                );
            }
            Err(e) => out.check("serve_mixer.batch_telemetry_parses", false, || e),
        }
        let reqs: Vec<ReqSpan> = pass
            .open
            .iter()
            .map(|d| ReqSpan {
                id: d.id,
                input: d.input,
                start_ns: tracer.ns_at(d.submit0),
                end_ns: tracer.ns_at(d.done),
            })
            .collect();
        out.layer(
            "serve.wait_us",
            "us",
            percentile(&wait_us(&reqs, &batches), 50) as f64,
        );
        out.layer("serve.sojourn_p50_us", "us", sojourn);
        let submit_ns: Vec<u64> = pass
            .open
            .iter()
            .map(|d| (d.submit1 - d.submit0).as_nanos() as u64)
            .collect();
        out.extra(
            "serve.submit_us",
            "us",
            percentile(&submit_ns, 50) as f64 / 1e3,
        );
        out.spans = request_spans("serve.request", &reqs, &batches);
    }
    out.check("serve_mixer.warmup_answers", warm_wrong == 0, || {
        format!("{warm_wrong} warm-up answers differ from predict")
    });

    let numbers = |pass: &Pass| PassNumbers {
        p50_us: pass.windows.p50_us(),
        p99_us: percentile(&open_latencies(pass).0, 99) as f64 / 1e3,
        capacity_per_s: pass.windows.capacity_per_s(),
    };
    out.report_passes(
        median_f64(&setups),
        numbers(&untraced),
        traced.as_ref().map(numbers),
    );
    for (label, pass) in
        std::iter::once(("", &untraced)).chain(traced.iter().map(|p| ("traced.", p)))
    {
        // Medians over whole slices, beside the gated figures.
        let p50s: Vec<f64> = pass.slices.iter().map(|s| s.0 / 1e3).collect();
        let caps: Vec<f64> = pass.slices.iter().map(|s| s.1).collect();
        out.extra(&format!("{label}pass.p50_us"), "us", median_f64(&p50s));
        out.extra(
            &format!("{label}pass.capacity_per_s"),
            "1/s",
            median_f64(&caps),
        );
        let failed = pass.refused + pass.errors.len() as u64;
        out.attempted += pass.attempted;
        out.failed += failed;
        out.extra(
            &format!("{label}failed_share"),
            "fraction",
            failed as f64 / pass.attempted.max(1) as f64,
        );
        let lateness: Vec<u64> = pass
            .open
            .iter()
            .map(|d| d.submit0.saturating_duration_since(d.due).as_nanos() as u64)
            .collect();
        out.extra(
            &format!("{label}loadgen.lateness_us"),
            "us",
            percentile(&lateness, 50) as f64 / 1e3,
        );
        // The most the collector's sweep can have raised the pass's median:
        // the median as stamped minus the median had every answer arrived
        // as early as it may have.
        let (stamped, earliest) = open_latencies(pass);
        out.extra(
            &format!("{label}loadgen.stamp_bias_bound_us"),
            "us",
            (percentile(&stamped, 50) as f64 - percentile(&earliest, 50) as f64) / 1e3,
        );
        out.extra(
            &format!("{label}loadgen.swept_share"),
            "fraction",
            pass.open.iter().filter(|d| !d.lag.is_zero()).count() as f64
                / pass.open.len().max(1) as f64,
        );
        out.check(
            &format!("serve_mixer.{label}answers_match_predict"),
            pass.errors.is_empty(),
            || {
                format!(
                    "{} answers differ, first: {}",
                    pass.errors.len(),
                    pass.errors[0]
                )
            },
        );
    }
    out.e2e("rss_mb", "MiB", crate::peak_rss_mb());
    out
}
