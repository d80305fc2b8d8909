//! `stream_drift`: back-to-back episodes of the seeded drift scenario, each
//! through a fresh `StreamEngine` in its shipped smoke configuration.
//!
//! An episode warms up, base-trains, scores windows one at a time through a
//! low-latency server (coalescing off), detects one drift, warm-retrains and
//! hot-swaps. It is the only workload that trains, and the only one that
//! serves with coalescing off, so a batcher change that helps
//! `gateway_fleet` must not cost here.
//!
//! The engine serves the smoke configuration's DLinear. With MSD-Mixer in
//! its place, the reconstruction error of most scenario seeds never crosses
//! the drift threshold (23 of seeds 0..30), so episodes would not retrain.
//!
//! The engine builds its own model, so the per-layer view of serving and
//! training comes from replays outside it: each recorded adaptation is
//! re-run through `fit_monitored` with a wrapped model, and the windows it
//! trained on are scored again through a low-latency server with the same
//! configuration the engine uses.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use msd_harness::{fit_monitored, AnyModel, TrainMonitor};
use msd_nn::{ArtifactReader, ArtifactWriter, ParamStore, PrecisionTier, Task};
use msd_serve::{ServeConfig, Server};
use msd_stream::{
    install_checkpoint, BufferSource, DriftScenario, RetrainParams, ScenarioConfig, StreamConfig,
    StreamEngine, SwapRecord,
};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::json::Json;
use crate::stats::{bits_equal, fnv1a, median_f64, percentile, self_time};
use crate::trace::{Span, Traced, Tracer};
use crate::{
    batch_spans, eval_layers, request_spans, wait_us, Outcome, PassNumbers, ReqSpan, RunArgs,
};

/// Samples per episode.
const EPISODE: u64 = 3_600;
/// Percentile of the episodes that the gated latency and throughput are
/// read at: the least disturbed 1 %.
const LOW_PCT: u64 = 1;
/// Traced episodes whose adaptations are replayed for the per-layer view.
const REPLAY_EPISODES: usize = 2;

/// Where checkpoints of this process go, inside the checkout.
fn checkpoint_dir() -> PathBuf {
    PathBuf::from("e2ebench/out").join(format!("stream-{}", std::process::id()))
}

fn stream_config(dir: &Path) -> StreamConfig {
    StreamConfig::smoke(dir.to_path_buf())
}

/// What the benchmark keeps of one finished episode; the engine's full
/// report is dropped so memory does not grow with the episodes run.
struct Episode {
    setup_s: f64,
    score_p50_ns: u64,
    score_p99_ns: u64,
    ingest_p50_ns: u64,
    predict_p50_us: u64,
    adapt_ms: f64,
    wall_s: f64,
    samples: u64,
    windows: u64,
    drifts: usize,
    swaps: usize,
    lost: u64,
    digest: u64,
    /// Kept only for the episodes whose adaptations are replayed.
    records: Vec<SwapRecord>,
}

fn episode(
    scenario_seed: u64,
    dir: &Path,
    tracer: &Tracer,
    keep_records: bool,
) -> io::Result<Episode> {
    let t0 = Instant::now();
    let mut engine = StreamEngine::new(stream_config(dir))?;
    let mut scenario = DriftScenario::new(ScenarioConfig::smoke(scenario_seed));
    let (mut setup_s, mut scored_ns, mut ingest_ns, mut adapt_ms) = (0.0, vec![], vec![], vec![]);
    for _ in 0..EPISODE {
        let (sample, _) = scenario.next_sample();
        let swaps = engine.swaps();
        let start_ns = tracer.now_ns();
        let p0 = Instant::now();
        let scored = engine.push(&sample)?;
        let dur = p0.elapsed();
        let published = engine.swaps() > swaps;
        let name = match (published, scored.is_empty()) {
            (true, _) if swaps == 0 => {
                setup_s = t0.elapsed().as_secs_f64();
                "stream.base_train_push"
            }
            (true, _) => {
                adapt_ms.push(dur.as_secs_f64() * 1e3);
                "stream.adapt_push"
            }
            (false, false) => {
                scored_ns.push(dur.as_nanos() as u64);
                "stream.score_push"
            }
            (false, true) => {
                ingest_ns.push(dur.as_nanos() as u64);
                "stream.ingest_push"
            }
        };
        if tracer.is_on() && name != "stream.ingest_push" {
            tracer.record(Span {
                name,
                start_ns,
                end_ns: tracer.now_ns(),
                parent: 0,
                req: 0,
                rows: Vec::new(),
            });
        }
    }
    let report = engine.finish()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Episode {
        setup_s,
        score_p50_ns: percentile(&scored_ns, 50),
        score_p99_ns: percentile(&scored_ns, 99),
        ingest_p50_ns: percentile(&ingest_ns, 50),
        predict_p50_us: percentile(&report.latencies_us, 50),
        adapt_ms: median_f64(&adapt_ms),
        wall_s,
        samples: report.samples,
        windows: report.windows_scored,
        drifts: report.drifts,
        swaps: report.swaps,
        lost: report.lost_requests,
        digest: fnv1a(
            report
                .score_lines
                .iter()
                .flat_map(|l| l.bytes().chain([b'\n'])),
        ),
        records: if keep_records {
            report.swap_records
        } else {
            Vec::new()
        },
    })
}

/// A pass of whole episodes lasting at least the pass length.
struct Pass {
    episodes: Vec<Episode>,
}

fn measure(
    args: &RunArgs,
    first_episode: u64,
    dir: &Path,
    tracer: &Tracer,
    keep: usize,
) -> io::Result<Pass> {
    let t0 = Instant::now();
    let mut episodes = Vec::new();
    let mut k = first_episode;
    while t0.elapsed() < args.pass_len() || episodes.is_empty() {
        let seed = scenario_seed(args.seed, k);
        episodes.push(episode(
            seed,
            &dir.join(format!("ep{k}")),
            tracer,
            episodes.len() < keep,
        )?);
        k += 1;
    }
    Ok(Pass { episodes })
}

fn scenario_seed(seed: u64, episode: u64) -> u64 {
    seed.wrapping_mul(100_000).wrapping_add(episode)
}

/// Builds the served architecture as the engine's factory does.
fn build(cfg: &StreamConfig) -> (AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(cfg.init_seed);
    let model = cfg.spec.build(
        &mut store,
        &mut rng,
        cfg.channels,
        cfg.window,
        Task::Reconstruct,
        cfg.d_model,
    );
    (model, store)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let dir = checkpoint_dir();

    // The first episode runs once before timing; the timed pass replays it
    // and must reproduce its score log byte for byte.
    let warm = episode(
        scenario_seed(args.seed, 0),
        &dir.join("warm"),
        &tracer,
        false,
    )?;
    let untraced = measure(args, 0, &dir, &tracer, 0)?;
    out.check(
        "stream_drift.score_log_replays",
        untraced.episodes[0].digest == warm.digest,
        || {
            format!(
                "episode 0 digest {:016x} then {:016x}",
                warm.digest, untraced.episodes[0].digest
            )
        },
    );
    let traced = if args.trace {
        tracer.set_on(true);
        let p = measure(
            args,
            untraced.episodes.len() as u64,
            &dir,
            &tracer,
            REPLAY_EPISODES,
        )?;
        tracer.set_on(false);
        Some(p)
    } else {
        None
    };

    // Scoring pushes are thread hand-offs. The host moves the share of
    // episodes whose pushes take near 13 µs rather than near 21 µs from run
    // to run, and any mean or median over episodes follows that share (see
    // METRICS.md). The gated figures come from the least disturbed
    // episodes instead: latency is the 1st percentile of the episodes'
    // medians, throughput an episode's samples over the 1st percentile of
    // their wall times. The whole-pass figures are printed beside them.
    let numbers = |pass: &Pass| {
        let eps = &pass.episodes;
        let mean =
            |f: &dyn Fn(&Episode) -> f64| eps.iter().map(f).sum::<f64>() / eps.len().max(1) as f64;
        let low = |f: &dyn Fn(&Episode) -> u64| {
            percentile(&eps.iter().map(f).collect::<Vec<_>>(), LOW_PCT) as f64
        };
        PassNumbers {
            p50_us: low(&|e| e.score_p50_ns) / 1e3,
            p99_us: mean(&|e| e.score_p99_ns as f64 / 1e3),
            capacity_per_s: EPISODE as f64 / (low(&|e| (e.wall_s * 1e9) as u64) / 1e9),
        }
    };
    let setups: Vec<f64> = untraced.episodes.iter().map(|e| e.setup_s).collect();
    out.report_passes(
        median_f64(&setups),
        numbers(&untraced),
        traced.as_ref().map(numbers),
    );
    for (label, pass) in
        std::iter::once(("", &untraced)).chain(traced.iter().map(|p| ("traced.", p)))
    {
        let eps = &pass.episodes;
        let windows: u64 = eps.iter().map(|e| e.windows).sum();
        let lost: u64 = eps.iter().map(|e| e.lost).sum();
        let adapt: Vec<f64> = eps.iter().map(|e| e.adapt_ms).collect();
        let n = eps.len().max(1) as f64;
        out.extra(
            &format!("{label}pass.p50_us_mean"),
            "us",
            eps.iter().map(|e| e.score_p50_ns as f64 / 1e3).sum::<f64>() / n,
        );
        out.extra(
            &format!("{label}pass.samples_per_s"),
            "1/s",
            eps.iter().map(|e| e.samples as f64).sum::<f64>()
                / eps.iter().map(|e| e.wall_s).sum::<f64>(),
        );
        out.extra(&format!("{label}adapt_ms"), "ms", median_f64(&adapt));
        out.extra(
            &format!("{label}failed_share"),
            "fraction",
            lost as f64 / windows.max(1) as f64,
        );
        out.extra(&format!("{label}episodes"), "count", eps.len() as f64);
        out.attempted += windows;
        out.failed += lost;
        let bad: Vec<String> = eps
            .iter()
            .enumerate()
            .filter(|(_, e)| e.drifts != 1 || e.swaps != 2 || e.lost != 0)
            .map(|(k, e)| {
                format!(
                    "episode {k}: {} drifts, {} swaps, {} lost",
                    e.drifts, e.swaps, e.lost
                )
            })
            .collect();
        out.check(
            &format!("stream_drift.{label}one_drift_two_swaps_none_lost"),
            bad.is_empty(),
            || bad.join("; "),
        );
        let digest = fnv1a(eps.iter().flat_map(|e| e.digest.to_le_bytes()));
        out.extra(
            &format!("{label}score_log_digest_lo32"),
            "hash",
            (digest & 0xffff_ffff) as f64,
        );
    }

    if let Some(pass) = &traced {
        let push_spans = tracer.take_spans();
        let eps = &pass.episodes;
        let per = |f: &dyn Fn(&Episode) -> f64| median_f64(&eps.iter().map(f).collect::<Vec<_>>());
        out.extra(
            "stream.ingest_us",
            "us",
            per(&|e| e.ingest_p50_ns as f64 / 1e3),
        );
        out.extra("stream.predict_us", "us", per(&|e| e.predict_p50_us as f64));
        out.extra(
            "stream.windows",
            "count",
            eps.iter().map(|e| e.windows).sum::<u64>() as f64,
        );
        out.extra(
            "stream.drifts",
            "count",
            eps.iter().map(|e| e.drifts).sum::<usize>() as f64,
        );
        out.extra(
            "stream.swaps",
            "count",
            eps.iter().map(|e| e.swaps).sum::<usize>() as f64,
        );
        let records: Vec<&SwapRecord> = eps.iter().flat_map(|e| e.records.iter()).collect();
        replay_fits(&mut out, &records, &dir, &tracer)?;
        replay_scoring(&mut out, &records, &tracer)?;
        out.spans.extend(push_spans);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.e2e("rss_mb", "MiB", crate::peak_rss_mb());
    Ok(out)
}

/// Re-runs each recorded fine-tune with a wrapped model: the trainer's
/// batch times come from an in-memory monitor, forward and loss from the
/// wrapper's spans, and the artifact must match the one the engine
/// published.
fn replay_fits(
    out: &mut Outcome,
    records: &[&SwapRecord],
    dir: &Path,
    tracer: &Arc<Tracer>,
) -> io::Result<()> {
    let params = RetrainParams::smoke();
    let cfg = stream_config(dir);
    let (mut fit_ms, mut batch_ms, mut forward_ms, mut backward_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut encode_ms, mut decode_ms) = (vec![], vec![]);
    let mut mismatched = 0;
    for (k, rec) in records.iter().enumerate() {
        let replay_dir = dir.join(format!("replay{k}"));
        install_checkpoint(&replay_dir, &rec.checkpoint)?;
        let (inner, mut store) = build(&cfg);
        let model = AnyModel::Baseline(Box::new(Traced::new(inner, Arc::clone(tracer))));
        let source = BufferSource::new(
            rec.buffer.clone(),
            params.corrupt_ratio,
            params.corrupt_seed,
        );
        let mut monitor = TrainMonitor::in_memory();
        tracer.set_on(true);
        let t0 = Instant::now();
        let report = fit_monitored(
            &model,
            &mut store,
            &source,
            None,
            &params.train_config(&replay_dir),
            &mut monitor,
        );
        fit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.set_on(false);
        let spans = tracer.take_spans();
        let _ = std::fs::remove_dir_all(&replay_dir);
        let t0 = Instant::now();
        let artifact = ArtifactWriter::new(PrecisionTier::F32).encode(&store)?;
        encode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        ArtifactReader::decode(&artifact)?.load_into(&mut store)?;
        decode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if report.resumed_from.is_none() || artifact != rec.artifact {
            mismatched += 1;
        }
        // One forward and one loss per applied batch, in order.
        let walls: Vec<f64> = monitor
            .lines()
            .iter()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|e| e.get("event").and_then(Json::str) == Some("batch"))
            .filter_map(|e| e.get("wall_ms").and_then(Json::num))
            .collect();
        let fwd: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "autograd.forward")
            .collect();
        let loss: Vec<&Span> = spans.iter().filter(|s| s.name == "autograd.loss").collect();
        // A batch's span starts at its forward and lasts its reported wall
        // time; its self time, outside forward and loss, is backward plus
        // the optimiser step.
        for ((wall, f), l) in walls.iter().zip(&fwd).zip(&loss) {
            let wall_ns = (wall * 1e6) as u64;
            let own = self_time(
                f.start_ns,
                f.start_ns + wall_ns,
                &[(f.start_ns, f.end_ns), (l.start_ns, l.end_ns)],
            );
            batch_ms.push(*wall);
            forward_ms.push((f.dur_ns() + l.dur_ns()) as f64 / 1e6);
            backward_ms.push(own as f64 / 1e6);
        }
    }
    out.check(
        "stream_drift.fit_replays_match_published_artifacts",
        mismatched == 0,
        || {
            format!(
                "{mismatched} of {} replayed fine-tunes differ",
                records.len()
            )
        },
    );
    out.extra("harness.fit_ms", "ms", median_f64(&fit_ms));
    out.extra("harness.batch_ms", "ms", median_f64(&batch_ms));
    out.extra("autograd.forward_ms", "ms", median_f64(&forward_ms));
    out.extra("autograd.backward_optim_ms", "ms", median_f64(&backward_ms));
    out.extra("nn.artifact_encode_ms", "ms", median_f64(&encode_ms));
    out.extra("nn.artifact_decode_ms", "ms", median_f64(&decode_ms));
    Ok(())
}

/// Scores each recorded training buffer again, one window at a time,
/// through a low-latency server holding the published artifact and a
/// wrapped model; every answer must equal sequential `predict`. The engine
/// builds its server's configuration itself, so its own batches cannot be
/// traced: the serve and eval layers of this workload are these replays'.
fn replay_scoring(
    out: &mut Outcome,
    records: &[&SwapRecord],
    tracer: &Arc<Tracer>,
) -> io::Result<()> {
    let cfg = stream_config(Path::new("."));
    let (c, l) = (cfg.channels, cfg.window);
    let compiles_from = tracer.compiles().len();
    let (mut reqs, mut batches, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let mut submit_ns = Vec::new();
    let mut sojourn = Vec::new();
    let mut mismatched = 0usize;
    let mut next_id = 0u32;
    let mut wall_ns = 0u64;
    for rec in records {
        let (plain, mut plain_store) = build(&cfg);
        msd_nn::store::decode(&mut plain_store, &rec.artifact)?;
        let (inner, mut store) = build(&cfg);
        msd_nn::store::decode(&mut store, &rec.artifact)?;
        let windows: Vec<Tensor> = rec
            .buffer
            .data()
            .chunks(c * l)
            .map(|w| Tensor::from_vec(&[1, c, l], w.to_vec()))
            .collect();
        let expect: Vec<Tensor> = windows
            .iter()
            .map(|x| plain.predict(&plain_store, x))
            .collect();
        tracer.register_inputs(next_id, &windows);
        let events_path = crate::events_path("stream_drift")?;
        tracer.set_on(true);
        let t0 = tracer.now_ns();
        let server = Server::start(
            Traced::new(inner, Arc::clone(tracer)),
            store,
            ServeConfig {
                events_path: Some(events_path.clone()),
                ..ServeConfig::low_latency()
            },
        )?;
        for (i, x) in windows.iter().enumerate() {
            let s0 = Instant::now();
            let pending = server.submit(x.clone());
            let s1 = Instant::now();
            let answer = pending.map(|p| p.wait());
            let done = Instant::now();
            submit_ns.push((s1 - s0).as_nanos() as u64);
            match answer {
                Ok(Ok(y)) if bits_equal(y.data(), expect[i].data()) => {}
                _ => mismatched += 1,
            }
            reqs.push(ReqSpan {
                id: u64::from(next_id) + i as u64 + 1,
                input: next_id + i as u32,
                start_ns: tracer.ns_at(s0),
                end_ns: tracer.ns_at(done),
            });
        }
        sojourn.push(server.stats().p50_us as f64);
        server.shutdown();
        wall_ns += tracer.now_ns() - t0;
        tracer.set_on(false);
        batches.extend(batch_spans(&tracer.take_spans()));
        events.extend(
            crate::take_batch_events(&events_path)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        );
        next_id += windows.len() as u32;
    }
    out.check(
        "stream_drift.replayed_scores_match_predict",
        mismatched == 0,
        || format!("{mismatched} replayed windows differ from predict"),
    );
    crate::check_events_cover(
        out,
        "stream_drift.batch_telemetry_covers_requests",
        &events,
        &batches,
        0,
    );
    eval_layers(
        out,
        &batches,
        &events,
        wall_ns,
        &tracer.compiles()[compiles_from..],
    );
    out.layer(
        "serve.wait_us",
        "us",
        percentile(&wait_us(&reqs, &batches), 50) as f64,
    );
    out.layer("serve.sojourn_p50_us", "us", median_f64(&sojourn));
    out.extra(
        "serve.submit_us",
        "us",
        percentile(&submit_ns, 50) as f64 / 1e3,
    );
    out.spans
        .extend(request_spans("serve.request", &reqs, &batches));
    Ok(())
}
