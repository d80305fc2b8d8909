//! Serving throughput sweep: sequential per-sample `predict` versus the
//! `msd-serve` batched runtime across micro-batch caps and worker counts.
//!
//! Beyond the paper's tables: the paper evaluates accuracy only; this bench
//! quantifies what the inference runtime adds on the same model. Every
//! served response is byte-compared to the sequential reference before a
//! row is reported, so the throughput column can never hide a numerics
//! change.
//!
//! Run with `cargo bench -p msd-bench --bench extra_serve_throughput`.
//! Rows append to `target/BENCH_serve.json` (one JSON object per line).
//! `MSD_NUM_THREADS` is forced to 1 unless set, so the sweep isolates the
//! runtime's contribution (batching + workers) from intra-op threading.

use std::io::Write as _;
use std::time::Duration;

use msd_harness::ModelSpec;
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_serve::loadgen::{run_open_loop, sequential_baseline, BenchReport, LoadSpec};
use msd_serve::{ServeConfig, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn main() {
    if std::env::var("MSD_NUM_THREADS").is_err() {
        std::env::set_var("MSD_NUM_THREADS", "1");
    }
    let (channels, input_len, horizon) = (2usize, 96usize, 24usize);
    let requests = 384usize;
    let spec = ModelSpec::MsdMixer(Variant::Full);

    // Cargo runs bench executables with the *package* directory as CWD, so
    // resolve the workspace-root target/ explicitly.
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/BENCH_serve.json");
    let out_path = out_path.as_path();
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
        .expect("open target/BENCH_serve.json");

    println!("serve throughput: {} requests x {}", requests, spec.name());
    println!("{:>9} {:>7} {:>12} {:>10} {:>8} {:>9} {:>9}", "max_batch", "workers", "seq_rps", "served_rps", "speedup", "p50_ms", "p99_ms");

    for (max_batch, workers) in [(1usize, 1usize), (8, 4), (32, 4)] {
        // Fresh model + inputs per row so rows are independent runs.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(13);
        let model = spec.build(
            &mut store,
            &mut rng,
            channels,
            input_len,
            Task::Forecast { horizon },
            16,
        );
        let inputs: Vec<Tensor> = (0..requests)
            .map(|_| Tensor::randn(&[1, channels, input_len], 1.0, &mut rng))
            .collect();
        let (reference, sequential_rps) = sequential_baseline(&model, &store, &inputs);

        let server = Server::start(
            model,
            store,
            ServeConfig {
                max_batch,
                max_wait: Duration::from_micros(500),
                queue_cap: requests,
                workers,
                events_path: None,
                ..ServeConfig::default()
            },
        )
        .expect("start serve runtime");
        let outcome = run_open_loop(
            &server,
            &inputs,
            &LoadSpec {
                requests,
                rate_rps: 0.0,
                seed: 29,
                ..LoadSpec::default()
            },
        );
        let stats = server.shutdown();
        for (i, resp) in outcome.responses.iter().enumerate() {
            let y = resp.as_ref().expect("no request may be lost");
            let r = &reference[i];
            assert!(
                y.shape() == r.shape()
                    && y.data()
                        .iter()
                        .zip(r.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "served response {i} diverged from sequential predict"
            );
        }

        let report = BenchReport {
            model: spec.name().to_string(),
            requests,
            workers,
            max_batch,
            sequential_rps,
            served_rps: outcome.throughput_rps,
            mean_batch: stats.mean_batch,
            p50_us: stats.p50_us,
            p95_us: stats.p95_us,
            p99_us: stats.p99_us,
            rejected: stats.rejected,
            skew_mean_us: outcome.skew_mean_us,
            skew_max_us: outcome.skew_max_us,
            reanchors: outcome.reanchors,
        };
        writeln!(out, "{}", report.to_json()).expect("append BENCH_serve.json row");
        println!(
            "{:>9} {:>7} {:>12.1} {:>10.1} {:>7.2}x {:>9.2} {:>9.2}",
            max_batch,
            workers,
            report.sequential_rps,
            report.served_rps,
            report.speedup(),
            report.p50_us as f64 / 1e3,
            report.p99_us as f64 / 1e3,
        );
    }
    println!("rows appended to target/BENCH_serve.json");
}
