//! Quantized-tier benchmark: artifact bytes per model and per-sample serve
//! latency, f32 versus the quantized tiers, for every task-general zoo
//! model.
//!
//! Two gates keep the numbers honest:
//!
//! * **bit-identity** — every served response at every tier is
//!   byte-compared against that tier's sequential reference (predict for
//!   f32/f16, a lowered plan for int8); a latency number can never be
//!   bought with wrong answers;
//! * **compression floors** — the f32/f16 and f32/int8 artifact size
//!   ratios must clear `--min-f16-ratio` (default 1.9) and
//!   `--min-int8-ratio` (default 3.5).
//!
//! One JSON row per model is appended to `--out` (default
//! `target/BENCH_quant.json`, the CI artifact) and echoed to stdout:
//! artifact bytes and ratios per tier, plus the serve runtime's p50/p99
//! per-sample latency per tier (requests submitted one at a time, so the
//! latency is per sample, not per batch).

use std::io::Write as _;
use std::time::Duration;

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{ArtifactReader, ArtifactWriter, Model, ParamStore, PrecisionTier, Task};
use msd_serve::{ServeConfig, ServeStats, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

// The serve-bench problem size (96 → 24, d_model 16): big enough that
// per-tensor container overhead (names, dims, per-channel scales) amortizes
// and the compression ratios reflect the element encodings.
const CHANNELS: usize = 2;
const INPUT_LEN: usize = 96;
const HORIZON: usize = 24;
const D_MODEL: usize = 16;

fn usage() -> ! {
    eprintln!(
        "usage: msd-quant-bench [options]\n\
           --requests <n>        per-sample requests per model and tier (default 64)\n\
           --min-f16-ratio <f>   fail unless f32_bytes/f16_bytes >= f (default 1.9)\n\
           --min-int8-ratio <f>  fail unless f32_bytes/int8_bytes >= f (default 3.5)\n\
           --out <path>          JSONL report sink (default target/BENCH_quant.json)"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// Builds the spec's forecaster with noise-perturbed weights (fresh zoo
/// models zero-initialize their output heads, which would quantize to an
/// all-zero — and trivially fast — model).
fn build_perturbed(spec: &ModelSpec) -> (msd_harness::AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(37);
    let model = spec.build(
        &mut store,
        &mut rng,
        CHANNELS,
        INPUT_LEN,
        Task::Forecast { horizon: HORIZON },
        D_MODEL,
    );
    let mut noise_rng = Rng::seed_from(101);
    for id in 0..store.len() {
        let shape = store.get(id).shape().to_vec();
        let noise = Tensor::randn(&shape, 0.05, &mut noise_rng);
        for (v, n) in store.get_mut(id).data_mut().iter_mut().zip(noise.data()) {
            *v += n;
        }
    }
    (model, store)
}

/// Serves `inputs` one at a time at `tier` and returns the runtime's stats,
/// byte-checking every response against the tier's sequential reference.
fn serve_tier(
    spec: &ModelSpec,
    bytes: &[u8],
    tier: PrecisionTier,
    inputs: &[Tensor],
) -> ServeStats {
    let (model, mut store) = build_perturbed(spec);
    ArtifactReader::decode(bytes)
        .and_then(|r| r.load_into(&mut store))
        .expect("artifact round-trips");
    assert_eq!(store.tier(), tier);

    // Sequential references through the same numeric path serving uses.
    let mut arena = PlanArena::new();
    let references: Vec<Tensor> = inputs
        .iter()
        .map(|x| match tier {
            PrecisionTier::Int8 => {
                let mut plan = model.compile_plan(&store, x.shape()).expect("compile");
                assert!(plan.lower_int8(&store) > 0, "{}: nothing lowered", spec.name());
                model.predict_plan(&plan, &store, x, &mut arena)
            }
            _ => model.predict(&store, x),
        })
        .collect();

    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 16,
            workers: 1,
            events_path: None,
            ..ServeConfig::default()
        },
    )
    .expect("start serve runtime");
    for (i, x) in inputs.iter().enumerate() {
        let y = server
            .submit(x.clone())
            .expect("submit")
            .wait()
            .expect("serve answer");
        let r = &references[i];
        let same = y.shape() == r.shape()
            && y.data()
                .iter()
                .zip(r.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{} {tier}: served response {i} diverged from the sequential reference",
            spec.name()
        );
    }
    server.shutdown()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = 64usize;
    let mut min_f16_ratio = 1.9f64;
    let mut min_int8_ratio = 3.5f64;
    let mut out = String::from("target/BENCH_quant.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => requests = parse(it.next()),
            "--min-f16-ratio" => min_f16_ratio = parse(it.next()),
            "--min-int8-ratio" => min_int8_ratio = parse(it.next()),
            "--out" => out = parse(it.next()),
            _ => usage(),
        }
    }
    // Single-threaded kernels: per-sample latency, not a thread-pool fight.
    if std::env::var("MSD_NUM_THREADS").is_err() {
        std::env::set_var("MSD_NUM_THREADS", "1");
    }

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut report = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .expect("open --out report file");

    let mut exit_code = 0;
    for spec in &ModelSpec::TASK_GENERAL {
        let (_, store) = build_perturbed(spec);
        let params: usize = (0..store.len()).map(|id| store.get(id).data().len()).sum();
        let encoded: Vec<(PrecisionTier, Vec<u8>)> =
            [PrecisionTier::F32, PrecisionTier::F16, PrecisionTier::Int8]
                .into_iter()
                .map(|t| {
                    let bytes = ArtifactWriter::new(t)
                        .encode(&store)
                        .expect("perturbed weights are finite");
                    (t, bytes)
                })
                .collect();
        let f32b = encoded[0].1.len() as f64;
        let f16_ratio = f32b / encoded[1].1.len() as f64;
        let int8_ratio = f32b / encoded[2].1.len() as f64;

        let mut rng = Rng::seed_from(7_000);
        let inputs: Vec<Tensor> = (0..requests)
            .map(|_| Tensor::randn(&[1, CHANNELS, INPUT_LEN], 1.0, &mut rng))
            .collect();
        let stats: Vec<ServeStats> = encoded
            .iter()
            .map(|(t, bytes)| serve_tier(spec, bytes, *t, &inputs))
            .collect();

        let mut row = format!(
            "{{\"kind\":\"quant\",\"model\":\"{}\",\"params\":{params},\"requests\":{requests}",
            spec.name()
        );
        for ((tier, bytes), st) in encoded.iter().zip(&stats) {
            row.push_str(&format!(
                ",\"{t}_bytes\":{},\"{t}_p50_us\":{},\"{t}_p99_us\":{}",
                bytes.len(),
                st.p50_us,
                st.p99_us,
                t = tier
            ));
        }
        row.push_str(&format!(
            ",\"f16_ratio\":{f16_ratio:.3},\"int8_ratio\":{int8_ratio:.3}}}"
        ));
        println!("{row}");
        writeln!(report, "{row}").expect("append report line");
        eprintln!(
            "{:<12} {params:>6} params  f16 {:.2}x  int8 {:.2}x  p50 f32={}us f16={}us int8={}us",
            spec.name(),
            f16_ratio,
            int8_ratio,
            stats[0].p50_us,
            stats[1].p50_us,
            stats[2].p50_us
        );
        if f16_ratio < min_f16_ratio {
            eprintln!(
                "FAIL {}: f16 ratio {f16_ratio:.3} below floor {min_f16_ratio}",
                spec.name()
            );
            exit_code = 1;
        }
        if int8_ratio < min_int8_ratio {
            eprintln!(
                "FAIL {}: int8 ratio {int8_ratio:.3} below floor {min_int8_ratio}",
                spec.name()
            );
            exit_code = 1;
        }
    }
    std::process::exit(exit_code);
}
