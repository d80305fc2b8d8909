//! Command-line entry point for running any experiment family outside the
//! bench harness.
//!
//! Each family builds its own `TrainConfig`s in code. The checkpoint flags
//! (`--checkpoint-dir`, `--checkpoint-every`, `--resume`, `--kill-after`,
//! `--save-params`) configure the single fit `ckpt-smoke` runs; every other
//! family rejects them, since it runs many fits that must not share one
//! checkpoint directory.
//!
//! ```sh
//! cargo run --release -p msd-harness --bin msd-experiment -- long-term
//! MSD_SCALE=smoke cargo run --release -p msd-harness --bin msd-experiment -- all
//! ```

use msd_harness::experiments::{
    ablation, anomaly, case_study, classification, imputation, long_term, short_term,
};
use msd_harness::{Scale, TrainConfig};

fn usage() -> ! {
    eprintln!(
        "usage: msd-experiment <family> [options]\n\
         families: long-term | short-term | imputation | anomaly |\n\
                   classification | ablation | case-study | smoke |\n\
                   ckpt-smoke | plan-dump | all\n\
         options:\n\
           --telemetry <path>       write JSONL training telemetry (= MSD_TELEMETRY)\n\
         ckpt-smoke options (other families reject them):\n\
           --checkpoint-dir <dir>   durable crash-safe checkpoints\n\
           --checkpoint-every <n>   applied batches between checkpoints\n\
           --resume                 resume from the newest valid checkpoint\n\
           --kill-after <n>         fault injection: die after n applied batches\n\
           --save-params <path>     save final parameters for diffing\n\
         scale via MSD_SCALE=smoke|fast|full (default fast);\n\
         results cached under target/msd-results/;\n\
         'smoke' trains a tiny model (with one injected NaN batch) to\n\
         exercise the telemetry + recovery path in seconds;\n\
         'plan-dump' compiles each task-general model into an inference\n\
         plan and prints its ordered ops, fusions, and arena size;\n\
         'ckpt-smoke' trains a tiny deterministic forecaster for the\n\
         kill-and-resume bit-identity check"
    );
    std::process::exit(2)
}

/// Flags that only `ckpt-smoke` accepts.
const CKPT_FLAGS: [&str; 5] = [
    "--checkpoint-dir",
    "--checkpoint-every",
    "--resume",
    "--kill-after",
    "--save-params",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family: Option<String> = None;
    let mut save_params: Option<String> = None;
    // The checkpoint flags parse straight into the config ckpt-smoke
    // trains with.
    let mut ckpt = TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 5e-3,
        seed: 11,
        ..TrainConfig::default()
    };
    let mut ckpt_only_flag = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        ckpt_only_flag |= CKPT_FLAGS.contains(&arg.as_str());
        match arg.as_str() {
            "--telemetry" => match it.next() {
                // Telemetry is TrainMonitor config, not TrainConfig.
                Some(v) => std::env::set_var("MSD_TELEMETRY", v),
                None => usage(),
            },
            "--checkpoint-dir" => match it.next() {
                Some(v) => ckpt.checkpoint_dir = Some(v.into()),
                None => usage(),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => ckpt.checkpoint_every = v,
                None => usage(),
            },
            "--resume" => ckpt.resume = true,
            "--kill-after" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => ckpt.kill_after_batches = Some(v),
                None => usage(),
            },
            "--save-params" => match it.next() {
                Some(v) => save_params = Some(v.clone()),
                None => usage(),
            },
            f if !f.starts_with('-') && family.is_none() => family = Some(f.to_string()),
            _ => usage(),
        }
    }
    let family = family.unwrap_or_else(|| usage());
    if ckpt_only_flag && family != "ckpt-smoke" {
        usage();
    }
    let scale = Scale::from_env();
    eprintln!("running '{family}' at scale '{}'", scale.name());
    match family.as_str() {
        "long-term" => run_long_term(scale),
        "short-term" => run_short_term(scale),
        "imputation" => run_imputation(scale),
        "anomaly" => run_anomaly(scale),
        "classification" => run_classification(scale),
        "ablation" => run_ablation(scale),
        "case-study" => run_case_study(scale),
        "smoke" => run_smoke(),
        "ckpt-smoke" => run_ckpt_smoke(&ckpt, save_params.as_deref()),
        "plan-dump" => run_plan_dump(),
        "all" => {
            run_long_term(scale);
            run_short_term(scale);
            run_imputation(scale);
            run_anomaly(scale);
            run_classification(scale);
            run_ablation(scale);
            run_case_study(scale);
        }
        _ => usage(),
    }
}

/// A seconds-long end-to-end check of the training runtime: trains a tiny
/// DLinear forecaster on a synthetic sine with one NaN-poisoned batch
/// injected mid-run, so the emitted telemetry (honouring `MSD_TELEMETRY`
/// or `--telemetry`) demonstrates the full recovery path: non-finite
/// detection, rollback, optimiser reset, lr backoff, and a finished run.
fn run_smoke() {
    use msd_harness::{fit, BatchSource, ModelSpec};
    use msd_nn::{ParamStore, Task};
    use msd_tensor::{rng::Rng, Tensor};

    struct SmokeSource {
        calls: std::cell::Cell<usize>,
    }

    impl BatchSource for SmokeSource {
        fn len(&self) -> usize {
            128
        }

        fn batch(&self, indices: &[usize]) -> (msd_tensor::Tensor, msd_mixer::Target) {
            let n = indices.len();
            let call = self.calls.get();
            self.calls.set(call + 1);
            let mut x = Tensor::zeros(&[n, 1, 24]);
            let mut y = Tensor::zeros(&[n, 1, 8]);
            for (b, &i) in indices.iter().enumerate() {
                for t in 0..24 {
                    x.data_mut()[b * 24 + t] = ((i + t) as f32 / 4.0).sin();
                }
                for t in 0..8 {
                    y.data_mut()[b * 8 + t] = ((i + 24 + t) as f32 / 4.0).sin();
                }
            }
            if call == 5 {
                x.data_mut()[0] = f32::NAN;
            }
            (x, msd_mixer::Target::Series(y))
        }
    }

    let src = SmokeSource {
        calls: std::cell::Cell::new(0),
    };
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(7);
    let model = ModelSpec::DLinear.build(
        &mut store,
        &mut rng,
        1,
        24,
        Task::Forecast { horizon: 8 },
        8,
    );
    let report = fit(
        &model,
        &mut store,
        &src,
        None,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        },
    );
    println!(
        "smoke,epochs={},skipped={},rollbacks={},aborted={},final_loss={:.5}",
        report.epochs_run,
        report.skipped_batches,
        report.rollbacks,
        report.aborted.is_some(),
        report.train_losses.last().copied().unwrap_or(f32::NAN),
    );
    assert_eq!(report.skipped_batches, 1, "smoke run must hit the injected NaN");
    assert_eq!(report.rollbacks, 1, "smoke run must recover via rollback");
    assert!(report.aborted.is_none(), "smoke run must not abort");
    assert!(
        report.train_losses.last().unwrap().is_finite(),
        "smoke run diverged"
    );
}

/// Deterministic kill-and-resume smoke: trains a tiny mixer forecaster on
/// an *index-pure* sine source (batch content depends only on the sampled
/// indices, never on call order, so a resumed process sees exactly the
/// data an uninterrupted one would). `cfg` carries the checkpointing,
/// resume, and fault-injection flags; `--save-params` writes the final
/// parameters so the tier-1 gate can byte-compare runs.
fn run_ckpt_smoke(cfg: &TrainConfig, save_params: Option<&str>) {
    use msd_data::{SlidingWindows, Split};
    use msd_harness::{fit, ForecastSource, ModelSpec};
    use msd_mixer::variants::Variant;
    use msd_nn::{ParamStore, Task};
    use msd_tensor::{rng::Rng, Tensor};

    let data = Tensor::from_vec(
        &[1, 400],
        (0..400).map(|i| (i as f32 / 4.0).sin()).collect(),
    );
    let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
    let src = ForecastSource::new(windows, 48);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(9);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        1,
        24,
        Task::Forecast { horizon: 8 },
        4,
    );
    let report = fit(&model, &mut store, &src, None, cfg);
    println!(
        "ckpt-smoke,epochs={},batches={},aborted={},resumed={},final_loss={:.6}",
        report.epochs_run,
        report.telemetry.batches,
        report.aborted.is_some(),
        report.resumed_from.is_some(),
        report.train_losses.last().copied().unwrap_or(f32::NAN),
    );
    if let Some(path) = save_params {
        msd_nn::ArtifactWriter::new(msd_nn::PrecisionTier::F32)
            .save_file(&store, path)
            .expect("cannot save --save-params file");
    }
}

fn run_long_term(scale: Scale) {
    for r in long_term::results(scale) {
        println!(
            "long-term,{},{},{},{:.4},{:.4}",
            r.dataset, r.horizon, r.model, r.mse, r.mae
        );
    }
}

fn run_short_term(scale: Scale) {
    for r in short_term::results(scale) {
        println!(
            "short-term,{},{},{:.4},{:.4},{:.4}",
            r.subset, r.model, r.smape, r.mase, r.owa
        );
    }
}

fn run_imputation(scale: Scale) {
    for r in imputation::results(scale) {
        println!(
            "imputation,{},{},{},{:.4},{:.4}",
            r.dataset, r.ratio, r.model, r.mse, r.mae
        );
    }
}

fn run_anomaly(scale: Scale) {
    for r in anomaly::results(scale) {
        println!(
            "anomaly,{},{},{:.2},{:.2},{:.2}",
            r.dataset, r.model, r.precision, r.recall, r.f1
        );
    }
}

fn run_classification(scale: Scale) {
    for r in classification::results(scale) {
        println!("classification,{},{},{:.4}", r.dataset, r.model, r.accuracy);
    }
}

fn run_ablation(scale: Scale) {
    for r in ablation::results(scale) {
        println!(
            "ablation,{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.variant, r.long_mse, r.owa, r.imp_mse, r.f1, r.acc
        );
    }
}

fn run_case_study(scale: Scale) {
    for r in case_study::results(scale) {
        println!(
            "case-study,{},{:.5},{:.4},{:.4}",
            r.model, r.residual_energy, r.residual_acf_violation, r.explained_energy
        );
    }
}

/// Compiles every task-general model into an inference plan for a small
/// forecasting shape and dumps the plan: ordered kernel steps, fusion
/// decisions, and the solved arena size — first for the f32 store, then
/// re-loaded from an int8 artifact and lowered, so the dump shows the
/// artifact tier and each step's kernel precision (`[int8]` suffix).
/// Models whose forwards are not yet plan-compilable report the typed
/// compile error instead (they serve via the tape fallback).
fn run_plan_dump() {
    use msd_harness::ModelSpec;
    use msd_nn::{ArtifactReader, ArtifactWriter, Model, ParamStore, PrecisionTier, Task};
    use msd_tensor::rng::Rng;

    let (channels, input_len, horizon, d_model) = (2, 48, 12, 8);
    let task = Task::Forecast { horizon };
    for (i, spec) in ModelSpec::TASK_GENERAL.iter().enumerate() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0xD0 + i as u64);
        let model = spec.build(&mut store, &mut rng, channels, input_len, task.clone(), d_model);
        println!("== {} ([1, {channels}, {input_len}] -> horizon {horizon})", model.name());
        println!("-- artifact tier: {}", store.tier());
        let plan = match model.compile_plan(&store, &[1, channels, input_len]) {
            Ok(plan) => plan,
            Err(e) => {
                println!("  not plan-compilable: {e}");
                continue;
            }
        };
        print!("{}", plan.describe());

        // The same architecture served from an int8 artifact: quantize,
        // reload, and lower — the dump now tags each lowered step's kernel
        // precision.
        let bytes = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .expect("fresh weights are finite");
        let mut qstore = ParamStore::new();
        let mut rng = Rng::seed_from(0xD0 + i as u64);
        let _ = spec.build(&mut qstore, &mut rng, channels, input_len, task.clone(), d_model);
        ArtifactReader::decode(&bytes)
            .and_then(|r| r.load_into(&mut qstore))
            .expect("int8 round trip");
        match model.compile_plan(&qstore, &[1, channels, input_len]) {
            Ok(mut plan) => {
                let lowered = plan.lower_int8(&qstore);
                println!(
                    "-- artifact tier: {} ({lowered}/{} steps lowered)",
                    qstore.tier(),
                    plan.steps()
                );
                print!("{}", plan.describe());
            }
            Err(e) => println!("  int8 store not plan-compilable: {e}"),
        }
    }
}
