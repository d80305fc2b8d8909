//! Compiled-plan execution: the workers serve single-sample traffic through
//! a [`CompiledPlan`], and a model whose compile fails falls back to the
//! tape. Either way the responses must be bit-identical to sequential
//! `Model::predict` — the path taken may only move the `plan_batches`
//! counter.

use std::time::Duration;

use msd_autograd::{CompiledPlan, PlanError};
use msd_nn::{Ctx, Linear, Model, ModelOutput, ParamStore, Task};
use msd_serve::loadgen::sequential_baseline;
use msd_serve::{ServeConfig, ServeStats, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// A linear forecaster over the flattened input (plan-compilable: reshape
/// alias + one linear step).
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
        let v = ctx.g.input(x.reshape(&[b, self.in_len]));
        let y = self.lin.forward(ctx, v);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, self.out_channels, 4]))
    }
}

/// [`Affine`] whose plan compile always fails, so every batch takes the
/// per-shape tape fallback.
struct Uncompilable(Affine);

impl Model for Uncompilable {
    fn name(&self) -> &str {
        "uncompilable"
    }
    fn task(&self) -> &Task {
        self.0.task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        self.0.forward(ctx, x)
    }
    fn compile_plan(&self, _: &ParamStore, _: &[usize]) -> Result<CompiledPlan, PlanError> {
        Err(PlanError::UnsupportedOp("uncompilable"))
    }
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

/// Serve `inputs` through a fresh server (an [`Uncompilable`] model when
/// `compiles` is false), assert bit-identity against `reference`, and
/// return the final stats snapshot.
fn serve_and_check(compiles: bool, inputs: &[Tensor], reference: &[Tensor], what: &str) -> ServeStats {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 6);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(500),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = if compiles {
        Server::start(model, store, cfg)
    } else {
        Server::start(Uncompilable(model), store, cfg)
    }
    .unwrap();
    let pending: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(x.clone()).expect("queue has room"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let y = p.wait().expect("request must succeed");
        assert_bits_equal(&y, &reference[i], &format!("{what} req {i}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, inputs.len() as u64, "{what}: completed");
    assert_eq!(stats.failed + stats.rejected, 0, "{what}: failures");
    stats
}

#[test]
fn plan_mode_knobs_only_move_the_plan_batches_counter() {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, 2, 6);
    let inputs: Vec<Tensor> = (0..48)
        .map(|i| {
            let mut rng = Rng::seed_from(300 + i);
            Tensor::randn(&[1, 2, 6], 1.0, &mut rng)
        })
        .collect();
    let (reference, _) = sequential_baseline(&model, &store, &inputs);

    // Default: every batch is single-sample-packable, the model compiles, so
    // every batch must run through the plan path.
    let stats = serve_and_check(true, &inputs, &reference, "plans-on");
    assert_eq!(
        stats.plan_batches, stats.batches,
        "uniform [1, C, L] traffic through a compilable model must plan every batch"
    );
    assert!(stats.plan_batches > 0);

    // A failed compile serves every batch through the tape fallback.
    let stats = serve_and_check(false, &inputs, &reference, "compile-fails");
    assert_eq!(stats.plan_batches, 0, "a failed compile must never plan");
}
