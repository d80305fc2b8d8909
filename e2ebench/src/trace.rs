//! Spans recorded from outside the program.
//!
//! The benchmark times layers in two ways: it wraps calls into public
//! functions itself, and it serves a [`Traced`] model that delegates every
//! [`Model`] method the runtime calls and records a span around each. Spans
//! stay in memory while the workload runs and are written out at the end.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use msd_autograd::{CompiledPlan, PlanArena, PlanError, Var};
use msd_nn::{Ctx, EvalScratch, Model, ModelOutput, ParamStore, Target, Task};
use msd_tensor::Tensor;

use crate::stats::digest_f32;

/// Row id of a packed input row the tracer does not know (compile probes).
pub const UNKNOWN_ROW: u32 = u32::MAX;

/// One timed interval. `parent` and `req` are 0 when absent; `rows` holds
/// the input ids a batch evaluation packed, in row order.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.eval_plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Id of the request span that caused this one.
    pub parent: u64,
    /// Request id this span belongs to.
    pub req: u64,
    /// Input ids of the rows a batch evaluation saw.
    pub rows: Vec<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store shared by the load generator and every [`Traced`]
/// model. Span recording is off until [`Tracer::set_on`]; plan compiles are
/// always counted, because set-up warms plan shapes by watching them.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    rows: RwLock<HashMap<u64, u32>>,
    compiles: Mutex<Vec<(Vec<usize>, u64)>>,
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            rows: RwLock::new(HashMap::new()),
            compiles: Mutex::new(Vec::new()),
        })
    }

    /// Turns span recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stores one span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Removes and returns every recorded span.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Lets batch evaluations name their rows: `inputs[i]` gets id
    /// `first_id + i`. Rows are matched by the digest of their bits.
    pub fn register_inputs(&self, first_id: u32, inputs: &[Tensor]) {
        let mut rows = self.rows.write().expect("row index poisoned");
        for (i, x) in inputs.iter().enumerate() {
            rows.insert(digest_f32(x.data()), first_id + i as u32);
        }
    }

    /// Ids of the rows (leading axis) of a packed `[B, ...]` input.
    fn row_ids(&self, x: &Tensor) -> Vec<u32> {
        let b = x.shape().first().copied().unwrap_or(1).max(1);
        let per = x.data().len() / b;
        let rows = self.rows.read().expect("row index poisoned");
        x.data()
            .chunks(per.max(1))
            .map(|r| rows.get(&digest_f32(r)).copied().unwrap_or(UNKNOWN_ROW))
            .collect()
    }

    /// Every plan compile so far: packed shape and duration in ns.
    pub fn compiles(&self) -> Vec<(Vec<usize>, u64)> {
        self.compiles.lock().expect("compile log poisoned").clone()
    }
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.req
        );
    }
    std::fs::write(path, out)
}

/// A [`Model`] that delegates every method the serving runtime and the
/// trainer call to `inner`, recording a span around each when its tracer is
/// on. Outputs are the inner model's, bit for bit.
///
/// The server holds its model as a `Box<dyn Model>`, whose `Model` impl
/// forwards `plan_prelude` and `forward` but not `predict_plan` or
/// `predict_batch_with`, so inside the server those two overrides never
/// run. A served batch therefore shows up as the `nn.plan_prelude` span
/// that opens a plan evaluation, or the `autograd.forward` span of a tape
/// evaluation; both carry the batch's rows.
pub struct Traced<M> {
    inner: M,
    tracer: Arc<Tracer>,
}

impl<M: Model> Traced<M> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: M, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer }
    }

    fn span<T>(
        &self,
        name: &'static str,
        rows: impl FnOnce() -> Vec<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tracer.is_on() {
            return f();
        }
        let rows = rows();
        let start_ns = self.tracer.now_ns();
        let out = f();
        self.tracer.record(Span {
            name,
            start_ns,
            end_ns: self.tracer.now_ns(),
            parent: 0,
            req: 0,
            rows,
        });
        out
    }
}

impl<M: Model> Model for Traced<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn task(&self) -> &Task {
        self.inner.task()
    }

    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        self.span(
            "autograd.forward",
            || self.tracer.row_ids(x),
            || self.inner.forward(ctx, x),
        )
    }

    fn loss(&self, ctx: &Ctx, out: &ModelOutput, target: &Target) -> Var {
        self.span("autograd.loss", Vec::new, || {
            self.inner.loss(ctx, out, target)
        })
    }

    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        self.span(
            "nn.plan_prelude",
            || self.tracer.row_ids(x),
            || self.inner.plan_prelude(x),
        )
    }

    fn compile_plan(
        &self,
        store: &ParamStore,
        x_shape: &[usize],
    ) -> Result<CompiledPlan, PlanError> {
        let t0 = Instant::now();
        let plan = self.span("nn.compile", Vec::new, || {
            self.inner.compile_plan(store, x_shape)
        });
        self.tracer
            .compiles
            .lock()
            .expect("compile log poisoned")
            .push((x_shape.to_vec(), t0.elapsed().as_nanos() as u64));
        plan
    }

    fn predict_plan(
        &self,
        plan: &CompiledPlan,
        store: &ParamStore,
        x: &Tensor,
        arena: &mut PlanArena,
    ) -> Tensor {
        self.span(
            "nn.eval_plan",
            || self.tracer.row_ids(x),
            || self.inner.predict_plan(plan, store, x, arena),
        )
    }

    fn predict_batch_with(
        &self,
        scratch: &mut EvalScratch,
        store: &ParamStore,
        xs: &[Tensor],
    ) -> Vec<Tensor> {
        self.span(
            "nn.eval_tape",
            || xs.iter().flat_map(|x| self.tracer.row_ids(x)).collect(),
            || self.inner.predict_batch_with(scratch, store, xs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::bits_equal;
    use msd_autograd::Graph;
    use msd_harness::ModelSpec;
    use msd_mixer::variants::Variant;
    use msd_tensor::rng::Rng;

    fn build(spec: ModelSpec, seed: u64) -> (msd_harness::AnyModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let m = spec.build(
            &mut store,
            &mut rng,
            2,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        (m, store)
    }

    fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| Tensor::randn(&[1, 2, 24], 1.0, &mut rng))
            .collect()
    }

    #[test]
    fn wrapper_is_bit_identical_on_plan_and_tape_paths() {
        for spec in [ModelSpec::MsdMixer(Variant::Full), ModelSpec::NLinear] {
            let (plain, store) = build(spec, 3);
            let (inner, _) = build(spec, 3);
            let tracer = Tracer::new();
            tracer.set_on(true);
            let traced = Traced::new(inner, Arc::clone(&tracer));
            let xs = inputs(4, 9);
            tracer.register_inputs(0, &xs);
            let want: Vec<Tensor> = xs.iter().map(|x| plain.predict(&store, x)).collect();

            // Tape path: batched eval through the wrapper.
            let got = traced.predict_batch_with(&mut EvalScratch::new(), &store, &xs);
            for (w, g) in want.iter().zip(&got) {
                assert!(
                    bits_equal(w.data(), g.data()),
                    "{}: tape path differs",
                    plain.name()
                );
            }

            // Plan path: compile and run the packed batch through the wrapper.
            let packed = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 0);
            let plan = traced
                .compile_plan(&store, packed.shape())
                .expect("plan compiles");
            let full = traced.predict_plan(&plan, &store, &packed, &mut PlanArena::new());
            for (i, w) in want.iter().enumerate() {
                assert!(
                    bits_equal(w.data(), full.narrow(0, i, 1).data()),
                    "plan path differs"
                );
            }

            // Training path: forward and loss give the same bits.
            let y = Tensor::zeros(&[4, 2, 8]);
            let loss_of = |m: &dyn Model| {
                let g = Graph::new();
                let mut rng = Rng::seed_from(1);
                let ctx = Ctx::new(&g, &store, &mut rng);
                let out = m.forward(&ctx, &packed);
                let loss = m.loss(&ctx, &out, &Target::Series(y.clone()));
                g.value(loss).item().to_bits()
            };
            assert_eq!(loss_of(&plain), loss_of(&traced));

            // Each eval span names the rows it packed, in order.
            let evals: Vec<Span> = tracer
                .take_spans()
                .into_iter()
                .filter(|s| s.name.starts_with("nn.eval"))
                .collect();
            assert_eq!(evals.len(), 2);
            assert!(evals.iter().all(|s| s.rows == vec![0, 1, 2, 3]));
            assert_eq!(tracer.compiles().len(), 1);
        }
    }
}
