//! Deterministic fault injection for the serving stack.
//!
//! Chaos here follows the same discipline as the kernel dispatch tiers: a
//! fault either fires deterministically — same seed, same schedule, bit for
//! bit — or it does not exist. A [`FaultPlan`] names every injection point
//! and its firing probability; the decision for the *n*-th arrival at a
//! point is a pure function of `(seed, point, n)`, so replaying a run with
//! the same plan reproduces the identical fault schedule regardless of
//! thread interleaving *within* a point (each point keeps its own arrival
//! counter, and arrival order at a point is what the schedule is keyed on).
//!
//! Plans come from the environment (`MSD_CHAOS`, read once per process) or
//! are built explicitly and injected through `ServeConfig::chaos` /
//! `GatewayConfig` for tests that need two isolated instances of the same
//! schedule. The spec syntax is a comma-separated key:value list:
//!
//! ```text
//! MSD_CHAOS=seed:42,worker_panic:0.01,worker_stall:0.05,worker_stall_ms:50,conn_drop:0.02
//! ```
//!
//! Every fired fault is recorded in an in-memory schedule log (for
//! determinism assertions) and, when `MSD_CHAOS_LOG` names a path, appended
//! as a [`ServeEvent::Chaos`] JSONL line
//! (`{"event":"chaos","point":"worker_panic","n":17}`) for CI
//! artifacts. With no plan configured every probe is a no-op on the hot
//! path: one `Option` check.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::events::EventSink;
use crate::ServeEvent;

/// A named injection point in the serving stack.
///
/// The registry is closed: faults only fire where the runtime explicitly
/// probes, so the set of points doubles as documentation of exactly where
/// failure behavior is exercised (see DESIGN.md §14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// A worker panics mid-batch (inside `catch_unwind`; the batch fails
    /// typed as [`crate::ServeError::Internal`]).
    WorkerPanic,
    /// A worker sleeps `worker_stall_ms` before evaluating a batch,
    /// simulating a wedged or descheduled replica.
    WorkerStall,
    /// The gateway closes a connection after writing only half the response
    /// head, simulating a mid-response network partition.
    ConnDrop,
    /// The gateway trickles the first bytes of a response with a delay per
    /// byte, simulating a slow-loris peer or congested link.
    SlowLoris,
}

impl FaultPoint {
    /// All injection points, in schedule-log order.
    pub const ALL: [FaultPoint; 4] = [
        FaultPoint::WorkerPanic,
        FaultPoint::WorkerStall,
        FaultPoint::ConnDrop,
        FaultPoint::SlowLoris,
    ];

    /// The stable name used in specs, logs, and event JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::WorkerStall => "worker_stall",
            FaultPoint::ConnDrop => "conn_drop",
            FaultPoint::SlowLoris => "slow_loris",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::WorkerPanic => 0,
            FaultPoint::WorkerStall => 1,
            FaultPoint::ConnDrop => 2,
            FaultPoint::SlowLoris => 3,
        }
    }
}

/// A seeded, declarative fault schedule: which points fire, how often, and
/// with what magnitude. The plan is pure data — pair it with a [`Chaos`]
/// instance to get counters and logging.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-point firing schedule. Same seed → same schedule.
    pub seed: u64,
    /// Probability a worker panics on a batch (`worker_panic`).
    pub worker_panic: f64,
    /// Probability a worker stalls before a batch (`worker_stall`).
    pub worker_stall: f64,
    /// Stall duration in milliseconds (`worker_stall_ms`, default 50).
    pub worker_stall_ms: u64,
    /// Probability the gateway drops a connection mid-response
    /// (`conn_drop`).
    pub conn_drop: f64,
    /// Probability a response is written slow-loris style (`slow_loris`).
    pub slow_loris: f64,
    /// Total extra delay spread over the first response bytes when
    /// `slow_loris` fires (`slow_loris_ms`, default 20).
    pub slow_loris_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            worker_panic: 0.0,
            worker_stall: 0.0,
            worker_stall_ms: 50,
            conn_drop: 0.0,
            slow_loris: 0.0,
            slow_loris_ms: 20,
        }
    }
}

impl FaultPlan {
    /// Parses the `MSD_CHAOS` spec syntax: a comma-separated `key:value`
    /// list. Unknown keys, malformed numbers, and probabilities outside
    /// `[0, 1]` are hard errors — a chaos gate must never silently run
    /// clean because of a typo in its fault plan.
    ///
    /// Giving `worker_stall_ms` without `worker_stall` implies a stall
    /// probability of 0.05, so the example spec in the docs injects stalls
    /// as written.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut stall_prob_set = false;
        let mut stall_ms_set = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("chaos spec entry `{part}` is not key:value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos probability `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("chaos integer `{v}` is not a u64"))
            };
            match key.trim() {
                "seed" => plan.seed = int(value)?,
                "worker_panic" => plan.worker_panic = prob(value)?,
                "worker_stall" => {
                    plan.worker_stall = prob(value)?;
                    stall_prob_set = true;
                }
                "worker_stall_ms" => {
                    plan.worker_stall_ms = int(value)?;
                    stall_ms_set = true;
                }
                "conn_drop" => plan.conn_drop = prob(value)?,
                "slow_loris" => plan.slow_loris = prob(value)?,
                "slow_loris_ms" => plan.slow_loris_ms = int(value)?,
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        if stall_ms_set && !stall_prob_set {
            plan.worker_stall = 0.05;
        }
        Ok(plan)
    }

    /// The firing probability configured for `point`.
    pub fn rate(&self, point: FaultPoint) -> f64 {
        match point {
            FaultPoint::WorkerPanic => self.worker_panic,
            FaultPoint::WorkerStall => self.worker_stall,
            FaultPoint::ConnDrop => self.conn_drop,
            FaultPoint::SlowLoris => self.slow_loris,
        }
    }

    /// Whether the *n*-th arrival (0-based) at `point` fires.
    ///
    /// Pure: the decision depends only on `(seed, point, n)`, never on
    /// wall-clock or thread identity, which is the determinism guarantee
    /// every chaos gate rests on.
    pub fn fires(&self, point: FaultPoint, n: u64) -> bool {
        let p = self.rate(point);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // SplitMix64 over the seed, a point tag, and the arrival index.
        // SplitMix's output is equidistributed enough that the top 53 bits
        // make an unbiased uniform in [0, 1).
        let mut z = self
            .seed
            .wrapping_add((point.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Renders the plan back to spec syntax (stable key order), used to tag
    /// benchmark rows with the active plan.
    pub fn to_spec(&self) -> String {
        format!(
            "seed:{},worker_panic:{},worker_stall:{},worker_stall_ms:{},\
             conn_drop:{},slow_loris:{},slow_loris_ms:{}",
            self.seed,
            self.worker_panic,
            self.worker_stall,
            self.worker_stall_ms,
            self.conn_drop,
            self.slow_loris,
            self.slow_loris_ms
        )
    }
}

/// A live fault injector: a [`FaultPlan`] plus per-point arrival counters,
/// the in-memory fired-schedule log, and an optional JSONL sink.
///
/// Probe methods are called at the named injection points; each probe
/// increments that point's arrival counter and consults the pure schedule.
pub struct Chaos {
    plan: FaultPlan,
    arrivals: [AtomicU64; 4],
    fired: Mutex<Vec<(FaultPoint, u64)>>,
    log: EventSink,
}

impl std::fmt::Debug for Chaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chaos").field("plan", &self.plan).finish()
    }
}

impl Chaos {
    /// An injector for `plan` with no file log.
    pub fn new(plan: FaultPlan) -> Chaos {
        Chaos {
            plan,
            arrivals: Default::default(),
            fired: Mutex::new(Vec::new()),
            log: EventSink::disabled(),
        }
    }

    /// An injector that also appends every fired fault to `path` as JSONL.
    pub fn with_log(plan: FaultPlan, path: impl AsRef<Path>) -> std::io::Result<Chaos> {
        Ok(Chaos {
            log: EventSink::to_path(path)?,
            ..Chaos::new(plan)
        })
    }

    /// The process-global injector configured by `MSD_CHAOS` (with an
    /// optional `MSD_CHAOS_LOG` sink), or `None` when the variable is
    /// unset. Read once per process so every server and gateway in it
    /// shares one set of arrival counters.
    ///
    /// Panics on a malformed spec: a chaos run must never silently degrade
    /// to a clean run.
    pub fn from_env() -> Option<Arc<Chaos>> {
        static GLOBAL: OnceLock<Option<Arc<Chaos>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let spec = std::env::var("MSD_CHAOS").ok()?;
                if spec.trim().is_empty() {
                    return None;
                }
                let plan = FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("invalid MSD_CHAOS spec `{spec}`: {e}"));
                let chaos = match std::env::var("MSD_CHAOS_LOG") {
                    Ok(path) if !path.is_empty() => Chaos::with_log(plan, &path)
                        .unwrap_or_else(|e| panic!("cannot open MSD_CHAOS_LOG `{path}`: {e}")),
                    _ => Chaos::new(plan),
                };
                Some(Arc::new(chaos))
            })
            .clone()
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Records one arrival at `point` and returns `(n, fired)`.
    fn roll(&self, point: FaultPoint) -> (u64, bool) {
        let n = self.arrivals[point.index()].fetch_add(1, Ordering::Relaxed);
        let fired = self.plan.fires(point, n);
        if fired {
            self.fired
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((point, n));
            self.log.emit(&ServeEvent::Chaos { point, n });
        }
        (n, fired)
    }

    /// Probe: should this batch evaluation panic?
    pub fn worker_panic(&self) -> bool {
        self.roll(FaultPoint::WorkerPanic).1
    }

    /// Probe: should this batch evaluation stall first, and for how long?
    pub fn worker_stall(&self) -> Option<Duration> {
        self.roll(FaultPoint::WorkerStall)
            .1
            .then(|| Duration::from_millis(self.plan.worker_stall_ms))
    }

    /// Probe: should this response's connection drop mid-write?
    pub fn conn_drop(&self) -> bool {
        self.roll(FaultPoint::ConnDrop).1
    }

    /// Probe: should this response trickle out, and over how long in total?
    pub fn slow_loris(&self) -> Option<Duration> {
        self.roll(FaultPoint::SlowLoris)
            .1
            .then(|| Duration::from_millis(self.plan.slow_loris_ms))
    }

    /// The fired-fault schedule so far, in firing order: `(point, n)` per
    /// fault. Two runs of the same plan over the same per-point arrival
    /// sequences produce equal sets; a single-threaded replay produces
    /// equal *vectors*.
    pub fn fired(&self) -> Vec<(FaultPoint, u64)> {
        self.fired.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Arrival counts per point, in [`FaultPoint::ALL`] order.
    pub fn arrivals(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|i| self.arrivals[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_documented_example() {
        let plan =
            FaultPlan::parse("seed:42,worker_panic:0.01,worker_stall_ms:50,conn_drop:0.02")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.worker_panic, 0.01);
        assert_eq!(plan.worker_stall_ms, 50);
        // stall_ms without an explicit probability implies stalls happen.
        assert_eq!(plan.worker_stall, 0.05);
        assert_eq!(plan.conn_drop, 0.02);
        assert_eq!(plan.slow_loris, 0.0);
    }

    #[test]
    fn parse_rejects_typos_and_bad_numbers() {
        assert!(FaultPlan::parse("worker_painc:0.1").is_err());
        assert!(FaultPlan::parse("worker_panic:1.5").is_err());
        assert!(FaultPlan::parse("worker_panic:abc").is_err());
        assert!(FaultPlan::parse("seed:-1").is_err());
        assert!(FaultPlan::parse("worker_panic").is_err());
        assert!(FaultPlan::parse("").is_ok());
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_point_and_index() {
        let a = FaultPlan::parse("seed:42,worker_panic:0.1,conn_drop:0.3").unwrap();
        let b = FaultPlan::parse("seed:42,worker_panic:0.1,conn_drop:0.3").unwrap();
        for point in FaultPoint::ALL {
            for n in 0..10_000 {
                assert_eq!(a.fires(point, n), b.fires(point, n));
            }
        }
        // A different seed produces a different schedule (overwhelmingly).
        let c = FaultPlan::parse("seed:43,worker_panic:0.1,conn_drop:0.3").unwrap();
        let differs = (0..10_000).any(|n| {
            a.fires(FaultPoint::WorkerPanic, n) != c.fires(FaultPoint::WorkerPanic, n)
        });
        assert!(differs, "seed does not influence the schedule");
    }

    #[test]
    fn firing_rate_tracks_the_configured_probability() {
        let plan = FaultPlan::parse("seed:7,worker_panic:0.1").unwrap();
        let fired = (0..100_000u64)
            .filter(|&n| plan.fires(FaultPoint::WorkerPanic, n))
            .count();
        // 100k Bernoulli(0.1) trials: mean 10k, σ ≈ 95. ±10σ bounds.
        assert!((9_000..=11_000).contains(&fired), "fired {fired}/100000");
        // Rate 0 never fires; rate 1 always fires.
        let never = FaultPlan::default();
        assert!((0..1000).all(|n| !never.fires(FaultPoint::ConnDrop, n)));
        let always = FaultPlan {
            conn_drop: 1.0,
            ..FaultPlan::default()
        };
        assert!((0..1000).all(|n| always.fires(FaultPoint::ConnDrop, n)));
    }

    #[test]
    fn chaos_records_fired_schedule_identically_across_instances() {
        let plan = FaultPlan::parse("seed:5,worker_panic:0.2,worker_stall:0.2").unwrap();
        let a = Chaos::new(plan.clone());
        let b = Chaos::new(plan);
        for _ in 0..500 {
            a.worker_panic();
            b.worker_panic();
            a.worker_stall();
            b.worker_stall();
        }
        assert_eq!(a.fired(), b.fired());
        assert!(!a.fired().is_empty(), "0.2 over 500 arrivals fired nothing");
        assert_eq!(a.arrivals(), [500, 500, 0, 0]);
    }

    #[test]
    fn spec_render_parses_back_to_the_same_plan() {
        let plan = FaultPlan::parse("seed:9,worker_panic:0.25,slow_loris:0.5").unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }
}
