//! The multi-model registry: named models, replica `Server` sets, and
//! zero-drop hot-swap.
//!
//! Each registered model is a *factory* (architecture + deterministic init)
//! plus an optional parameter blob in [`msd_nn::store`] format. A published
//! version is an [`Arc`]ed set of replica [`Server`]s; the predict path
//! clones the `Arc` out of a short-held lock, so a hot-swap and in-flight
//! traffic never contend for more than a pointer exchange.
//!
//! ## Hot-swap state machine (DESIGN.md §12)
//!
//! ```text
//! BUILD    factory() x replicas, decode new params, start new Servers
//!            | (failure here leaves the old version untouched — swap is
//!            |  all-or-nothing)
//! PUBLISH  swap the Arc under the entry lock: new requests admit to the
//!            new version from this instant; the response's version header
//!            says which version admitted each request
//! DRAIN    the old Arc lives until its last in-flight request completes;
//!            dropping it drains the old Servers (graceful, zero dropped)
//! ```
//!
//! No request is ever lost across a swap: a request holds the version that
//! admitted it for its whole lifetime, and `Server`'s drain-on-drop answers
//! everything already admitted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use msd_nn::{DynModel, ParamStore, PrecisionTier};
use msd_serve::{json_escape, ServeConfig, ServeError, ServeStats, Server};
use msd_tensor::Tensor;

use crate::health::{BreakerConfig, BrownoutConfig, ReplicaHealth};
use crate::router::route_healthy;

/// Builds one fresh instance of a model: the architecture with its
/// deterministic parameter initialisation. The registry overwrites the
/// returned store's values when a parameter blob is supplied, so the
/// factory fixes *names and shapes*; the blob fixes the numbers.
pub type ModelFactory = Box<dyn Fn() -> (DynModel, ParamStore) + Send + Sync>;

/// One published model version: `replicas` independent serving runtimes
/// over identical parameters.
pub struct ReplicaSet {
    /// Monotonic version number, starting at 1 for the registered model.
    pub version: u32,
    /// Precision tier of the published parameters (from the artifact's
    /// declared tier; `F32` when serving the factory's initial values).
    pub tier: PrecisionTier,
    servers: Vec<Server>,
    /// One health record per replica. A freshly published version starts
    /// with every breaker CLOSED: new parameters mean the old error
    /// evidence no longer applies.
    health: Vec<Arc<ReplicaHealth>>,
}

impl ReplicaSet {
    /// Number of replica servers in this version.
    pub fn replicas(&self) -> usize {
        self.servers.len()
    }

    /// Live stats snapshots, one per replica.
    pub fn stats(&self) -> Vec<ServeStats> {
        self.servers.iter().map(|s| s.stats()).collect()
    }

    /// The per-replica health records (breaker state, latency EWMA).
    pub fn health(&self) -> &[Arc<ReplicaHealth>] {
        &self.health
    }

    /// The replica to fail static to when every breaker is open: least-bad
    /// by [`ReplicaHealth::badness`], ties to the lowest index. The fleet
    /// still answers — a fully-open panel means the evidence no longer
    /// discriminates, and refusing all traffic would turn a partial outage
    /// into a total one.
    fn least_bad(&self) -> usize {
        (0..self.health.len())
            .min_by_key(|&i| self.health[i].badness())
            .unwrap_or(0)
    }
}

/// Everything the gateway reports about one answered prediction.
#[derive(Debug)]
pub struct PredictOk {
    /// The prediction, bit-identical to `Model::predict` on the version's
    /// parameters.
    pub y: Tensor,
    /// Version that admitted (and answered) the request.
    pub version: u32,
    /// Precision tier of the version that answered.
    pub tier: PrecisionTier,
    /// Replica index the router chose.
    pub replica: usize,
}

/// Why the registry could not answer a predict call.
#[derive(Debug)]
pub enum GatewayError {
    /// No model registered under that name.
    UnknownModel(String),
    /// The chosen replica's admission queue was full. Carries the
    /// `Retry-After` hint (seconds) the HTTP edge should emit.
    Overloaded {
        /// Suggested client back-off, seconds.
        retry_after_secs: u64,
    },
    /// The brownout policy shed the request before admission (queue depth
    /// or latency EWMA over threshold) — same 429 surface as `Overloaded`,
    /// but the replica never saw the request.
    Brownout {
        /// Suggested client back-off, seconds.
        retry_after_secs: u64,
    },
    /// The request's deadline expired before an answer was produced —
    /// either shed by the replica's runtime or timed out at the gateway's
    /// wait. Maps to HTTP 504.
    DeadlineExceeded,
    /// The replica answered with an internal serving error (worker panic).
    Internal(String),
    /// The replica is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            GatewayError::Overloaded { .. } => write!(f, "admission queue full"),
            GatewayError::Brownout { .. } => write!(f, "brownout: load shed before admission"),
            GatewayError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            GatewayError::Internal(msg) => write!(f, "internal error: {msg}"),
            GatewayError::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// The `Retry-After` hint (seconds) for a shed request: one second of
/// floor, plus the replica's full batching window, plus one second per full
/// queue's worth of requests already in flight, clamped to 30 s so a
/// misconfigured gateway can never tell clients to go away for minutes.
/// Pure so the known-answer test pins the exact values clients see.
pub fn retry_after_secs(in_flight: u64, queue_cap: usize, max_wait: Duration) -> u64 {
    let per_queue = in_flight / (queue_cap.max(1) as u64);
    (1 + max_wait.as_secs() + per_queue).min(30)
}

struct Entry {
    factory: ModelFactory,
    current: Mutex<Arc<ReplicaSet>>,
    next_version: AtomicU32,
}

/// Named models and their live replica sets.
pub struct Registry {
    models: RwLock<BTreeMap<String, Arc<Entry>>>,
    serve_cfg: ServeConfig,
    replicas: usize,
    breaker: BreakerConfig,
    brownout: BrownoutConfig,
    default_deadline: Option<Duration>,
}

impl Registry {
    /// An empty registry whose models each run `replicas` servers built
    /// from `serve_cfg`, with default breaker thresholds, brownout
    /// disabled, and no default deadline.
    pub fn new(serve_cfg: ServeConfig, replicas: usize) -> Registry {
        Registry::with_policies(
            serve_cfg,
            replicas,
            BreakerConfig::default(),
            BrownoutConfig::default(),
            None,
        )
    }

    /// [`Registry::new`] with explicit fault-tolerance policies: breaker
    /// thresholds, the brownout shed policy, and the deadline applied to
    /// requests that do not carry their own.
    pub fn with_policies(
        serve_cfg: ServeConfig,
        replicas: usize,
        breaker: BreakerConfig,
        brownout: BrownoutConfig,
        default_deadline: Option<Duration>,
    ) -> Registry {
        Registry {
            models: RwLock::new(BTreeMap::new()),
            serve_cfg,
            replicas: replicas.max(1),
            breaker,
            brownout,
            default_deadline,
        }
    }

    fn build_set(
        &self,
        factory: &ModelFactory,
        params: Option<&[u8]>,
        expect: Option<PrecisionTier>,
        version: u32,
    ) -> io::Result<ReplicaSet> {
        let mut servers = Vec::with_capacity(self.replicas);
        let mut health = Vec::with_capacity(self.replicas);
        let mut tier = PrecisionTier::F32;
        for i in 0..self.replicas {
            let (model, mut store) = factory();
            if let Some(bytes) = params {
                // Validates names/shapes against the factory-built store and
                // commits all-or-nothing; a bad blob aborts the whole build.
                // Decoding also installs the artifact's precision tier (and
                // quant tables) into the store, which serving lowers onto.
                msd_nn::store::decode(&mut store, bytes)?;
            }
            if i == 0 {
                // Every replica decodes the same bytes, so the first store's
                // tier speaks for the set. A declared expectation must match
                // exactly — never a silent fallback to another tier.
                tier = store.tier();
                if let Some(want) = expect {
                    if tier != want {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "precision tier mismatch: request declared {want}, artifact is {tier}"
                            ),
                        ));
                    }
                }
            }
            servers.push(Server::start(model, store, self.serve_cfg.clone())?);
            health.push(Arc::new(ReplicaHealth::new(self.breaker.clone())));
        }
        Ok(ReplicaSet {
            version,
            tier,
            servers,
            health,
        })
    }

    /// Registers `name` at version 1. `params` optionally overrides the
    /// factory's initial parameters with a stored blob (any format
    /// [`msd_nn::store::decode`] accepts).
    ///
    /// Fails with `AlreadyExists` if the name is taken — use
    /// [`Registry::swap`] to replace a live model.
    pub fn register(&self, name: &str, factory: ModelFactory, params: Option<&[u8]>) -> io::Result<u32> {
        self.register_tiered(name, factory, params, None)
    }

    /// [`Registry::register`] with a declared precision-tier expectation:
    /// the build fails (`InvalidData`) unless the decoded artifact's tier is
    /// exactly `expect`. `None` accepts whatever tier the artifact carries.
    pub fn register_tiered(
        &self,
        name: &str,
        factory: ModelFactory,
        params: Option<&[u8]>,
        expect: Option<PrecisionTier>,
    ) -> io::Result<u32> {
        let mut models = self.models.write().unwrap_or_else(|p| p.into_inner());
        if models.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("model {name:?} is already registered"),
            ));
        }
        let set = self.build_set(&factory, params, expect, 1)?;
        models.insert(
            name.to_string(),
            Arc::new(Entry {
                factory,
                current: Mutex::new(Arc::new(set)),
                next_version: AtomicU32::new(2),
            }),
        );
        Ok(1)
    }

    fn entry(&self, name: &str) -> Result<Arc<Entry>, GatewayError> {
        self.models
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| GatewayError::UnknownModel(name.to_string()))
    }

    /// Hot-swaps `name` to new parameters under traffic.
    ///
    /// All-or-nothing: the new replica set is fully built and serving
    /// before the publish, and any failure (bad blob, shape mismatch)
    /// leaves the old version untouched and still serving. Zero requests
    /// drop across the publish — in-flight requests complete against the
    /// version that admitted them.
    pub fn swap(&self, name: &str, params: &[u8]) -> io::Result<u32> {
        self.swap_tiered(name, params, None)
    }

    /// [`Registry::swap`] with a declared precision-tier expectation: the
    /// swap is rejected (`InvalidData`, old version untouched) unless the
    /// new artifact's tier is exactly `expect`. `None` accepts any tier.
    pub fn swap_tiered(
        &self,
        name: &str,
        params: &[u8],
        expect: Option<PrecisionTier>,
    ) -> io::Result<u32> {
        let entry = self
            .entry(name)
            .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
        let version = entry.next_version.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(self.build_set(&entry.factory, Some(params), expect, version)?);
        let old = {
            let mut current = entry.current.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *current, set)
        };
        // `old` drains here if no request still holds it; otherwise the last
        // in-flight request performs the drain when it drops its clone.
        drop(old);
        Ok(version)
    }

    /// Routes one request: picks the first replica in `key`'s deterministic
    /// failover order whose breaker is not open (fail-static to the
    /// least-bad replica when every breaker is open), applies the brownout
    /// policy, submits with the effective deadline, and waits for the
    /// answer.
    ///
    /// `deadline` is the caller-supplied absolute deadline (from the
    /// `X-Msd-Deadline-Ms` header); `None` falls back to the registry's
    /// default. The gateway waits a short grace past the deadline —
    /// `2 × max_wait + 50 ms` — so a request a replica worker sheds while
    /// sealing its batch surfaces as the replica's typed `DeadlineExceeded`
    /// rather than a gateway-side timeout; only a genuinely wedged replica
    /// hits the timeout path, which counts as a breaker error.
    pub fn predict(
        &self,
        name: &str,
        key: &[u8],
        x: Tensor,
        deadline: Option<Instant>,
    ) -> Result<PredictOk, GatewayError> {
        let entry = self.entry(name)?;
        // Clone the published version out of the short-held lock; the swap
        // path can publish a successor at any time without affecting us.
        let set = entry
            .current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        let now = Instant::now();
        let open: Vec<bool> = set.health.iter().map(|h| h.route_away(now)).collect();
        let replica = route_healthy(key, &open).unwrap_or_else(|| set.least_bad());
        let health = &set.health[replica];
        let server = &set.servers[replica];

        // Brownout: shed before admission when the chosen replica is
        // already saturated. Cheaper than queueing a request that will
        // blow its deadline anyway.
        let in_flight = server.in_flight();
        let shed_depth = self.brownout.max_in_flight > 0 && in_flight >= self.brownout.max_in_flight;
        let shed_latency =
            self.brownout.max_ewma_us > 0 && health.ewma_us() > self.brownout.max_ewma_us as f64;
        if shed_depth || shed_latency {
            return Err(GatewayError::Brownout {
                retry_after_secs: retry_after_secs(
                    in_flight,
                    self.serve_cfg.queue_cap,
                    self.serve_cfg.max_wait,
                ),
            });
        }

        let deadline = deadline.or_else(|| self.default_deadline.map(|d| now + d));
        let mut pending = match server.submit_with_deadline(x, deadline) {
            Ok(p) => p,
            Err(ServeError::Overloaded) => {
                // Queue-full is backpressure, not sickness: no breaker
                // feedback, just a typed 429 with a back-off hint.
                return Err(GatewayError::Overloaded {
                    retry_after_secs: retry_after_secs(
                        in_flight,
                        self.serve_cfg.queue_cap,
                        self.serve_cfg.max_wait,
                    ),
                });
            }
            Err(e) => return Err(self.fail(health, e)),
        };
        let grace = self.serve_cfg.max_wait * 2 + Duration::from_millis(50);
        let outcome = match deadline {
            Some(d) => {
                let cap = d.saturating_duration_since(Instant::now()) + grace;
                match pending.wait_timeout(cap) {
                    Some(r) => r,
                    None => {
                        // The replica kept the request past its deadline
                        // plus grace: wedged, not merely slow. Dropping the
                        // Pending detaches it; the ledger still balances
                        // because the replica's own shed/complete path
                        // accounts the request.
                        health.on_error();
                        return Err(GatewayError::DeadlineExceeded);
                    }
                }
            }
            None => pending.wait(),
        };
        match outcome {
            Ok(y) => {
                let latency_us = now.elapsed().as_micros().min(u64::MAX as u128) as u64;
                health.on_success(latency_us);
                Ok(PredictOk {
                    y,
                    version: set.version,
                    tier: set.tier,
                    replica,
                })
            }
            Err(e) => Err(self.fail(health, e)),
        }
    }

    /// Maps a replica error to the gateway surface, recording breaker
    /// feedback for the error kinds that indicate replica sickness.
    fn fail(&self, health: &ReplicaHealth, e: ServeError) -> GatewayError {
        match e {
            ServeError::Internal(msg) => {
                health.on_error();
                GatewayError::Internal(msg)
            }
            ServeError::DeadlineExceeded => {
                health.on_error();
                GatewayError::DeadlineExceeded
            }
            ServeError::Overloaded => GatewayError::Overloaded {
                retry_after_secs: retry_after_secs(
                    0,
                    self.serve_cfg.queue_cap,
                    self.serve_cfg.max_wait,
                ),
            },
            // Shutdown/cancel is lifecycle, not sickness.
            ServeError::ShuttingDown | ServeError::Canceled => GatewayError::ShuttingDown,
        }
    }

    /// The live published replica set for `name` (health + stats access
    /// for tests and diagnostics).
    pub fn current_set(&self, name: &str) -> Result<Arc<ReplicaSet>, GatewayError> {
        let entry = self.entry(name)?;
        let set = entry
            .current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        Ok(set)
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// The live version number of `name`.
    pub fn version(&self, name: &str) -> Result<u32, GatewayError> {
        Ok(self.current_set(name)?.version)
    }

    /// The live precision tier of `name`.
    pub fn tier(&self, name: &str) -> Result<PrecisionTier, GatewayError> {
        Ok(self.current_set(name)?.tier)
    }

    /// Per-model, per-replica stats as one JSON object:
    /// `{"models":[{"model":...,"version":...,"tier":...,"submitted":...,
    /// "replicas":[...]}],"tiers":[{"tier":...,"models":...,...}]}` — the
    /// trailing `tiers` array aggregates serve counters over every model
    /// published at that precision tier.
    pub fn stats_json(&self) -> String {
        let entries: Vec<(String, Arc<ReplicaSet>)> = {
            let models = self.models.read().unwrap_or_else(|p| p.into_inner());
            models
                .iter()
                .map(|(name, e)| {
                    (
                        name.clone(),
                        e.current.lock().unwrap_or_else(|p| p.into_inner()).clone(),
                    )
                })
                .collect()
        };
        // Aggregate counters per precision tier while walking the models:
        // [tier, models, submitted, completed, rejected, failed, expired].
        let mut tier_rows: BTreeMap<&'static str, [u64; 6]> = BTreeMap::new();
        let mut s = String::from("{\"models\":[");
        for (i, (name, set)) in entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let stats = set.stats();
            let (mut submitted, mut completed, mut rejected, mut failed, mut expired) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for st in &stats {
                submitted += st.submitted;
                completed += st.completed;
                rejected += st.rejected;
                failed += st.failed;
                expired += st.expired;
            }
            let row = tier_rows.entry(set.tier.as_str()).or_insert([0; 6]);
            for (slot, v) in [1, submitted, completed, rejected, failed, expired]
                .into_iter()
                .enumerate()
            {
                row[slot] += v;
            }
            let _ = write!(
                s,
                "{{\"model\":\"{}\",\"version\":{},\"tier\":\"{}\",\"submitted\":{},\
                 \"completed\":{},\"rejected\":{},\"failed\":{},\"expired\":{},\"replicas\":[",
                json_escape(name),
                set.version,
                set.tier,
                submitted,
                completed,
                rejected,
                failed,
                expired
            );
            for (j, st) in stats.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                // Splice the gateway-side health fields into the replica's
                // serve-stats object so one GET answers both layers.
                let mut obj = st.to_json();
                debug_assert!(obj.ends_with('}'));
                obj.pop();
                let h = &set.health[j];
                let _ = write!(
                    obj,
                    ",\"breaker\":\"{}\",\"ewma_us\":{}}}",
                    h.state().name(),
                    h.ewma_us() as u64
                );
                s.push_str(&obj);
            }
            s.push_str("]}");
        }
        s.push_str("],\"tiers\":[");
        for (i, (tier, row)) in tier_rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"tier\":\"{tier}\",\"models\":{},\"submitted\":{},\"completed\":{},\
                 \"rejected\":{},\"failed\":{},\"expired\":{}}}",
                row[0], row[1], row[2], row[3], row[4], row[5]
            );
        }
        s.push_str("]}");
        s
    }

    /// Drops every model, draining all replica servers (blocks until every
    /// in-flight request is answered).
    pub fn shutdown(&self) {
        self.models
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_known_answers() {
        // Idle gateway, sub-second wait window: the 1 s floor.
        assert_eq!(retry_after_secs(0, 256, Duration::from_micros(200)), 1);
        // A 2 s wait window raises the hint past the window itself.
        assert_eq!(retry_after_secs(0, 256, Duration::from_secs(2)), 3);
        // One extra second per full queue's worth of in-flight work.
        assert_eq!(retry_after_secs(512, 256, Duration::from_micros(200)), 3);
        assert_eq!(retry_after_secs(255, 256, Duration::from_micros(200)), 1);
        // Clamped: a wedged fleet never tells clients "come back in an hour".
        assert_eq!(retry_after_secs(1 << 40, 1, Duration::from_secs(600)), 30);
        // Degenerate queue_cap of 0 must not divide by zero.
        assert_eq!(retry_after_secs(5, 0, Duration::ZERO), 6);
    }
}
