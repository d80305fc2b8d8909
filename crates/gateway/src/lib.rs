#![warn(missing_docs)]

//! # msd-gateway
//!
//! The network-facing serving edge over [`msd_serve::Server`]: a hermetic
//! (std-only, zero external crates) HTTP/1.1 subset on
//! [`std::net::TcpListener`] in front of a multi-model registry with
//! per-model replica pools, deterministic request routing, admission
//! control, and zero-drop hot-swap.
//!
//! The contracts, in order of importance:
//!
//! 1. **Bit-identity across the wire** — a predict response body decodes to
//!    the exact bytes `Model::predict` produces for the model version named
//!    in the `X-Msd-Model-Version` response header. The binary frame
//!    ([`wire`]) round-trips raw f32 bits, so the socket adds nothing.
//! 2. **Zero dropped requests** — every admitted request is answered, even
//!    across a hot-swap: the old version drains while the new one admits
//!    ([`registry`] documents the swap state machine).
//! 3. **Typed backpressure end-to-end** — a full replica queue surfaces as
//!    HTTP `429` (from [`msd_serve::ServeError::Overloaded`]), never a
//!    hang, never a dropped connection.
//! 4. **Deterministic routing** — the serving replica is a pure function
//!    of the client's `X-Msd-Key` header ([`router`]).
//!
//! ## Endpoints
//!
//! | method & path | body | reply |
//! |---|---|---|
//! | `GET /healthz` | — | `200` `{"status":"ok",...}` |
//! | `GET /stats` | — | `200` per-model [`msd_serve::ServeStats`] JSON |
//! | `GET /v1/models` | — | `200` name/version/tier listing |
//! | `POST /v1/models/{m}/predict` | [`wire`] tensor frame | `200` frame + version/replica/tier headers |
//! | `POST /v1/models/{m}/swap` | `msd_nn` artifact blob | `200` `{"model":...,"version":n,"tier":...}` |
//!
//! Artifacts carry a precision tier (`f32`, `f16`, or `int8` — see
//! `msd_nn::artifact`); predict responses echo the serving tier in
//! `X-Msd-Tier`, and a swap request may declare the tier it expects with an
//! `X-Msd-Tier` header — a mismatching or unknown tier is a typed `400`,
//! never a silent fall back to another precision.
//!
//! Predict errors map to `400` (bad frame), `404` (unknown model), `429`
//! (overloaded or brownout, with `Retry-After`), `500` (worker panic),
//! `503` (shutting down), `504` (deadline exceeded). Requests may cap
//! their wait with an `X-Msd-Deadline-Ms` header; DESIGN.md §14 documents
//! the deadline contract, per-replica circuit breakers, brownout, and the
//! deterministic chaos harness (`MSD_CHAOS`).

pub mod health;
pub mod http;
pub mod loadgen;
pub mod registry;
pub mod router;
pub mod wire;

pub use health::{BreakerConfig, BreakerState, BrownoutConfig, ReplicaHealth};
pub use registry::{retry_after_secs, GatewayError, ModelFactory, PredictOk, Registry, ReplicaSet};

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use http::{
    read_request, response_head, write_response, write_response_throttled, Request, Response,
};
use msd_serve::{json_escape, Chaos, ServeConfig};

/// Tuning knobs for [`Gateway::bind`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Per-replica serving runtime configuration (queue bound, batching
    /// window, worker pool).
    pub serve: ServeConfig,
    /// Replica `Server`s per model (≥ 1); the router shards keys across
    /// them.
    pub replicas: usize,
    /// Largest accepted request body, bytes. Covers both tensor frames and
    /// swap blobs.
    pub max_body_bytes: usize,
    /// Most simultaneously open client connections; excess connections are
    /// answered `503` and closed.
    pub max_connections: usize,
    /// Per-replica circuit-breaker thresholds (DESIGN.md §14).
    pub breaker: BreakerConfig,
    /// Early load-shedding policy; disabled by default.
    pub brownout: BrownoutConfig,
    /// Deadline applied to predict requests that carry no
    /// `X-Msd-Deadline-Ms` header. `None` (default) = wait indefinitely,
    /// exactly the pre-deadline gateway.
    pub default_deadline: Option<Duration>,
    /// Fault-injection plan for the gateway's own connection handling
    /// (conn drops, slow-loris writes). `None` falls back to the
    /// process-wide `MSD_CHAOS` plan, so one env var arms every layer.
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            serve: ServeConfig::default(),
            replicas: 2,
            max_body_bytes: 64 * 1024 * 1024,
            max_connections: 256,
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            default_deadline: None,
            chaos: None,
        }
    }
}

/// How often blocked socket reads and the accept loop re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// The running gateway: an accept loop, per-connection handler threads,
/// and the shared model [`Registry`].
pub struct Gateway {
    registry: Arc<Registry>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Gateway {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// an empty registry; register models via [`Gateway::registry`].
    pub fn bind(addr: impl ToSocketAddrs, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // One chaos plan arms every layer: an explicit config handle wins,
        // then the process-wide MSD_CHAOS plan, then nothing. The serve
        // side inherits the same handle so worker faults and connection
        // faults share one deterministic schedule.
        let chaos = cfg.chaos.clone().or_else(Chaos::from_env);
        let mut serve_cfg = cfg.serve.clone();
        if serve_cfg.chaos.is_none() {
            serve_cfg.chaos = chaos.clone();
        }
        let registry = Arc::new(Registry::with_policies(
            serve_cfg,
            cfg.replicas,
            cfg.breaker.clone(),
            cfg.brownout.clone(),
            cfg.default_deadline,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));

        let accept = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let max_body = cfg.max_body_bytes;
            let max_conns = cfg.max_connections.max(1);
            std::thread::Builder::new()
                .name("msd-gateway-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener, registry, stop, conns, active, max_body, max_conns, chaos,
                    )
                })
                .expect("spawn gateway accept thread")
        };
        Ok(Gateway {
            registry,
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry backing this gateway.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting, lets every open connection finish its in-flight
    /// request, and drains all model servers. Idempotent via `Drop`.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.registry.shutdown();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    active: Arc<AtomicUsize>,
    max_body: usize,
    max_conns: usize,
    chaos: Option<Arc<Chaos>>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if active.load(Ordering::Relaxed) >= max_conns {
                    // Shed the connection with a typed answer rather than a
                    // silent RST: the client sees overload, not a mystery.
                    // The write timeout keeps a dead peer from wedging the
                    // accept loop itself.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let resp = Response::json(
                        503,
                        "{\"error\":\"connection limit reached\"}".to_string(),
                    )
                    .with_retry_after(1);
                    let _ = write_response(&mut stream, &resp, false);
                    continue;
                }
                active.fetch_add(1, Ordering::Relaxed);
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let active = Arc::clone(&active);
                let chaos = chaos.clone();
                let handle = std::thread::Builder::new()
                    .name("msd-gateway-conn".into())
                    .spawn(move || {
                        let _ =
                            connection_loop(&mut stream, &registry, &stop, max_body, chaos.as_deref());
                        active.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn gateway connection thread");
                let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
                // Reap finished handlers so a long-lived gateway does not
                // accumulate one dead JoinHandle per past connection.
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].is_finished() {
                        let _ = conns.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Serves one client connection until close, error, or shutdown.
fn connection_loop(
    stream: &mut TcpStream,
    registry: &Registry,
    stop: &AtomicBool,
    max_body: usize,
    chaos: Option<&Chaos>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(POLL))?;
    // A dead or unreadably slow peer must not pin this handler thread on a
    // full send buffer.
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut carry = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let req = match read_request(stream, &mut carry, max_body, stop) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // peer closed between requests
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Answer what can be answered, then close: the framing is
                // broken, so resynchronising on this connection is hopeless.
                let resp = error_response(400, &e.to_string());
                let _ = write_response(stream, &resp, false);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let keep_alive = req.keep_alive();
        let resp = handle_request(registry, &req);
        // Connection-level fault injection (only armed under MSD_CHAOS or
        // an explicit plan). The model answer is already computed and
        // accounted — these faults corrupt only the wire, which is exactly
        // what a retrying client must absorb.
        if let Some(c) = chaos {
            if c.conn_drop() {
                // Drop mid-response: half the head, then a hard close.
                let head = response_head(&resp, keep_alive);
                let _ = stream.write_all(&head.as_bytes()[..head.len() / 2]);
                let _ = stream.flush();
                return Ok(());
            }
            if let Some(stall) = c.slow_loris() {
                write_response_throttled(stream, &resp, keep_alive, stall)?;
                if !keep_alive {
                    return Ok(());
                }
                continue;
            }
        }
        write_response(stream, &resp, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        format!("{{\"error\":\"{}\"}}", json_escape(message)),
    )
}

/// Routes one parsed request to the registry. Pure apart from the registry
/// calls, so tests can drive it without a socket.
pub fn handle_request(registry: &Registry, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let names = registry.names();
            let list = names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(",");
            Response::json(
                200,
                format!("{{\"status\":\"ok\",\"models\":[{list}]}}"),
            )
        }
        ("GET", "/stats") => Response::json(200, registry.stats_json()),
        ("GET", "/v1/models") => {
            let mut rows = Vec::new();
            for name in registry.names() {
                if let Ok(set) = registry.current_set(&name) {
                    rows.push(format!(
                        "{{\"name\":\"{}\",\"version\":{},\"tier\":\"{}\"}}",
                        json_escape(&name),
                        set.version,
                        set.tier
                    ));
                }
            }
            Response::json(200, format!("{{\"models\":[{}]}}", rows.join(",")))
        }
        ("POST", path) => {
            if let Some(name) = strip_route(path, "/predict") {
                predict(registry, name, req)
            } else if let Some(name) = strip_route(path, "/swap") {
                swap(registry, name, req)
            } else {
                error_response(404, &format!("no such endpoint: POST {path}"))
            }
        }
        ("GET", path) => error_response(404, &format!("no such endpoint: GET {path}")),
        (method, _) => error_response(405, &format!("method {method} not supported")),
    }
}

/// `/v1/models/{name}{suffix}` → `Some(name)` (rejecting empty or nested
/// names).
fn strip_route<'a>(path: &'a str, suffix: &str) -> Option<&'a str> {
    let name = path.strip_prefix("/v1/models/")?.strip_suffix(suffix)?;
    if name.is_empty() || name.contains('/') {
        return None;
    }
    Some(name)
}

fn predict(registry: &Registry, name: &str, req: &Request) -> Response {
    let x = match wire::decode_tensor(&req.body) {
        Ok(x) => x,
        Err(msg) => return error_response(400, &format!("bad tensor frame: {msg}")),
    };
    if x.shape().first() != Some(&1) {
        return error_response(
            400,
            &format!(
                "predict takes one sample with a leading batch axis of 1, got {:?}",
                x.shape()
            ),
        );
    }
    let key = req.header("x-msd-key").unwrap_or("");
    // Per-request deadline: X-Msd-Deadline-Ms counts from arrival at this
    // gateway. Absent → the registry's default; malformed → a typed 400
    // (silently ignoring it would grant an unbounded wait the client
    // explicitly tried to cap).
    let deadline = match req.header("x-msd-deadline-ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(0) => {
                return error_response(400, "x-msd-deadline-ms must be a positive integer")
            }
            Ok(ms) => Some(Instant::now() + Duration::from_millis(ms)),
            Err(_) => {
                return error_response(
                    400,
                    &format!("bad x-msd-deadline-ms: {v:?} (want milliseconds)"),
                )
            }
        },
    };
    match registry.predict(name, key.as_bytes(), x, deadline) {
        Ok(ok) => {
            let mut resp = Response::new(200, wire::encode_tensor(&ok.y));
            resp.headers
                .push(("Content-Type".into(), wire::CONTENT_TYPE.into()));
            resp.headers
                .push(("X-Msd-Model-Version".into(), ok.version.to_string()));
            resp.headers
                .push(("X-Msd-Replica".into(), ok.replica.to_string()));
            resp.headers
                .push(("X-Msd-Tier".into(), ok.tier.as_str().into()));
            resp
        }
        Err(GatewayError::UnknownModel(name)) => {
            error_response(404, &format!("unknown model {name:?}"))
        }
        Err(GatewayError::Overloaded { retry_after_secs }) => {
            error_response(429, "admission queue full").with_retry_after(retry_after_secs)
        }
        Err(GatewayError::Brownout { retry_after_secs }) => {
            error_response(429, "brownout: load shed before admission")
                .with_retry_after(retry_after_secs)
        }
        Err(GatewayError::DeadlineExceeded) => error_response(504, "request deadline exceeded"),
        Err(GatewayError::Internal(msg)) => error_response(500, &msg),
        Err(GatewayError::ShuttingDown) => {
            error_response(503, "shutting down").with_retry_after(1)
        }
    }
}

fn swap(registry: &Registry, name: &str, req: &Request) -> Response {
    // An X-Msd-Tier request header declares the precision tier the client
    // expects the new artifact to carry. Unknown tier names are a typed 400
    // up front; a well-formed expectation that the artifact fails to meet is
    // rejected by the registry (also a 400) — never a silent f32 fallback.
    let expect = match req.header("x-msd-tier") {
        None => None,
        Some(v) => match msd_nn::PrecisionTier::parse(v) {
            Some(t) => Some(t),
            None => {
                return error_response(
                    400,
                    &format!("unknown tier {v:?} (expected f32, f16, or int8)"),
                )
            }
        },
    };
    match registry.swap_tiered(name, &req.body, expect) {
        Ok(version) => {
            let tier = registry
                .tier(name)
                .map(|t| t.as_str())
                .unwrap_or("f32");
            Response::json(
                200,
                format!(
                    "{{\"model\":\"{}\",\"version\":{version},\"tier\":\"{tier}\"}}",
                    json_escape(name)
                ),
            )
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            error_response(404, &format!("unknown model {name:?}"))
        }
        Err(e) => error_response(400, &format!("swap rejected: {e}")),
    }
}
