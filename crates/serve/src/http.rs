//! A std-only TCP/HTTP ingress for the serving engine: minimal HTTP/1.1
//! over [`std::net::TcpListener`], no async runtime (the registry is
//! offline, so tokio is not an option — and the engine's completion
//! tickets already give blocking handlers exact request/response
//! semantics without one).
//!
//! * `POST /v1/{dataset}/{kind}/predict` — body `{"node": N}`; answers
//!   with the inference result the moment [`crate::Ticket`] delivery
//!   wakes the handler ([`crate::ServeEngine::submit_wait`]). Bit-exact
//!   with the in-process path by construction: it *is* the in-process
//!   path.
//! * `POST /v1/{dataset}/{kind}/update` — body
//!   `{"insert": [[src,dst],…], "remove": [[src,dst],…],
//!   "add_nodes": [[feature,…],…]}`; applies a [`mega_graph::GraphDelta`]
//!   and answers with the acknowledgement
//!   ([`crate::ServeEngine::submit_update_wait`]).
//! * `GET /metrics` — Prometheus-style text exposition of the engine's
//!   [`crate::Metrics`] plus the ingress's own counters.
//!
//! **Backpressure sheds instead of queue-bloating.** Two bounds keep
//! heavy traffic from melting the engine: the *connection pool* is a
//! fixed set of handler threads (connections beyond it queue in the OS
//! accept backlog), and *admission control* rejects work once the
//! engine's in-flight ticket count ([`crate::ServeEngine::in_flight`])
//! exceeds [`HttpServerConfig::max_in_flight`] — a `429 Too Many
//! Requests` with a `Retry-After` hint, costing the caller one
//! round-trip instead of an unbounded queue delay. Degraded service is
//! fast rejection, not slow acceptance.
//!
//! The wire format is deliberately tiny (a hand-rolled JSON subset in
//! [`json`]); no external dependency can be added offline, and the
//! engine's own response structs stay the source of truth.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::GraphDelta;

use crate::metrics::LogHistogram;
use crate::request::{InferenceResponse, ModelKey, UpdateResponse};
use crate::trace::{process_memory, ModelMemory, RequestTrace, TraceRecord, TraceStage};
use crate::{EngineHealth, ModelRegistry, ServeEngine, ServeError, WaitError};

pub mod json;

use json::Json;

/// Ingress knobs.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; read it
    /// back with [`HttpServer::local_addr`]).
    pub addr: String,
    /// Handler threads — the bounded connection pool. Each owns at most
    /// one live connection; excess connections wait in the OS accept
    /// backlog.
    pub connections: usize,
    /// Admission bound: once the engine's in-flight ticket count reaches
    /// this, new predict/update requests are shed with `429` +
    /// `Retry-After` instead of queued.
    pub max_in_flight: usize,
    /// `Retry-After` hint on shed requests (rounded up to whole seconds,
    /// minimum 1).
    pub retry_after: Duration,
    /// Per-request completion deadline for predict/update handlers; a
    /// miss answers `504`.
    pub wait_timeout: Duration,
    /// Keep-alive idle timeout per connection: a silent client releases
    /// its pool slot after this. It also bounds each request, from its
    /// first byte to its last, so a client trickling bytes cannot hold a
    /// slot longer.
    pub idle_timeout: Duration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            connections: 8,
            max_in_flight: 1024,
            retry_after: Duration::from_secs(1),
            wait_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Ingress-side counters (the engine's own metrics live in
/// [`crate::Metrics`]; these count what happened at the wire).
#[derive(Default)]
pub struct HttpStats {
    /// Requests parsed and routed.
    pub requests: AtomicU64,
    /// Requests shed by admission control (`429`).
    pub shed: AtomicU64,
    /// Requests answered with a non-2xx status for any other reason.
    pub errors: AtomicU64,
}

/// The running ingress: a bounded pool of handler threads over one
/// listener. Stopping the server does not stop the engine — they have
/// independent lifecycles (the engine usually outlives its ingress in
/// tests, and production teardown stops the ingress first so in-flight
/// tickets drain).
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<HttpStats>,
    handles: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds and spawns the handler pool. The engine is shared, not
    /// owned: every handler thread submits through the same completion
    /// router as in-process callers.
    pub fn start(
        config: HttpServerConfig,
        engine: Arc<ServeEngine>,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(HttpStats::default());
        let handles = (0..config.connections.max(1))
            .map(|i| {
                let listener = listener.try_clone().expect("clone listener");
                let engine = engine.clone();
                let registry = registry.clone();
                let config = config.clone();
                let shutdown = shutdown.clone();
                let stats = stats.clone();
                std::thread::Builder::new()
                    .name(format!("mega-serve-http-{i}"))
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if shutdown.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    handle_connection(
                                        stream, &engine, &registry, &config, &stats, &shutdown,
                                    );
                                }
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn http handler thread")
            })
            .collect();
        Ok(Self {
            addr,
            shutdown,
            stats,
            handles,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ingress counters.
    pub fn stats(&self) -> &HttpStats {
        &self.stats
    }

    /// Stops accepting, wakes every handler thread, and joins the pool.
    /// In-flight handlers finish their current response first.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Each handler may be parked in accept(); one dummy connection
        // per thread unblocks them all.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles {
            handle.join().expect("http handler panicked");
        }
    }
}

/// One parsed HTTP/1.1 request.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Reading a request can legitimately end the connection (EOF, idle
/// timeout) or demand an error response before closing.
enum ReadOutcome {
    Request(HttpRequest),
    Closed,
    /// Answer `status`/`reason`, then close — after a framing problem the
    /// byte stream cannot be trusted for another request.
    Reject(u16, &'static str),
}

const MAX_BODY_BYTES: usize = 1 << 20;
const MAX_HEADER_LINES: usize = 64;
/// Longest request or header line read, terminator included. A longer
/// line is rejected once this much has arrived, so a client that never
/// sends a newline cannot grow a buffer or hold a handler.
const MAX_LINE_BYTES: usize = 8 << 10;

/// The read half of a connection. Waiting for a request's first byte may
/// take up to `timeout`; from that byte on, every read shares one deadline
/// `timeout` later, so the whole request is bounded, not each read
/// syscall. [`DeadlineReader::next_request`] re-arms it.
struct DeadlineReader {
    stream: TcpStream,
    timeout: Duration,
    deadline: Option<Instant>,
}

impl DeadlineReader {
    /// Starts the wait for the next request.
    fn next_request(&mut self) {
        self.deadline = None;
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = match self.deadline {
            None => self.timeout,
            Some(deadline) => deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or(std::io::ErrorKind::TimedOut)?,
        };
        self.stream.set_read_timeout(Some(left))?;
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.timeout);
        }
        Ok(n)
    }
}

/// One line read through the [`MAX_LINE_BYTES`] cap.
enum Line {
    Text(String),
    TooLong,
    /// EOF, timeout, reset, or bytes that are not UTF-8.
    Closed,
}

fn read_line(reader: &mut BufReader<DeadlineReader>) -> Line {
    let mut bytes = Vec::new();
    match reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut bytes)
    {
        Ok(0) | Err(_) => Line::Closed,
        Ok(n) if n == MAX_LINE_BYTES && bytes.last() != Some(&b'\n') => Line::TooLong,
        Ok(_) => String::from_utf8(bytes).map_or(Line::Closed, Line::Text),
    }
}

fn read_request(reader: &mut BufReader<DeadlineReader>) -> ReadOutcome {
    let line = match read_line(reader) {
        Line::Text(line) => line,
        Line::TooLong => return ReadOutcome::Reject(414, "request line too long"),
        Line::Closed => return ReadOutcome::Closed,
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return ReadOutcome::Reject(400, "bad request line");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = version.eq_ignore_ascii_case("HTTP/1.1");
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0usize;
    for _ in 0..MAX_HEADER_LINES {
        let header = match read_line(reader) {
            Line::Text(header) => header,
            Line::TooLong => return ReadOutcome::Reject(431, "header line too long"),
            Line::Closed => return ReadOutcome::Closed,
        };
        let header = header.trim_end();
        if header.is_empty() {
            let body = if content_length > 0 {
                if content_length > MAX_BODY_BYTES {
                    return ReadOutcome::Reject(413, "body too large");
                }
                let mut body = vec![0u8; content_length];
                if reader.read_exact(&mut body).is_err() {
                    return ReadOutcome::Closed;
                }
                body
            } else {
                Vec::new()
            };
            return ReadOutcome::Request(HttpRequest {
                method,
                path,
                body,
                keep_alive,
            });
        }
        let Some((name, value)) = header.split_once(':') else {
            return ReadOutcome::Reject(400, "bad header");
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(length) = value.parse::<usize>() else {
                return ReadOutcome::Reject(400, "bad content-length");
            };
            content_length = length;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            // Chunked bodies are not framed by Content-Length; reading on
            // would desync the stream (chunk headers parsed as the next
            // request line). Reject before touching the body.
            return ReadOutcome::Reject(501, "transfer-encoding not supported");
        }
    }
    ReadOutcome::Reject(400, "too many headers")
}

/// A response ready to serialize: status, extra headers, body.
struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
    content_type: &'static str,
}

impl HttpResponse {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":{}}}", json::escape_string(message)),
        )
    }

    fn text(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body,
            content_type: "text/plain; version=0.0.4",
        }
    }

    fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: &ServeEngine,
    registry: &ModelRegistry,
    config: &HttpServerConfig,
    stats: &HttpStats,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let mut write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        timeout: config.idle_timeout,
        deadline: None,
    });
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        reader.get_mut().next_request();
        let request = match read_request(&mut reader) {
            ReadOutcome::Request(request) => request,
            ReadOutcome::Closed => return,
            ReadOutcome::Reject(status, reason) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = HttpResponse::error(status, reason).write_to(&mut write_half, false);
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive;
        let response = route(&request, engine, registry, config, stats);
        if response.status >= 400 && response.status != 429 {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if response.write_to(&mut write_half, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn route(
    request: &HttpRequest,
    engine: &ServeEngine,
    registry: &ModelRegistry,
    config: &HttpServerConfig,
    stats: &HttpStats,
) -> HttpResponse {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => HttpResponse::text(200, render_metrics(engine, stats)),
        ("GET", ["healthz"]) => {
            let health = engine.health();
            let status = if health.ok() { 200 } else { 503 };
            HttpResponse::json(status, render_health(&health))
        }
        ("GET", ["debug", "requests"]) => HttpResponse::json(200, render_debug_requests(engine)),
        ("POST", ["v1", dataset, kind, endpoint @ ("predict" | "update")]) => {
            // The request-lifecycle trace starts here, once the request is
            // parsed off the wire — its timeline then covers admission and
            // body decode, not just engine time. Updates are untraced
            // (traces model the inference path).
            let mut trace = RequestTrace::begin();
            let Some(key) = resolve_model(registry, dataset, kind) else {
                return HttpResponse::error(404, &format!("no registered model {dataset}/{kind}"));
            };
            // Admission control: shed before any work is enqueued, so
            // overload degrades into cheap rejections instead of a queue
            // whose delay every accepted request then pays.
            if engine.in_flight() >= config.max_in_flight {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                // Ceiling over millis: `as_secs()` truncates, so a 1500 ms
                // hint would advertise 1 s and invite retries before the
                // configured backoff has elapsed.
                let seconds = config.retry_after.as_millis().div_ceil(1000).max(1);
                return HttpResponse::error(
                    429,
                    &format!(
                        "{} requests in flight (bound {})",
                        engine.in_flight(),
                        config.max_in_flight
                    ),
                )
                .with_header("retry-after", seconds.to_string());
            }
            trace.stamp(TraceStage::Admitted);
            let body = match json::parse(&request.body) {
                Ok(body) => body,
                Err(reason) => return HttpResponse::error(400, &format!("bad JSON: {reason}")),
            };
            if *endpoint == "predict" {
                handle_predict(engine, &key, &body, config, trace)
            } else {
                handle_update(engine, &key, &body, config)
            }
        }
        ("POST", ["v1", ..]) => HttpResponse::error(404, "unknown endpoint"),
        (_, ["metrics" | "healthz"]) | (_, ["debug", "requests"]) | (_, ["v1", ..]) => {
            HttpResponse::error(405, "method not allowed")
        }
        _ => HttpResponse::error(404, "unknown path"),
    }
}

/// Resolves `{dataset}/{kind}` path segments to a registered model key,
/// case-insensitively (URLs say `cora/gcn`; the registry says
/// `Cora/GCN`).
fn resolve_model(registry: &ModelRegistry, dataset: &str, kind: &str) -> Option<ModelKey> {
    let kind = match kind.to_ascii_lowercase().as_str() {
        "gcn" => GnnKind::Gcn,
        "gin" => GnnKind::Gin,
        "sage" | "graphsage" => GnnKind::GraphSage,
        _ => return None,
    };
    registry
        .keys()
        .into_iter()
        .find(|k| k.kind == kind && k.dataset.eq_ignore_ascii_case(dataset))
}

fn handle_predict(
    engine: &ServeEngine,
    key: &ModelKey,
    body: &Json,
    config: &HttpServerConfig,
    trace: RequestTrace,
) -> HttpResponse {
    let Some(node) = body.get("node").and_then(Json::as_u64) else {
        return HttpResponse::error(400, "body must carry an integer \"node\"");
    };
    if node > u32::MAX as u64 {
        return HttpResponse::error(400, "node id exceeds u32");
    }
    match engine.submit_wait_traced(key, node as u32, config.wait_timeout, trace) {
        Ok(response) => HttpResponse::json(200, render_inference(&response)),
        Err(error) => serve_error_response(&error),
    }
}

fn handle_update(
    engine: &ServeEngine,
    key: &ModelKey,
    body: &Json,
    config: &HttpServerConfig,
) -> HttpResponse {
    let mut delta = GraphDelta::new();
    let mut node_features: Vec<Vec<f32>> = Vec::new();
    if let Some(rows) = body.get("add_nodes") {
        let Some(rows) = rows.as_array() else {
            return HttpResponse::error(400, "\"add_nodes\" must be an array of feature rows");
        };
        for row in rows {
            let Some(values) = row.as_array() else {
                return HttpResponse::error(400, "feature rows must be arrays of numbers");
            };
            let mut features = Vec::with_capacity(values.len());
            for value in values {
                let Some(feature) = value.as_f64() else {
                    return HttpResponse::error(400, "feature rows must be arrays of numbers");
                };
                // Finiteness is checked after this narrowing, on the f32
                // rows, by `submit_update`: 1e300 is a finite f64 but +inf
                // as f32.
                features.push(feature as f32);
            }
            delta.add_node();
            node_features.push(features);
        }
    }
    for (field, insert) in [("insert", true), ("remove", false)] {
        let Some(edges) = body.get(field) else {
            continue;
        };
        let Some(edges) = edges.as_array() else {
            return HttpResponse::error(400, "edge lists must be arrays of [src, dst] pairs");
        };
        for edge in edges {
            let pair = edge.as_array().and_then(|pair| {
                match (
                    pair.first().and_then(Json::as_u64),
                    pair.get(1).and_then(Json::as_u64),
                ) {
                    (Some(s), Some(d)) if pair.len() == 2 => Some((s, d)),
                    _ => None,
                }
            });
            let Some((src, dst)) = pair else {
                return HttpResponse::error(400, "edges must be [src, dst] integer pairs");
            };
            if src > u32::MAX as u64 || dst > u32::MAX as u64 {
                return HttpResponse::error(400, "node id exceeds u32");
            }
            if insert {
                delta.insert_edge(src as u32, dst as u32);
            } else {
                delta.remove_edge(src as u32, dst as u32);
            }
        }
    }
    match engine.submit_update_wait(key, delta, node_features, config.wait_timeout) {
        Ok(ack) => HttpResponse::json(200, render_update(&ack)),
        Err(error) => serve_error_response(&error),
    }
}

/// Maps engine errors to statuses: client mistakes are 4xx, a missed
/// per-request deadline is `504` (the request is still in flight), a
/// dropped request is `503`.
fn serve_error_response(error: &ServeError) -> HttpResponse {
    let status = match error {
        ServeError::UnknownModel(_) => 404,
        ServeError::NodeOutOfRange { .. } | ServeError::BadUpdate(_) => 400,
        ServeError::Wait(WaitError::Timeout(_)) => 504,
        ServeError::Wait(WaitError::Dropped) => 503,
    };
    HttpResponse::error(status, &error.to_string())
}

fn render_inference(response: &InferenceResponse) -> String {
    let mut out = String::from("{");
    json::field(&mut out, "id", Json::from(response.id));
    json::field(&mut out, "model", Json::from(response.model.to_string()));
    json::field(&mut out, "node", Json::from(u64::from(response.node)));
    json::field(
        &mut out,
        "predicted_class",
        Json::from(response.predicted_class as u64),
    );
    json::field(
        &mut out,
        "logits",
        Json::Arr(
            response
                .logits
                .iter()
                .map(|&l| Json::from(f64::from(l)))
                .collect(),
        ),
    );
    json::field(&mut out, "bits", Json::from(u64::from(response.bits)));
    json::field(&mut out, "tier", Json::from(response.tier as u64));
    json::field(&mut out, "shard", Json::from(u64::from(response.shard)));
    json::field(&mut out, "cached", Json::Bool(response.cached));
    json::field(
        &mut out,
        "batch_size",
        Json::from(response.batch_size as u64),
    );
    json::field(
        &mut out,
        "worker",
        response
            .worker
            .map(|w| Json::from(w as u64))
            .unwrap_or(Json::Null),
    );
    json::field(
        &mut out,
        "latency_us",
        Json::from(response.latency.as_micros().min(u64::MAX as u128) as u64),
    );
    out.pop();
    out.push('}');
    out
}

fn render_update(ack: &UpdateResponse) -> String {
    let mut out = String::from("{");
    json::field(&mut out, "id", Json::from(ack.id));
    json::field(&mut out, "model", Json::from(ack.model.to_string()));
    json::field(&mut out, "applied", Json::Bool(ack.applied()));
    json::field(
        &mut out,
        "error",
        ack.error
            .as_ref()
            .map(|e| Json::from(e.clone()))
            .unwrap_or(Json::Null),
    );
    json::field(
        &mut out,
        "inserted_edges",
        Json::from(ack.inserted_edges as u64),
    );
    json::field(
        &mut out,
        "removed_edges",
        Json::from(ack.removed_edges as u64),
    );
    json::field(
        &mut out,
        "added_nodes",
        Json::Arr(
            ack.added_nodes
                .iter()
                .map(|&n| Json::from(u64::from(n)))
                .collect(),
        ),
    );
    json::field(&mut out, "retiered", Json::from(ack.retiered.len() as u64));
    json::field(&mut out, "dirty_rows", Json::from(ack.dirty_rows as u64));
    json::field(
        &mut out,
        "logits_invalidated",
        Json::from(ack.logits_invalidated as u64),
    );
    json::field(&mut out, "version", Json::from(ack.version));
    json::field(
        &mut out,
        "latency_us",
        Json::from(ack.latency.as_micros().min(u64::MAX as u128) as u64),
    );
    out.pop();
    out.push('}');
    out
}

/// `GET /healthz` body: liveness of every thread the request path depends
/// on, plus the in-flight count and a reason when unhealthy.
fn render_health(health: &EngineHealth) -> String {
    let mut out = String::from("{");
    json::field(&mut out, "ok", Json::Bool(health.ok()));
    json::field(
        &mut out,
        "lanes_alive",
        Json::Arr(health.lanes_alive.iter().map(|&a| Json::Bool(a)).collect()),
    );
    json::field(&mut out, "in_flight", Json::from(health.in_flight as u64));
    json::field(
        &mut out,
        "reason",
        health.reason().map(Json::from).unwrap_or(Json::Null),
    );
    out.pop();
    out.push('}');
    out
}

/// One flight-recorder timeline as JSON: the request's tags plus a
/// `stages` object of stage-name → microseconds-since-ingress for every
/// stage the request actually passed through.
fn render_trace_record(record: &TraceRecord) -> Json {
    let mut fields = vec![
        ("id".to_string(), Json::from(record.id)),
        ("model".to_string(), Json::from(record.model.clone())),
        ("node".to_string(), Json::from(u64::from(record.node))),
        ("shard".to_string(), Json::from(u64::from(record.shard))),
        ("tier".to_string(), Json::from(record.tier as u64)),
        ("bits".to_string(), Json::from(u64::from(record.bits))),
        (
            "batch_size".to_string(),
            Json::from(record.batch_size as u64),
        ),
        ("cache_hit".to_string(), Json::Bool(record.cache_hit)),
        (
            "worker".to_string(),
            record
                .worker
                .map(|w| Json::from(w as u64))
                .unwrap_or(Json::Null),
        ),
        ("total_us".to_string(), Json::from(record.total_us)),
    ];
    fields.push((
        "stages".to_string(),
        Json::Obj(
            record
                .trace
                .stamped()
                .map(|(stage, us)| (stage.name().to_string(), Json::from(us)))
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

/// `GET /debug/requests` body: the flight recorder's recent and slow
/// timeline rings, newest last, plus the recorder's own counters.
fn render_debug_requests(engine: &ServeEngine) -> String {
    let recorder = &engine.metrics().trace.recorder;
    let mut out = String::from("{");
    json::field(
        &mut out,
        "slow_threshold_us",
        Json::from(recorder.slow_threshold().as_micros().min(u64::MAX as u128) as u64),
    );
    json::field(&mut out, "recorded", Json::from(recorder.recorded()));
    json::field(
        &mut out,
        "slow_recorded",
        Json::from(recorder.slow_recorded()),
    );
    json::field(
        &mut out,
        "recent",
        Json::Arr(recorder.recent().iter().map(render_trace_record).collect()),
    );
    json::field(
        &mut out,
        "slow",
        Json::Arr(recorder.slow().iter().map(render_trace_record).collect()),
    );
    out.pop();
    out.push('}');
    out
}

/// Appends one `histogram`-typed family in Prometheus text format:
/// cumulative `_bucket{le="…"}` lines over the histogram's non-empty
/// buckets plus the mandatory `+Inf`, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, help: &str, histogram: &LogHistogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (upper, count) in histogram.buckets() {
        cumulative += count;
        out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        histogram.count(),
        histogram.sum_us(),
        histogram.count(),
    ));
}

/// Prometheus text exposition of the engine report plus ingress counters.
fn render_metrics(engine: &ServeEngine, stats: &HttpStats) -> String {
    let report = engine.report();
    let mut out = String::new();
    let mut metric = |name: &str, kind: &str, help: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    metric(
        "mega_serve_requests_submitted_total",
        "counter",
        "Inference requests accepted by the engine.",
        report.submitted.to_string(),
    );
    metric(
        "mega_serve_requests_completed_total",
        "counter",
        "Inference requests answered.",
        report.completed.to_string(),
    );
    metric(
        "mega_serve_in_flight",
        "gauge",
        "Requests submitted but not yet answered (admission-control signal).",
        engine.in_flight().to_string(),
    );
    metric(
        "mega_serve_latency_p50_us",
        "gauge",
        "Median submit-to-response latency.",
        report.p50.as_micros().to_string(),
    );
    metric(
        "mega_serve_latency_p99_us",
        "gauge",
        "99th-percentile submit-to-response latency.",
        report.p99.as_micros().to_string(),
    );
    metric(
        "mega_serve_batches_total",
        "counter",
        "Batches executed.",
        report.batches.to_string(),
    );
    metric(
        "mega_serve_queue_depth",
        "gauge",
        "Inference requests waiting in the work queue.",
        engine.pending().to_string(),
    );
    metric(
        "mega_serve_queue_wakeups_total",
        "counter",
        "Times a worker woke from the work-queue condvar (~0 while idle).",
        report.queue_wakeups.to_string(),
    );
    metric(
        "mega_serve_logits_cache_hits_total",
        "counter",
        "Requests answered from a logits cache.",
        report.logits_hits.to_string(),
    );
    metric(
        "mega_serve_logits_cache_misses_total",
        "counter",
        "Requests answered by a forward pass.",
        report.logits_misses.to_string(),
    );
    metric(
        "mega_serve_updates_applied_total",
        "counter",
        "Graph updates applied.",
        report.updates_applied.to_string(),
    );
    metric(
        "mega_serve_est_mega_cycles_total",
        "counter",
        "Estimated MEGA accelerator cycles across batches.",
        report.est_cycles.to_string(),
    );
    metric(
        "mega_serve_http_requests_total",
        "counter",
        "HTTP requests parsed and routed.",
        stats.requests.load(Ordering::Relaxed).to_string(),
    );
    metric(
        "mega_serve_http_shed_total",
        "counter",
        "HTTP requests shed by admission control (429).",
        stats.shed.load(Ordering::Relaxed).to_string(),
    );
    metric(
        "mega_serve_http_errors_total",
        "counter",
        "HTTP requests answered with a non-2xx, non-429 status.",
        stats.errors.load(Ordering::Relaxed).to_string(),
    );
    let metrics = engine.metrics();
    metric(
        "mega_serve_traces_recorded_total",
        "counter",
        "Completed request timelines folded into the flight recorder.",
        metrics.trace.recorder.recorded().to_string(),
    );
    metric(
        "mega_serve_slow_traces_total",
        "counter",
        "Timelines past the slow threshold (retained in the slow ring).",
        metrics.trace.recorder.slow_recorded().to_string(),
    );
    if let Some(process) = process_memory() {
        metric(
            "mega_serve_process_rss_bytes",
            "gauge",
            "Resident set size of the serving process (/proc/self/status VmRSS).",
            process.rss_bytes.to_string(),
        );
        metric(
            "mega_serve_process_peak_rss_bytes",
            "gauge",
            "Peak resident set size (/proc/self/status VmHWM).",
            process.peak_rss_bytes.to_string(),
        );
    }
    render_histogram(
        &mut out,
        "mega_serve_latency_us",
        "Submit-to-response latency, microseconds.",
        &metrics.latency,
    );
    render_histogram(
        &mut out,
        "mega_serve_batch_execution_us",
        "Per-batch forward-pass execution time, microseconds.",
        &metrics.execution,
    );
    for (stage, histogram) in metrics.trace.stage_histograms() {
        render_histogram(
            &mut out,
            &format!("mega_serve_stage_{stage}_us"),
            "Per-request time in this lifecycle stage, microseconds.",
            histogram,
        );
    }
    let models = engine.memory();
    if !models.is_empty() {
        out.push_str(
            "# HELP mega_serve_model_resident_bytes Resident heap bytes per model component. adjacency: the GraphSAGE sampled rows above the sample size (0 under GCN and GIN); columns are reads of the live graph and weights are computed from its degrees, neither stored.\n\
             # TYPE mega_serve_model_resident_bytes gauge\n",
        );
        for memory in &models {
            for (component, bytes) in memory.components() {
                out.push_str(&format!(
                    "mega_serve_model_resident_bytes{{model=\"{}\",component=\"{component}\"}} {bytes}\n",
                    memory.model,
                ));
            }
        }
        // Shape gauges: enough for a scraper to compute bytes-per-node
        // and the analytic f32 baseline (2·nodes·dim·4) without knowing
        // the serving internals.
        type ShapeGauge = (&'static str, &'static str, fn(&ModelMemory) -> usize);
        let shape_gauges: [ShapeGauge; 2] = [
            (
                "mega_serve_model_nodes",
                "Nodes currently served per model (live topology).",
                |m| m.nodes,
            ),
            (
                "mega_serve_model_feature_dim",
                "Input feature dimensionality per model.",
                |m| m.feature_dim,
            ),
        ];
        for (name, help, value) in shape_gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for memory in &models {
                out.push_str(&format!(
                    "{name}{{model=\"{}\"}} {}\n",
                    memory.model,
                    value(memory),
                ));
            }
        }
    }
    let lanes = metrics.lane_snapshot();
    if !lanes.is_empty() {
        for (name, kind, help) in [
            (
                "mega_serve_lane_busy_us_total",
                "counter",
                "Time each worker lane spent processing items, microseconds.",
            ),
            (
                "mega_serve_lane_items_total",
                "counter",
                "Work items (batches + update tokens) each lane finished.",
            ),
            (
                "mega_serve_lane_arena_bytes",
                "gauge",
                "Bytes each lane's kernel arena keeps reserved after its last batch.",
            ),
            (
                "mega_serve_lane_alive",
                "gauge",
                "1 while the lane's thread is running, 0 once it exited.",
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (lane, snapshot) in lanes.iter().enumerate() {
                let value = match name {
                    "mega_serve_lane_busy_us_total" => snapshot.busy_us,
                    "mega_serve_lane_items_total" => snapshot.items,
                    "mega_serve_lane_arena_bytes" => snapshot.arena_bytes,
                    _ => u64::from(snapshot.alive),
                };
                out.push_str(&format!("{name}{{lane=\"{lane}\"}} {value}\n"));
            }
        }
    }
    out
}
