//! End-to-end coverage of the TCP/HTTP ingress: predict/update/metrics
//! over a real socket, bit-exactness of the wire path against
//! `submit_wait`, admission-control shedding (429 then recovery), and
//! error mapping.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::http::json::{self, Json};
use mega_serve::{
    HttpServer, HttpServerConfig, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig,
    ServeEngine,
};

fn start_stack(
    scheduler: SchedulerConfig,
    http: HttpServerConfig,
) -> (Arc<ServeEngine>, HttpServer) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        ModelSpec::standard(
            DatasetSpec::cora().scaled(0.08).with_feature_dim(48),
            GnnKind::Gcn,
        )
        .with_shards(2),
    );
    let engine = Arc::new(ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            scheduler,
            ..ServeConfig::default()
        },
        registry.clone(),
    ));
    for key in registry.keys() {
        engine.warm(&key).unwrap();
    }
    let server = HttpServer::start(http, engine.clone(), registry).expect("bind");
    (engine, server)
}

/// One raw HTTP/1.1 exchange on a fresh connection; returns
/// `(status, headers, body)`.
fn http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, payload.to_string())
}

#[test]
fn predict_update_metrics_over_tcp() {
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        },
        HttpServerConfig::default(),
    );
    let addr = server.local_addr();
    let key = mega_serve::ModelKey::new("Cora", GnnKind::Gcn);

    // Predict over TCP...
    let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 7}");
    assert_eq!(status, 200, "{body}");
    let wire = json::parse(body.as_bytes()).expect("valid JSON");
    assert_eq!(wire.get("node").unwrap().as_u64(), Some(7));
    let wire_logits: Vec<f64> = wire
        .get("logits")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|l| l.as_f64().unwrap())
        .collect();
    // ...is bit-exact with the in-process ticket path (the wire format
    // must not lose a single f32 bit).
    let direct = engine
        .submit_wait(&key, 7, Duration::from_secs(30))
        .expect("in-process answer");
    assert_eq!(wire_logits.len(), direct.logits.len());
    for (w, d) in wire_logits.iter().zip(&direct.logits) {
        assert_eq!(
            (*w as f32).to_bits(),
            d.to_bits(),
            "wire logits must round-trip bit-exactly"
        );
    }
    assert_eq!(
        wire.get("predicted_class").unwrap().as_u64(),
        Some(direct.predicted_class as u64)
    );
    assert_eq!(
        wire.get("bits").unwrap().as_u64(),
        Some(u64::from(direct.bits))
    );

    // Update over TCP: insert an edge, ack carries the effect.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/cora/gcn/update",
        "{\"insert\": [[3, 7]]}",
    );
    assert_eq!(status, 200, "{body}");
    let ack = json::parse(body.as_bytes()).unwrap();
    assert_eq!(ack.get("applied"), Some(&Json::Bool(true)));
    assert_eq!(ack.get("inserted_edges").unwrap().as_u64(), Some(1));
    assert_eq!(ack.get("version").unwrap().as_u64(), Some(1));

    // Metrics exposition reflects the traffic.
    let (status, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "mega_serve_requests_completed_total",
        "mega_serve_in_flight 0",
        "mega_serve_queue_wakeups_total",
        "mega_serve_queue_depth 0",
        "mega_serve_updates_applied_total 1",
        "mega_serve_http_requests_total",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // Error mapping: unknown model 404, malformed body 400, bad method
    // 405, unknown path 404.
    assert_eq!(http(addr, "POST", "/v1/nope/gcn/predict", "{}").0, 404);
    assert_eq!(
        http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": }").0,
        400
    );
    assert_eq!(http(addr, "POST", "/v1/cora/gcn/predict", "{}").0, 400);
    assert_eq!(
        http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 999999}").0,
        400,
        "out-of-range node maps to a client error"
    );
    assert_eq!(http(addr, "GET", "/v1/cora/gcn/predict", "").0, 405);
    assert_eq!(http(addr, "GET", "/nope", "").0, 404);

    // Chunked bodies are not Content-Length framed; the server must say
    // so (501) instead of desyncing the connection on the chunk headers.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(
                b"POST /v1/cora/gcn/predict HTTP/1.1\r\nhost: test\r\n\
                  transfer-encoding: chunked\r\n\r\nb\r\n{\"node\": 7}\r\n0\r\n\r\n",
            )
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 501 "),
            "chunked requests are rejected, not misparsed: {raw}"
        );
    }

    server.stop();
    engine_shutdown(engine);
}

/// Overload degrades by shedding: once in-flight tickets reach the bound,
/// predicts answer `429` + `Retry-After`; when the backlog drains, the
/// very next request is accepted again.
#[test]
fn backpressure_sheds_with_429_then_recovers() {
    // Requests park in the scheduler for ~400ms (deadline-only flush), so
    // two concurrent predicts hold the in-flight count at the bound long
    // enough to observe shedding deterministically.
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 1_000,
            max_delay: Duration::from_millis(400),
        },
        HttpServerConfig {
            connections: 4,
            max_in_flight: 2,
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let blocked: Vec<_> = (0..2u32)
        .map(|node| {
            std::thread::spawn(move || {
                http(
                    addr,
                    "POST",
                    "/v1/cora/gcn/predict",
                    &format!("{{\"node\": {node}}}"),
                )
            })
        })
        .collect();
    // Let both land in the scheduler, then hit the admission wall.
    let shed_deadline = std::time::Instant::now() + Duration::from_millis(300);
    let mut shed = None;
    while std::time::Instant::now() < shed_deadline {
        if engine.in_flight() >= 2 {
            shed = Some(http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 9}"));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, headers, body) = shed.expect("two predicts must be in flight within 300ms");
    assert_eq!(status, 429, "{body}");
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "retry-after" && v.parse::<u64>().is_ok()),
        "shed responses carry Retry-After: {headers:?}"
    );
    // The blocked predicts complete once the deadline flushes them.
    for handle in blocked {
        let (status, _, body) = handle.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    // Recovery: in-flight is back under the bound; traffic flows again.
    let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 9}");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("mega_serve_http_shed_total 1"),
        "exactly one shed request counted:\n{metrics}"
    );
    server.stop();
    engine_shutdown(engine);
}

/// `Retry-After` rounds the configured hint *up* to whole seconds: a
/// 1500 ms backoff must advertise `2`, not truncate to `1` and invite
/// retries before the backoff has elapsed.
#[test]
fn retry_after_rounds_up_to_whole_seconds() {
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 1_000,
            max_delay: Duration::from_millis(400),
        },
        HttpServerConfig {
            connections: 4,
            max_in_flight: 2,
            retry_after: Duration::from_millis(1500),
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let blocked: Vec<_> = (0..2u32)
        .map(|node| {
            std::thread::spawn(move || {
                http(
                    addr,
                    "POST",
                    "/v1/cora/gcn/predict",
                    &format!("{{\"node\": {node}}}"),
                )
            })
        })
        .collect();
    let shed_deadline = std::time::Instant::now() + Duration::from_millis(300);
    let mut shed = None;
    while std::time::Instant::now() < shed_deadline {
        if engine.in_flight() >= 2 {
            shed = Some(http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 9}"));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, headers, body) = shed.expect("two predicts must be in flight within 300ms");
    assert_eq!(status, 429, "{body}");
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.as_str())
        .expect("shed responses carry Retry-After");
    assert_eq!(
        retry_after, "2",
        "1500ms must round up to 2s, not truncate to 1s"
    );
    for handle in blocked {
        let (status, _, body) = handle.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    server.stop();
    engine_shutdown(engine);
}

/// Non-finite feature values are rejected with 400. `1e999` overflows
/// f64 parsing to `+inf`; `1e300` is a finite f64 that only overflows when
/// narrowed to the f32 feature row, so the check must run on the f32
/// values. Unchecked, either would reach quantization (NaN quantizes to
/// level 0 silently, inf poisons every downstream alpha) and poison the
/// logits caches.
#[test]
fn update_rejects_non_finite_feature_values() {
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        },
        HttpServerConfig::default(),
    );
    let addr = server.local_addr();
    for payload in [
        "{\"add_nodes\": [[1.0, 1e999]]}",
        "{\"add_nodes\": [[-1e999, 0.5]]}",
        "{\"add_nodes\": [[1.0, 1e300]]}",
    ] {
        let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/update", payload);
        assert_eq!(status, 400, "{payload} must be rejected: {body}");
        assert!(
            body.contains("finite"),
            "error names the finiteness rule: {body}"
        );
    }
    // The rejected updates must not have advanced the model version.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/cora/gcn/update",
        "{\"insert\": [[3, 7]]}",
    );
    assert_eq!(status, 200, "{body}");
    let ack = json::parse(body.as_bytes()).unwrap();
    assert_eq!(
        ack.get("version").unwrap().as_u64(),
        Some(1),
        "shed updates must not consume a version"
    );
    server.stop();
    engine_shutdown(engine);
}

/// `/healthz` reports real liveness: 200 with per-lane state while every
/// worker runs, 503 with a reason once a worker dies (here killed by
/// fault injection, exactly as a panic in batch execution would).
#[test]
fn healthz_flips_to_503_when_a_lane_dies() {
    let (engine, server) = start_stack(SchedulerConfig::default(), HttpServerConfig::default());
    let addr = server.local_addr();

    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let health = json::parse(body.as_bytes()).expect("valid JSON");
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    let lanes = health.get("lanes_alive").unwrap().as_array().unwrap();
    assert_eq!(lanes.len(), 2, "one liveness flag per worker lane");
    assert!(lanes.iter().all(|l| *l == Json::Bool(true)));
    assert_eq!(health.get("reason"), Some(&Json::Null));

    // Kill a worker and wait for the endpoint to notice.
    engine.poison_worker();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let (status, body) = loop {
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        if status != 200 || std::time::Instant::now() >= deadline {
            break (status, body);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status, 503, "dead lane must flip /healthz: {body}");
    let health = json::parse(body.as_bytes()).expect("valid JSON");
    assert_eq!(health.get("ok"), Some(&Json::Bool(false)));
    let lanes = health.get("lanes_alive").unwrap().as_array().unwrap();
    let dead = lanes.iter().filter(|l| **l == Json::Bool(false)).count();
    assert_eq!(dead, 1, "exactly the poisoned worker is reported dead");
    let reason = health.get("reason").unwrap().as_str().unwrap();
    assert!(
        reason.contains("lane"),
        "reason names the dead lane: {reason}"
    );

    server.stop();
    engine_shutdown(engine);
}

/// A dead worker strands nothing: every worker pulls from one queue, so
/// with 2 workers and K = 4, killing one still answers a predict for a
/// node of every shard and an update, while `/healthz` reports 503.
#[test]
fn a_dead_worker_strands_nothing() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(
        ModelSpec::standard(
            DatasetSpec::cora().scaled(0.08).with_feature_dim(48),
            GnnKind::Gcn,
        )
        .with_shards(4),
    );
    let engine = Arc::new(ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry.clone(),
    ));
    engine.warm(&key).unwrap();
    let server =
        HttpServer::start(HttpServerConfig::default(), engine.clone(), registry).expect("bind");
    let addr = server.local_addr();

    engine.poison_worker();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while http(addr, "GET", "/healthz", "").0 == 200 {
        assert!(
            std::time::Instant::now() < deadline,
            "the poisoned worker never died"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut by_shard = std::collections::BTreeMap::new();
    for node in 0..200 as NodeId {
        let (shard, _, _) = engine.locate(&key, node).unwrap();
        by_shard.entry(shard).or_insert(node);
    }
    assert_eq!(by_shard.len(), 4, "a node of every shard");
    let mut tickets: Vec<_> = by_shard
        .values()
        .map(|&node| engine.submit(&key, node).unwrap())
        .collect();
    let mut delta = GraphDelta::new();
    delta.insert_edge(by_shard[&0], by_shard[&1]);
    tickets.push(engine.submit_update(&key, delta, vec![]).unwrap());
    for ticket in tickets {
        ticket
            .wait(Duration::from_secs(10))
            .expect("answered despite the dead worker");
    }
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 503, "the dead worker stays reported: {body}");

    server.stop();
    engine_shutdown(engine);
}

/// `/debug/requests` exposes the flight recorder: recent timelines with
/// monotone stage offsets, and submit-time cache hits tagged as such.
#[test]
fn debug_requests_exposes_recorded_timelines() {
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        },
        HttpServerConfig::default(),
    );
    let addr = server.local_addr();
    // Twice the same node: the second predict short-circuits on the
    // logits cache at submit time.
    for _ in 0..2 {
        let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 5}");
        assert_eq!(status, 200, "{body}");
    }

    let (status, _, body) = http(addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200, "{body}");
    let debug = json::parse(body.as_bytes()).expect("valid JSON");
    assert_eq!(debug.get("recorded").unwrap().as_u64(), Some(2));
    let recent = debug.get("recent").unwrap().as_array().unwrap();
    assert_eq!(recent.len(), 2, "both timelines retained");
    for record in recent {
        let stages = record.get("stages").expect("stages object");
        let ingress = stages.get("ingress").unwrap().as_u64().unwrap();
        let submitted = stages.get("submitted").unwrap().as_u64().unwrap();
        let delivered = stages.get("delivered").unwrap().as_u64().unwrap();
        assert_eq!(ingress, 0, "trace origin is the ingress stamp");
        assert!(submitted <= delivered, "stage offsets are monotone");
        assert!(record.get("total_us").unwrap().as_u64().unwrap() > 0);
    }
    let hits: Vec<bool> = recent
        .iter()
        .map(|r| *r.get("cache_hit").unwrap() == Json::Bool(true))
        .collect();
    assert_eq!(hits, vec![false, true], "second predict hit the cache");
    // The cache-hit timeline has a cache_hit stamp and no worker stages.
    let hit = &recent[1];
    assert!(hit.get("stages").unwrap().get("cache_hit").is_some());
    assert!(hit.get("stages").unwrap().get("exec_start").is_none());
    assert_eq!(hit.get("worker"), Some(&Json::Null));

    server.stop();
    engine_shutdown(engine);
}

/// Lints one Prometheus text-exposition document: every line is a
/// comment (`# HELP` / `# TYPE` with a valid metric name) or a sample
/// (`name[{labels}] value` with a parseable value), and every `# TYPE`
/// family has at least one sample. Returns the typed family names.
fn lint_prometheus(text: &str) -> Vec<(String, String)> {
    let valid_name =
        |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let tail = parts.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword: {line}"
            );
            assert!(valid_name(name), "bad metric name in: {line}");
            if keyword == "TYPE" {
                assert!(
                    ["counter", "gauge", "histogram"].contains(&tail),
                    "bad type in: {line}"
                );
                families.push((name.to_string(), tail.to_string()));
            } else {
                assert!(!tail.is_empty(), "HELP without text: {line}");
            }
            continue;
        }
        // Sample line: name or name{label="v",…}, then exactly one value.
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let name = match name_part.split_once('{') {
            Some((name, labels)) => {
                assert!(labels.ends_with('}'), "unterminated labels: {line}");
                let labels = &labels[..labels.len() - 1];
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label is k=\"v\"");
                    assert!(valid_name(k) || k == "le", "bad label name in: {line}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in: {line}"
                    );
                }
                name
            }
            None => name_part,
        };
        assert!(valid_name(name), "bad sample name in: {line}");
        samples.push(name.to_string());
    }
    for (family, kind) in &families {
        let matched = if kind == "histogram" {
            ["_bucket", "_sum", "_count"].iter().all(|suffix| {
                samples
                    .iter()
                    .any(|s| s.as_str() == format!("{family}{suffix}"))
            })
        } else {
            samples.iter().any(|s| s == family)
        };
        assert!(matched, "family {family} ({kind}) has no samples");
    }
    families
}

/// Satellite check: the `/metrics` exposition parses under the Prometheus
/// text grammar end to end, and every expected family — scalars,
/// stage histograms, memory and lane gauges — is present and typed.
#[test]
fn metrics_exposition_is_prometheus_parseable_and_complete() {
    let (engine, server) = start_stack(
        SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        },
        HttpServerConfig::default(),
    );
    let addr = server.local_addr();
    // Drive one uncached predict and one update so counters, histograms,
    // and per-model gauges all have data.
    assert_eq!(
        http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 3}").0,
        200
    );
    assert_eq!(
        http(
            addr,
            "POST",
            "/v1/cora/gcn/update",
            "{\"insert\": [[2, 3]]}"
        )
        .0,
        200
    );

    let (status, _, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let families = lint_prometheus(&text);
    let family_names: Vec<&str> = families.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "mega_serve_requests_submitted_total",
        "mega_serve_requests_completed_total",
        "mega_serve_in_flight",
        "mega_serve_latency_p50_us",
        "mega_serve_updates_applied_total",
        "mega_serve_http_requests_total",
        "mega_serve_traces_recorded_total",
        "mega_serve_slow_traces_total",
        "mega_serve_process_rss_bytes",
        "mega_serve_latency_us",
        "mega_serve_batch_execution_us",
        "mega_serve_stage_queue_wait_us",
        "mega_serve_stage_batch_wait_us",
        "mega_serve_stage_execute_us",
        "mega_serve_stage_deliver_us",
        "mega_serve_model_resident_bytes",
        "mega_serve_model_nodes",
        "mega_serve_model_feature_dim",
        "mega_serve_lane_busy_us_total",
        "mega_serve_queue_depth",
        "mega_serve_queue_wakeups_total",
        "mega_serve_lane_arena_bytes",
        "mega_serve_lane_alive",
    ] {
        assert!(
            family_names.contains(&expected),
            "missing family {expected} in:\n{text}"
        );
    }
    // Histogram buckets are cumulative and le-labeled.
    assert!(
        text.contains("mega_serve_stage_execute_us_bucket{le=\"+Inf\"}"),
        "histograms carry the mandatory +Inf bucket:\n{text}"
    );
    // Per-model gauges are labeled by model and component.
    assert!(
        text.contains("mega_serve_model_resident_bytes{model=\"Cora/GCN\",component=\"features\"}"),
        "per-model memory gauges are labeled:\n{text}"
    );
    // Shape gauges expose what a capacity scraper needs to compute
    // bytes-per-node and the analytic f32 baseline.
    assert!(
        text.contains("mega_serve_model_nodes{model=\"Cora/GCN\"}"),
        "per-model node-count gauge present:\n{text}"
    );

    server.stop();
    engine_shutdown(engine);
}

/// `Arc<ServeEngine>` teardown helper: the ingress holds no engine clone
/// after `stop()`, so the last Arc unwraps and shuts down cleanly.
fn engine_shutdown(engine: Arc<ServeEngine>) {
    let engine = Arc::into_inner(engine).expect("ingress stopped, engine uniquely owned");
    engine.shutdown();
}

#[test]
fn idle_connections_are_reaped_by_the_read_timeout() {
    let (engine, server) = start_stack(
        SchedulerConfig::default(),
        HttpServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // A connection that never sends a byte must be closed by the server
    // once `idle_timeout` elapses — not parked forever in the handler
    // pool, where enough silent clients would exhaust the `connections`
    // slots and starve real traffic.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let start = std::time::Instant::now();
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).expect("server closes the idle socket");
    assert_eq!(n, 0, "clean EOF, no data");
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "not reaped before the timeout window"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "reaped promptly after the timeout, took {:?}",
        start.elapsed()
    );

    // A half-sent request (headers never terminated) is reaped the same
    // way: the per-line read hits the timeout and the handler drops the
    // connection rather than waiting on the missing bytes.
    let mut partial = TcpStream::connect(addr).expect("connect");
    partial
        .write_all(b"POST /v1/cora/gcn/predict HTTP/1.1\r\nhost: t\r\n")
        .unwrap();
    partial
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let n = partial
        .read(&mut buf)
        .expect("server closes the stalled socket");
    assert_eq!(n, 0, "clean EOF on the stalled request");

    // The freed handler slots still serve well-formed traffic.
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.stop();
    engine_shutdown(engine);
}

/// Sends `head` on a fresh connection and returns the status the server
/// answers with (`None` if it closes without one) plus how long that took.
fn send_unterminated(addr: std::net::SocketAddr, head: &[u8]) -> (Option<u16>, Duration) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let start = std::time::Instant::now();
    // The server may answer and close before taking every byte; a failed
    // write is then expected, not an error.
    let _ = stream.write_all(head);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let status = String::from_utf8_lossy(&raw)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok());
    (status, start.elapsed())
}

#[test]
fn over_long_lines_are_rejected_before_the_idle_timeout() {
    // One handler slot: a handler held by an endless line would starve
    // the predict below.
    let (engine, server) = start_stack(
        SchedulerConfig::default(),
        HttpServerConfig {
            connections: 1,
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let filler = vec![b'a'; 64 << 10];

    // 64 KiB of header with no newline: answered (431) or dropped well
    // inside the 5 s idle timeout, not buffered until it fires.
    let mut head = b"POST /v1/cora/gcn/predict HTTP/1.1\r\nx-filler: ".to_vec();
    head.extend_from_slice(&filler);
    let (status, took) = send_unterminated(addr, &head);
    assert!(
        took < Duration::from_secs(2),
        "over-long header held the handler for {took:?}"
    );
    assert!(matches!(status, None | Some(431)), "{status:?}");

    // The same for the request line itself (414).
    let mut line = b"GET /".to_vec();
    line.extend_from_slice(&filler);
    let (status, took) = send_unterminated(addr, &line);
    assert!(
        took < Duration::from_secs(2),
        "over-long request line held the handler for {took:?}"
    );
    assert!(matches!(status, None | Some(414)), "{status:?}");

    // The only handler is free again for a normal predict.
    let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 7}");
    assert_eq!(status, 200, "{body}");

    server.stop();
    engine_shutdown(engine);
}

#[test]
fn trickled_requests_are_cut_off_at_the_idle_timeout() {
    // One handler slot and a 1 s idle timeout. A client sending one byte
    // every 300 ms never lets a single read time out, so only a deadline
    // on the whole request frees the handler.
    let (engine, server) = start_stack(
        SchedulerConfig::default(),
        HttpServerConfig {
            connections: 1,
            idle_timeout: Duration::from_secs(1),
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let head = b"POST /v1/cora/gcn/predict HTTP/1.1\r\nhost: test\r\nx-trickle: aaaaaaaaaaaaaaaa";
    let start = std::time::Instant::now();
    let mut cut_off = None;
    for &byte in head {
        if start.elapsed() > Duration::from_secs(5) {
            break;
        }
        if stream.write_all(&[byte]).is_err() {
            cut_off = Some(start.elapsed());
            break;
        }
        // Waiting on the socket paces the trickle: a timed-out read means
        // the server is still holding the request open.
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            // EOF, a status line (408), or a reset: the server let go.
            _ => {
                cut_off = Some(start.elapsed());
                break;
            }
        }
    }
    let took = cut_off.expect("the trickled request held the handler for 5 s");
    assert!(
        took < Duration::from_secs(2),
        "the trickled request held the handler for {took:?}"
    );

    // The only handler is free again for a normal predict.
    let (status, _, body) = http(addr, "POST", "/v1/cora/gcn/predict", "{\"node\": 7}");
    assert_eq!(status, 200, "{body}");

    server.stop();
    engine_shutdown(engine);
}
