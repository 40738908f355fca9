//! `serve_http` — the TCP/HTTP front door to `mega-serve`: registers the
//! citation-dataset models (same lineup as `serve_demo`), starts the
//! engine, and serves [`mega_serve::http`]'s endpoints until killed:
//!
//! ```sh
//! cargo run --release -p mega-serve --bin serve_http -- --addr 127.0.0.1:8642
//! curl -s -X POST http://127.0.0.1:8642/v1/cora/gcn/predict -d '{"node": 7}'
//! curl -s -X POST http://127.0.0.1:8642/v1/cora/gcn/update \
//!   -d '{"insert": [[3, 7]]}'
//! curl -s http://127.0.0.1:8642/metrics
//! ```
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:8642`; port `0` picks an
//! ephemeral port and prints it), `--dataset NAME` (serve *only* this
//! dataset as a GCN instead of the citation lineup — any
//! [`DatasetSpec::by_name`] name, e.g. `synth:1m` for the streaming
//! million-node capacity-bench shape), `--shards K` (default 4),
//! `--workers W`, `--scale F` (dataset node-count scale), `--cache-mb MB`
//! (default 16),
//! `--connections N` (handler pool, default 8), `--max-in-flight N`
//! (admission bound, default 1024), `--wait-timeout-ms MS` (per-request
//! deadline, default 30000), `--slow-ms MS` (flight-recorder slow-request
//! threshold, default 50). Heavy traffic degrades by shedding: past the
//! in-flight bound, requests get `429` + `Retry-After` instead of
//! queueing behind everyone else.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::DatasetSpec;
use mega_serve::{
    HttpServer, HttpServerConfig, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig,
    ServeEngine, TraceConfig,
};

/// `--name value` flag, falling back to `default` when absent/malformed.
fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let addr = arg("--addr", "127.0.0.1:8642".to_string());
    let shards = arg("--shards", 4usize).max(1);
    let workers = arg(
        "--workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    )
    .max(2);
    let scale = arg("--scale", 1.0f64);
    let cache_mb = arg("--cache-mb", 16.0f64).max(0.0);
    let connections = arg("--connections", 8usize).max(1);
    let max_in_flight = arg("--max-in-flight", 1024usize).max(1);
    let wait_timeout_ms = arg("--wait-timeout-ms", 30_000u64);
    let slow_ms = arg("--slow-ms", 50u64);

    let scaled = |name: &str| {
        let spec = DatasetSpec::by_name(name).expect("known dataset");
        if scale < 1.0 {
            let full_name = spec.name.clone();
            let mut s = spec.scaled(scale);
            s.name = full_name;
            s
        } else {
            spec
        }
    };
    let registry = Arc::new(ModelRegistry::new());
    let cache_bytes = (cache_mb * 1024.0 * 1024.0) as usize;
    // `--dataset NAME` serves exactly one model (the load harness points
    // this at `synth:*` shapes); the default is the citation lineup.
    let lineup: Vec<(String, GnnKind)> = match std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--dataset")
        .map(|w| w[1].clone())
    {
        Some(name) => vec![(name, GnnKind::Gcn)],
        None => [
            ("cora", GnnKind::Gcn),
            ("citeseer", GnnKind::Gcn),
            ("pubmed", GnnKind::Gcn),
            ("cora", GnnKind::Gin),
        ]
        .into_iter()
        .map(|(n, k)| (n.to_string(), k))
        .collect(),
    };
    for (name, kind) in lineup {
        registry.register(
            ModelSpec::standard(scaled(&name), kind)
                .with_shards(shards)
                .with_cache_bytes(cache_bytes),
        );
    }

    let engine = Arc::new(ServeEngine::start_detached(
        ServeConfig {
            workers,
            scheduler: SchedulerConfig::default(),
            cache_capacity: 8,
            trace: TraceConfig {
                slow_threshold: Duration::from_millis(slow_ms),
                ..TraceConfig::default()
            },
        },
        registry.clone(),
    ));
    for key in registry.keys() {
        engine.warm(&key).expect("warm registered model");
        eprintln!("[warm] {key} artifacts ready");
    }

    let server = HttpServer::start(
        HttpServerConfig {
            addr,
            connections,
            max_in_flight,
            wait_timeout: Duration::from_millis(wait_timeout_ms),
            ..HttpServerConfig::default()
        },
        engine,
        registry,
    )
    .expect("bind ingress");
    // Parseable by scripts (and humans): the one line that matters.
    println!("serve_http listening on http://{}", server.local_addr());
    println!(
        "endpoints: POST /v1/{{dataset}}/{{kind}}/predict  POST /v1/{{dataset}}/{{kind}}/update  GET /metrics  GET /debug/requests  GET /healthz"
    );
    // Serve until killed. The handler pool owns all the work; parking the
    // main thread forever costs nothing (and matches the engine's own
    // event-driven design — no poll loop here either).
    loop {
        std::thread::park();
    }
}
