//! The poisoned-lock policy end to end: a poisoned shared lock must
//! *not* take the handler pool down — requests keep being answered —
//! but `/healthz` must flip to 503 with a reason naming the component,
//! the same pattern a dead worker triggers, so the
//! load balancer drains the replica.
//!
//! Runs in its own test binary on purpose: the poison registry is
//! process-global, and noting a component here must not flip `/healthz`
//! under the other HTTP tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::DatasetSpec;
use mega_serve::http::json::{self, Json};
use mega_serve::{
    HttpServer, HttpServerConfig, ModelRegistry, ModelSpec, ServeConfig, ServeEngine,
};

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
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
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, payload.to_string())
}

#[test]
fn poisoned_lock_degrades_healthz_but_not_the_handlers() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(ModelSpec::standard(
        DatasetSpec::cora().scaled(0.08).with_feature_dim(48),
        GnnKind::Gcn,
    ));
    let engine = Arc::new(ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry.clone(),
    ));
    for key in registry.keys() {
        engine.warm(&key).unwrap();
    }
    let server =
        HttpServer::start(HttpServerConfig::default(), engine.clone(), registry).expect("bind");
    let addr = server.local_addr();

    // Healthy baseline: /healthz 200, predicts answered.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(addr, "POST", "/v1/cora/gcn/predict", r#"{"node": 3}"#);
    assert_eq!(status, 200, "{body}");

    // Inject a poisoned-lock recovery, exactly what `poison::recover`
    // records when a holder panicked (`poison_worker`'s sibling hook).
    mega_serve::poison::note("injected-test-lock");

    // The replica reports unhealthy, with the component in the reason...
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 503, "poisoned lock must flip /healthz: {body}");
    let health = json::parse(body.as_bytes()).expect("valid JSON");
    assert_eq!(health.get("ok"), Some(&Json::Bool(false)));
    let reason = health.get("reason").unwrap().as_str().unwrap();
    assert!(
        reason.contains("injected-test-lock") && reason.contains("poisoned"),
        "reason must name the poisoned component: {reason}"
    );
    assert!(!engine.health().ok());

    // ...but the handler pool keeps serving: recovery, not collapse.
    for node in [5u32, 7, 11] {
        let (status, body) = http(
            addr,
            "POST",
            "/v1/cora/gcn/predict",
            &format!(r#"{{"node": {node}}}"#),
        );
        assert_eq!(status, 200, "predicts must survive poison: {body}");
        let parsed = json::parse(body.as_bytes()).expect("valid JSON");
        assert!(parsed.get("logits").is_some());
    }

    server.stop();
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }
}
