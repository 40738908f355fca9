//! `loadgen` — open-loop capacity harness for `serve_http`.
//!
//! Drives a running ingress over `--connections` keep-alive HTTP/1.1
//! connections with **open-loop Poisson arrivals**: each connection draws
//! its own exponential inter-arrival schedule (superposed rate =
//! `--rates` step), and every request's latency is measured from its
//! *scheduled* arrival time, not its send time — a backed-up connection
//! charges the backlog to latency instead of silently thinning the
//! offered load (no coordinated omission).
//!
//! Per rate step it reports offered load, goodput (200s/s), shed rate
//! (429s), latency p50/p99, and the fraction of answered requests over
//! the `--slo-ms` budget; after the sweep it scrapes `/metrics` and
//! reduces the per-model memory gauges to resident feature bytes per node
//! plus the analytic f32 baseline `2·nodes·dim·4` — what the
//! pre-bit-plane layout (raw f32 matrix + quantized f32 mirror) held for
//! the same shapes — and, next to that feature-only ratio, the model's
//! total counted resident bytes per node (every component, not only
//! features). Results land in `--out` as JSON (the capacity curve
//! committed as `BENCH_pr9.json`).
//!
//! A keep-alive connection the server closed while idle fails before any
//! response byte arrives; such a request is resent once on a fresh
//! connection and counts as an error only if that fails too (edge
//! inserts are upserts, so the resend is idempotent).
//!
//! `--update-frac F` mixes graph mutations into the arrival stream: each
//! arrival becomes a random-endpoint edge insert (`{"insert": [[s, d]]}`
//! against `/update`) with probability `F` instead of a predict. Update
//! latency percentiles and the `logits_invalidated` counters parsed from
//! the update acks are reported per rate step, so the capacity curve
//! shows what cold-predict goodput costs while invalidation churn runs.
//!
//! ```sh
//! cargo run --release -p mega-serve --bin serve_http -- \
//!   --addr 127.0.0.1:8642 --dataset synth:1m --shards 8 &
//! cargo run --release -p mega-serve --bin loadgen -- \
//!   --addr 127.0.0.1:8642 --dataset synth:1m \
//!   --rates 500,1000,2000,4000 --duration-s 10 --out BENCH_pr9.json
//! ```
//!
//! Flags: `--addr HOST:PORT`, `--dataset NAME`, `--kind gcn|gin|sage`,
//! `--connections N` (default 16), `--rates CSV` (req/s steps),
//! `--duration-s S` (per step, default 10), `--slo-ms MS` (default 50),
//! `--update-frac F` (default 0, fraction of arrivals that mutate),
//! `--seed U64`, `--out PATH` (default `BENCH_pr9.json`), `--smoke`
//! (assert goodput > 0, shedding observed, updates applied when mixed,
//! and post-load recovery — the CI gate), `--assert-lean X` (assert the
//! analytic f32 baseline is at least `X`× the measured resident feature
//! bytes).

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `--name value` flag, falling back to `default` when absent/malformed.
fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Why an [`exchange`] failed.
#[derive(Debug)]
enum ExchangeError {
    /// No response byte arrived: the write failed, or the server closed
    /// or reset the connection first. On a reused keep-alive connection
    /// this is the server's idle timeout, not a failed request.
    NoResponse,
    /// The response broke off or did not parse.
    Broken,
}

/// One keep-alive HTTP/1.1 exchange; returns the status code and body.
/// An `Err` means the connection is dead.
fn exchange(
    stream: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ExchangeError> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let mut status_line = String::new();
    let sent = stream
        .get_mut()
        .write_all(request.as_bytes())
        .and_then(|()| stream.read_line(&mut status_line));
    match sent {
        Ok(0) => Err(ExchangeError::NoResponse),
        Ok(_) => read_response(stream, &status_line).map_err(|_| ExchangeError::Broken),
        Err(_) if status_line.is_empty() => Err(ExchangeError::NoResponse),
        Err(_) => Err(ExchangeError::Broken),
    }
}

/// Reads the headers and body that follow `status_line`.
fn read_response(
    stream: &mut BufReader<TcpStream>,
    status_line: &str,
) -> std::io::Result<(u16, String)> {
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if stream.read_line(&mut header)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn connect(addr: &str) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(BufReader::new(stream))
}

/// [`exchange`] on `conn`, connecting first when it is empty. A reused
/// connection that fails before any response byte is resent once on a
/// fresh connection. `conn` is left empty after any failure, so the next
/// call reconnects.
fn send(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ExchangeError> {
    if let Some(reused) = conn.as_mut() {
        match exchange(reused, method, path, body) {
            Err(ExchangeError::NoResponse) => {}
            Err(e) => {
                *conn = None;
                return Err(e);
            }
            ok => return ok,
        }
    }
    *conn = None;
    let fresh = conn.insert(connect(addr).map_err(|_| ExchangeError::NoResponse)?);
    let result = exchange(fresh, method, path, body);
    if result.is_err() {
        *conn = None;
    }
    result
}

/// Scrapes `/metrics` and extracts the labeled gauge values for `model`.
struct ModelGauges {
    nodes: u64,
    feature_dim: u64,
    /// `component -> bytes` from `mega_serve_model_resident_bytes`.
    components: Vec<(String, u64)>,
}

fn scrape(addr: &str, model: &str) -> ModelGauges {
    let mut conn = connect(addr).expect("connect for /metrics");
    let (status, text) = exchange(&mut conn, "GET", "/metrics", "").expect("scrape /metrics");
    assert_eq!(status, 200, "metrics endpoint healthy");
    let labeled = |name: &str, extra: &str| -> Vec<(String, u64)> {
        text.lines()
            .filter(|l| l.starts_with(name) && l.contains(&format!("model=\"{model}\"")))
            .filter(|l| extra.is_empty() || l.contains(extra))
            .filter_map(|l| {
                let value: u64 = l.rsplit(' ').next()?.parse().ok()?;
                let component = l
                    .split("component=\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .unwrap_or("")
                    .to_string();
                Some((component, value))
            })
            .collect()
    };
    let single = |name: &str| -> u64 {
        labeled(name, "")
            .first()
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("gauge {name} for model {model} missing in /metrics"))
    };
    ModelGauges {
        nodes: single("mega_serve_model_nodes{"),
        feature_dim: single("mega_serve_model_feature_dim{"),
        components: labeled("mega_serve_model_resident_bytes{", ""),
    }
}

#[derive(Default)]
struct StepTally {
    offered: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    updates_ok: AtomicU64,
    updates_shed: AtomicU64,
    /// Sum of `logits_invalidated` parsed from update acks.
    invalidated: AtomicU64,
}

struct StepResult {
    rate: f64,
    offered: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    updates_ok: u64,
    updates_shed: u64,
    logits_invalidated: u64,
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
    update_p50_us: u64,
    update_p99_us: u64,
    slo_violation_frac: f64,
}

/// Pulls the integer value of `"name": N` out of a JSON response body.
/// The ack shapes are flat, so a scan beats pulling in a parser here.
fn json_u64_field(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let rest = &body[body.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn percentile_of(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx]
}

/// Runs one open-loop step: `rate` req/s for `duration`, split across
/// `connections` independent Poisson processes.
#[allow(clippy::too_many_arguments)]
fn run_step(
    addr: &str,
    predict_path: &str,
    update_path: &str,
    nodes: u64,
    rate: f64,
    duration: Duration,
    connections: usize,
    slo: Duration,
    update_frac: f64,
    seed: u64,
) -> StepResult {
    let tally = Arc::new(StepTally::default());
    let started = Instant::now();
    let per_conn_rate = rate / connections as f64;
    let mut handles = Vec::new();
    for conn_id in 0..connections {
        let addr = addr.to_string();
        let path = predict_path.to_string();
        let upath = update_path.to_string();
        let tally = tally.clone();
        handles.push(std::thread::spawn(move || -> (Vec<u64>, Vec<u64>) {
            let mut rng = StdRng::seed_from_u64(seed ^ (conn_id as u64).wrapping_mul(0x9E37));
            let mut conn = None;
            let mut latencies_us = Vec::new();
            let mut update_latencies_us = Vec::new();
            let mut next_arrival = Duration::ZERO;
            loop {
                // Exponential inter-arrival: -ln(U)/λ, U in (0, 1].
                let u: f64 = 1.0 - rng.gen::<f64>();
                next_arrival += Duration::from_secs_f64((-u.ln()) / per_conn_rate);
                if next_arrival >= duration {
                    break;
                }
                let scheduled = started + next_arrival;
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                tally.offered.fetch_add(1, Ordering::Relaxed);
                // Mixed workload: this arrival is a graph mutation with
                // probability `update_frac` — a random-endpoint edge
                // insert, the delta shape that drives logits-cache
                // invalidation through the halo closure.
                let is_update = update_frac > 0.0 && rng.gen::<f64>() < update_frac;
                let (req_path, body) = if is_update {
                    let src = rng.gen_range(0..nodes);
                    let dst = (src + 1 + rng.gen_range(0..nodes.max(2) - 1)) % nodes;
                    (upath.as_str(), format!("{{\"insert\": [[{src}, {dst}]]}}"))
                } else {
                    let node = rng.gen_range(0..nodes);
                    (path.as_str(), format!("{{\"node\": {node}}}"))
                };
                match send(&mut conn, &addr, "POST", req_path, &body) {
                    Ok((200, response)) => {
                        let us = scheduled.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        if is_update {
                            tally.updates_ok.fetch_add(1, Ordering::Relaxed);
                            update_latencies_us.push(us);
                            if let Some(n) = json_u64_field(&response, "logits_invalidated") {
                                tally.invalidated.fetch_add(n, Ordering::Relaxed);
                            }
                        } else {
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                            latencies_us.push(us);
                        }
                    }
                    Ok((429, _)) => {
                        if is_update {
                            tally.updates_shed.fetch_add(1, Ordering::Relaxed);
                        } else {
                            tally.shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(_) => {
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            (latencies_us, update_latencies_us)
        }));
    }
    let mut latencies = Vec::new();
    let mut update_latencies = Vec::new();
    for handle in handles {
        let (predict_us, update_us) = handle.join().expect("connection thread");
        latencies.extend(predict_us);
        update_latencies.extend(update_us);
    }
    latencies.sort_unstable();
    update_latencies.sort_unstable();
    let slo_us = slo.as_micros() as u64;
    let violations = latencies.iter().filter(|&&us| us > slo_us).count();
    StepResult {
        rate,
        offered: tally.offered.load(Ordering::Relaxed),
        ok: tally.ok.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        errors: tally.errors.load(Ordering::Relaxed),
        updates_ok: tally.updates_ok.load(Ordering::Relaxed),
        updates_shed: tally.updates_shed.load(Ordering::Relaxed),
        logits_invalidated: tally.invalidated.load(Ordering::Relaxed),
        elapsed_s: started.elapsed().as_secs_f64(),
        p50_us: percentile_of(&latencies, 0.50),
        p99_us: percentile_of(&latencies, 0.99),
        update_p50_us: percentile_of(&update_latencies, 0.50),
        update_p99_us: percentile_of(&update_latencies, 0.99),
        slo_violation_frac: if latencies.is_empty() {
            0.0
        } else {
            violations as f64 / latencies.len() as f64
        },
    }
}

fn main() {
    let addr = arg("--addr", "127.0.0.1:8642".to_string());
    let dataset = arg("--dataset", "synth:1m".to_string());
    let kind = arg("--kind", "gcn".to_string());
    let connections = arg("--connections", 16usize).max(1);
    let rates_csv = arg("--rates", "500,1000,2000,4000,8000".to_string());
    let duration = Duration::from_secs_f64(arg("--duration-s", 10.0f64).max(0.5));
    let slo = Duration::from_millis(arg("--slo-ms", 50u64));
    let update_frac = arg("--update-frac", 0.0f64).clamp(0.0, 1.0);
    let seed = arg("--seed", 0x10AD_6E6E_u64);
    let out_path = arg("--out", "BENCH_pr9.json".to_string());
    let smoke = flag("--smoke");
    let assert_lean = arg("--assert-lean", 0.0f64);

    let kind_label = match kind.to_ascii_lowercase().as_str() {
        "gin" => "GIN",
        "sage" | "graphsage" => "GraphSAGE",
        _ => "GCN",
    };
    let model = format!("{dataset}/{kind_label}");
    let predict_path = format!("/v1/{dataset}/{kind}/predict");
    let update_path = format!("/v1/{dataset}/{kind}/update");

    let rates: Vec<f64> = rates_csv
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&r| r > 0.0)
        .collect();
    assert!(!rates.is_empty(), "--rates parsed to nothing: {rates_csv}");

    let before = scrape(&addr, &model);
    eprintln!(
        "[loadgen] {model}: {} nodes, dim {}",
        before.nodes, before.feature_dim
    );

    let mut steps = Vec::new();
    for (step_idx, &rate) in rates.iter().enumerate() {
        // Mix the step index into the seed: replaying the same node
        // sequence at every rate would turn later steps into pure
        // logits-cache hits and flatter the capacity curve.
        let step = run_step(
            &addr,
            &predict_path,
            &update_path,
            before.nodes,
            rate,
            duration,
            connections,
            slo,
            update_frac,
            seed.wrapping_add((step_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        eprintln!(
            "[loadgen] rate {:>8.0}/s offered {:>7} ok {:>7} shed {:>6} err {:>4} p50 {:>7}us p99 {:>8}us slo-viol {:.3}",
            step.rate, step.offered, step.ok, step.shed, step.errors, step.p50_us, step.p99_us,
            step.slo_violation_frac
        );
        if update_frac > 0.0 {
            eprintln!(
                "[loadgen]   updates: ok {:>6} shed {:>5} p50 {:>7}us p99 {:>8}us logits invalidated {}",
                step.updates_ok,
                step.updates_shed,
                step.update_p50_us,
                step.update_p99_us,
                step.logits_invalidated
            );
        }
        steps.push(step);
    }

    // Memory reduction: measured resident feature bytes (packed planes +
    // whatever raw source survives) against the analytic f32 layout the
    // packed store replaced — raw matrix + quantized mirror for the same
    // row count. The feature-only ratio leaves out the adjacency and the
    // logits caches, so the total counted bytes per node print beside it.
    let after = scrape(&addr, &model);
    let component = |name: &str| -> u64 {
        after
            .components
            .iter()
            .find(|(c, _)| c == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let feature_resident = component("features") + component("raw_features");
    let f32_row = after.feature_dim * 4;
    let baseline = 2 * after.nodes * f32_row;
    let reduction = baseline as f64 / feature_resident.max(1) as f64;
    let per_node = |bytes: u64| bytes as f64 / after.nodes.max(1) as f64;
    let bytes_per_node = per_node(feature_resident);
    let baseline_per_node = per_node(baseline);
    let total_resident: u64 = after.components.iter().map(|&(_, bytes)| bytes).sum();
    let total_per_node = per_node(total_resident);
    eprintln!(
        "[loadgen] resident feature bytes: {feature_resident} ({bytes_per_node:.1} B/node) vs f32 baseline {baseline} ({baseline_per_node:.1} B/node) — {reduction:.2}x lean on features; all counted components {total_resident} ({total_per_node:.1} B/node)"
    );

    // JSON out: the capacity curve + memory reduction, one self-contained
    // document (committed as BENCH_pr9.json).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"model\": \"{model}\",\n  \"connections\": {connections},\n  \"duration_s\": {},\n  \"slo_ms\": {},\n  \"update_frac\": {update_frac},\n",
        duration.as_secs_f64(),
        slo.as_millis()
    ));
    json.push_str(&format!(
        "  \"nodes\": {},\n  \"feature_dim\": {},\n",
        after.nodes, after.feature_dim
    ));
    json.push_str("  \"memory\": {\n");
    for (component, bytes) in &after.components {
        json.push_str(&format!("    \"{component}_bytes\": {bytes},\n"));
    }
    json.push_str(&format!(
        "    \"feature_resident_bytes\": {feature_resident},\n    \"feature_bytes_per_node\": {bytes_per_node:.2},\n    \"f32_baseline_bytes\": {baseline},\n    \"f32_baseline_bytes_per_node\": {baseline_per_node:.2},\n    \"reduction_factor\": {reduction:.3},\n    \"total_resident_bytes_per_node\": {total_per_node:.2}\n  }},\n"
    ));
    json.push_str("  \"capacity_curve\": [\n");
    for (i, s) in steps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_rate\": {:.1}, \"offered\": {}, \"goodput_rps\": {:.1}, \"ok\": {}, \"shed_429\": {}, \"errors\": {}, \"p50_us\": {}, \"p99_us\": {}, \"slo_violation_frac\": {:.4}, \"updates_ok\": {}, \"updates_shed\": {}, \"update_p50_us\": {}, \"update_p99_us\": {}, \"logits_invalidated\": {}}}{}\n",
            s.rate,
            s.offered,
            s.ok as f64 / s.elapsed_s,
            s.ok,
            s.shed,
            s.errors,
            s.p50_us,
            s.p99_us,
            s.slo_violation_frac,
            s.updates_ok,
            s.updates_shed,
            s.update_p50_us,
            s.update_p99_us,
            s.logits_invalidated,
            if i + 1 == steps.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("loadgen wrote {out_path}");

    // CI gates.
    if assert_lean > 0.0 {
        assert!(
            reduction >= assert_lean,
            "resident feature bytes not lean enough: {reduction:.2}x < required {assert_lean}x"
        );
        eprintln!("[loadgen] lean assertion passed ({reduction:.2}x >= {assert_lean}x)");
    }
    if smoke {
        let total_ok: u64 = steps.iter().map(|s| s.ok).sum();
        let total_shed: u64 = steps.iter().map(|s| s.shed).sum();
        assert!(total_ok > 0, "smoke: no request ever succeeded");
        assert!(
            total_shed > 0,
            "smoke: overload never shed — raise the top rate or lower --max-in-flight"
        );
        if update_frac > 0.0 {
            let total_updates: u64 = steps.iter().map(|s| s.updates_ok).sum();
            assert!(total_updates > 0, "smoke: no mixed update ever succeeded");
        }
        // Recovery: once the load stops, a fresh request is served again
        // rather than shed (the admission window drains).
        let mut conn = None;
        let recovered = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(100));
            matches!(
                send(&mut conn, &addr, "POST", &predict_path, "{\"node\": 0}"),
                Ok((200, _))
            )
        });
        assert!(recovered, "smoke: server did not recover after overload");
        eprintln!(
            "[loadgen] smoke assertions passed (ok {total_ok}, shed {total_shed}, recovered)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_serve::{HttpServer, HttpServerConfig, ModelRegistry, ServeConfig, ServeEngine};

    #[test]
    fn a_connection_closed_while_idle_is_resent_on_a_fresh_one() {
        let registry = Arc::new(ModelRegistry::new());
        let engine = Arc::new(ServeEngine::start_detached(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            registry.clone(),
        ));
        let server = HttpServer::start(
            HttpServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..HttpServerConfig::default()
            },
            engine.clone(),
            registry,
        )
        .expect("bind");
        let addr = server.local_addr().to_string();
        let mut stale = connect(&addr).expect("connect");
        let mut conn = Some(connect(&addr).expect("connect"));
        assert_eq!(exchange(&mut stale, "GET", "/metrics", "").unwrap().0, 200);
        assert_eq!(
            send(&mut conn, &addr, "GET", "/metrics", "").unwrap().0,
            200
        );

        // Both connections outlive the server's idle timeout. A bare
        // exchange on one fails without a response byte; `send` on the
        // other resends and succeeds.
        std::thread::sleep(Duration::from_millis(300));
        assert!(matches!(
            exchange(&mut stale, "GET", "/metrics", ""),
            Err(ExchangeError::NoResponse)
        ));
        assert_eq!(
            send(&mut conn, &addr, "GET", "/metrics", "").unwrap().0,
            200
        );

        server.stop();
        Arc::into_inner(engine).expect("ingress stopped").shutdown();
    }
}
