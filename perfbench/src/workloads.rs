//! The three workloads: their settings, the engine set-up they share, and
//! the single client thread that drives each timed phase.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta};
use mega_serve::http::json::{self, Json};
use mega_serve::{
    HttpServer, HttpServerConfig, ModelKey, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig,
    ServeEngine, ServeError, Ticket, TraceConfig, WaitError,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::client::Client;
use crate::gen::{permutation, stream, Zipf};
use crate::layers::process_cpu_s;

/// Stream ids for [`stream`]: one independent stream per input kind.
pub const TARGETS: u64 = 1;
pub const POPULARITY: u64 = 2;
pub const UPDATES: u64 = 3;
pub const GATE: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdHttp,
    ZipfWindow,
    ChurnSerial,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdHttp,
        Workload::ZipfWindow,
        Workload::ChurnSerial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdHttp => "cold_http",
            Workload::ZipfWindow => "zipf_window",
            Workload::ChurnSerial => "churn_serial",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run is configured with; all of it goes into the report.
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub spec: ModelSpec,
    pub serve: ServeConfig,
    /// The in-process ingress, on `cold_http` only.
    pub http: Option<HttpServerConfig>,
    /// Requests one client keeps in flight.
    pub window: usize,
    pub zipf_exponent: f64,
    /// Untimed windows sent before the timed phase (`zipf_window`).
    pub warmup_windows: usize,
    /// Operations per `churn_serial` cycle; the last one is the update.
    pub cycle: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Served nodes the correctness gate recomputes.
    pub gate_sample: usize,
    /// Targets the traced run replays one at a time.
    pub replay_targets: usize,
    pub wait_timeout: Duration,
}

impl Settings {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nodes = match workload {
            Workload::ColdHttp | Workload::ZipfWindow => 100_000,
            Workload::ChurnSerial => 50_000,
        };
        let spec = ModelSpec::standard(DatasetSpec::synth(nodes).with_seed(seed), GnnKind::Gcn);
        let trace_config = if trace {
            // Keep every request's record; nothing is slow enough for the
            // outlier ring.
            TraceConfig {
                recent_capacity: 1 << 20,
                slow_capacity: 0,
                slow_threshold: Duration::from_secs(3600),
            }
        } else {
            TraceConfig::default()
        };
        let serve = ServeConfig {
            workers: nproc,
            scheduler: SchedulerConfig::default(),
            cache_capacity: 1,
            trace: trace_config,
        };
        let http = (workload == Workload::ColdHttp).then(|| HttpServerConfig {
            connections: nproc,
            ..HttpServerConfig::default()
        });
        Self {
            workload,
            seed,
            seconds,
            trace,
            nproc,
            spec,
            serve,
            http,
            window: if workload == Workload::ZipfWindow {
                128
            } else {
                1
            },
            zipf_exponent: 1.0,
            warmup_windows: if workload == Workload::ZipfWindow {
                20
            } else {
                0
            },
            cycle: if workload == Workload::ChurnSerial {
                8
            } else {
                0
            },
            setups: 3,
            gate_sample: 64,
            replay_targets: 100,
            wait_timeout: Duration::from_secs(30),
        }
    }

    pub fn nodes(&self) -> usize {
        self.spec.dataset.nodes
    }

    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::from(d.as_secs_f64() * 1e3);
        let mut fields = vec![
            ("workload", Json::from(self.workload.name().to_string())),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("nproc", Json::from(self.nproc as u64)),
            ("dataset", Json::from(self.spec.dataset.name.clone())),
            ("dataset_seed", Json::from(self.spec.dataset.seed)),
            ("nodes", Json::from(self.nodes() as u64)),
            ("edges", Json::from(self.spec.dataset.directed_edges as u64)),
            ("model", Json::from(self.spec.key().to_string())),
            ("shards", Json::from(self.spec.shards as u64)),
            ("weight_bits", Json::from(u64::from(self.spec.weight_bits))),
            (
                "logits_cache_bytes",
                Json::from(self.spec.cache_bytes as u64),
            ),
            ("policy", Json::from(format!("{:?}", self.spec.policy))),
            ("workers", Json::from(self.serve.workers as u64)),
            (
                "max_batch",
                Json::from(self.serve.scheduler.max_batch as u64),
            ),
            ("max_delay_ms", ms(self.serve.scheduler.max_delay)),
            (
                "artifact_cache_capacity",
                Json::from(self.serve.cache_capacity as u64),
            ),
            (
                "trace_recent_capacity",
                Json::from(self.serve.trace.recent_capacity as u64),
            ),
            ("client_threads", Json::from(1u64)),
            ("window", Json::from(self.window as u64)),
            ("zipf_exponent", Json::from(self.zipf_exponent)),
            ("warmup_windows", Json::from(self.warmup_windows as u64)),
            ("cycle", Json::from(self.cycle as u64)),
            ("setups", Json::from(self.setups as u64)),
            ("gate_sample", Json::from(self.gate_sample as u64)),
            ("replay_targets", Json::from(self.replay_targets as u64)),
            ("wait_timeout_ms", ms(self.wait_timeout)),
        ];
        if let Some(http) = &self.http {
            fields.extend([
                ("http_addr", Json::from(http.addr.clone())),
                ("http_connections", Json::from(http.connections as u64)),
                ("http_max_in_flight", Json::from(http.max_in_flight as u64)),
                ("http_retry_after_ms", ms(http.retry_after)),
                ("http_wait_timeout_ms", ms(http.wait_timeout)),
                ("http_idle_timeout_ms", ms(http.idle_timeout)),
            ]);
        }
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// A running engine with its model registered and warm, behind the HTTP
/// ingress where the workload uses one.
pub struct Served {
    pub engine: Arc<ServeEngine>,
    pub key: ModelKey,
    pub http: Option<HttpServer>,
}

impl Served {
    /// Starts the engine, registers and warms the model, and starts the
    /// ingress: everything until the first request can be served.
    pub fn start(settings: &Settings) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register(settings.spec.clone());
        let engine = Arc::new(ServeEngine::start_detached(
            settings.serve.clone(),
            registry.clone(),
        ));
        engine.warm(&key).expect("the model was just registered");
        let http = settings.http.as_ref().map(|config| {
            HttpServer::start(config.clone(), engine.clone(), registry)
                .expect("bind the HTTP ingress")
        });
        Self { engine, key, http }
    }

    pub fn stop(self) {
        if let Some(http) = self.http {
            http.stop();
        }
        let engine =
            Arc::into_inner(self.engine).expect("no other engine handle outlives the ingress");
        engine.shutdown();
    }
}

/// Operations attempted and failed, per kind, failures by class.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: BTreeMap<&'static str, u64>,
    pub failed: BTreeMap<&'static str, BTreeMap<&'static str, u64>>,
}

impl Ops {
    fn attempt(&mut self, kind: &'static str) {
        *self.attempted.entry(kind).or_default() += 1;
    }

    fn fail(&mut self, kind: &'static str, class: &'static str) {
        *self
            .failed
            .entry(kind)
            .or_default()
            .entry(class)
            .or_default() += 1;
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.values().flat_map(BTreeMap::values).sum()
    }

    pub fn to_json(&self) -> Json {
        let kinds = self.attempted.keys().map(|&kind| {
            let failed = self.failed.get(kind);
            let classes = failed.map_or(Vec::new(), |f| {
                f.iter()
                    .map(|(&c, &n)| (c.to_string(), Json::from(n)))
                    .collect()
            });
            let entry = Json::Obj(vec![
                ("attempted".into(), Json::from(self.attempted[kind])),
                (
                    "failed".into(),
                    Json::from(failed.map_or(0, |f| f.values().sum())),
                ),
                ("failed_by_class".into(), Json::Obj(classes)),
            ]);
            (kind.to_string(), entry)
        });
        Json::Obj(kinds.collect())
    }
}

fn serve_error_class(error: &ServeError) -> &'static str {
    match error {
        ServeError::UnknownModel(_) => "unknown_model",
        ServeError::NodeOutOfRange { .. } => "node_out_of_range",
        ServeError::BadUpdate(_) => "bad_update",
        ServeError::Wait(WaitError::Timeout(_)) => "wait_timeout",
        ServeError::Wait(WaitError::Dropped) => "wait_dropped",
    }
}

/// One client-side operation, kept by the traced run to build spans.
#[derive(Debug, Clone)]
pub struct ClientRecord {
    /// `Ticket::id()`, or the id on the HTTP reply.
    pub id: u64,
    pub submit: Instant,
    /// When the client began waiting for the answer.
    pub wait: Instant,
    pub done: Instant,
    /// The engine-measured latency of an update; `None` for a predict.
    pub engine_latency: Option<Duration>,
}

/// What a timed phase observed.
#[derive(Default)]
pub struct Timed {
    pub predict_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// Process CPU seconds spent while updates were in flight.
    pub update_cpu_s: f64,
    pub wall_s: f64,
    pub ops: Ops,
    /// The first logits served for each node.
    pub served: BTreeMap<u32, Vec<f32>>,
    /// Nodes whose later answers differed from their first.
    pub inconsistent: usize,
    /// Predict targets in the order sent.
    pub sent: Vec<u32>,
    /// The update edges, in the order applied.
    pub edges: Vec<(u32, u32)>,
    pub records: Vec<ClientRecord>,
    pub http_connects: u64,
}

impl Timed {
    fn served(&mut self, node: u32, logits: Vec<f32>) {
        match self.served.get(&node) {
            Some(first) if !same_bits(first, &logits) => self.inconsistent += 1,
            Some(_) => {}
            None => {
                self.served.insert(node, logits);
            }
        }
    }
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The popularity model the Zipf workloads draw targets from.
pub fn popularity(settings: &Settings) -> Zipf {
    Zipf::new(
        settings.nodes(),
        settings.zipf_exponent,
        &mut stream(settings.seed, POPULARITY),
    )
}

/// Runs the workload's timed phase against `served`.
pub fn drive(settings: &Settings, served: &Served) -> Timed {
    match settings.workload {
        Workload::ColdHttp => cold_http(settings, served),
        Workload::ZipfWindow => zipf_window(settings, served),
        Workload::ChurnSerial => churn_serial(settings, served),
    }
}

fn deadline(settings: &Settings) -> (Instant, Instant) {
    let start = Instant::now();
    (start, start + Duration::from_secs_f64(settings.seconds))
}

fn cold_http(settings: &Settings, served: &Served) -> Timed {
    let http = served.http.as_ref().expect("cold_http serves over HTTP");
    let config = settings
        .http
        .as_ref()
        .expect("cold_http has an ingress config");
    let targets = permutation(settings.nodes(), &mut stream(settings.seed, TARGETS));
    let path = format!("/v1/{}/gcn/predict", settings.spec.dataset.name);
    let mut client = Client::new(http.local_addr(), config.idle_timeout);
    let mut timed = Timed::default();
    // The connection opens after set-up, before the clock starts. If it
    // fails, the first request reconnects and counts any failure.
    let _ = client.connect();
    let (start, end) = deadline(settings);
    let mut targets = targets.into_iter();
    while Instant::now() < end {
        let node = targets
            .next()
            .expect("a run never sends more predicts than nodes");
        timed.ops.attempt("predict");
        timed.sent.push(node);
        let submit = Instant::now();
        let reply = client.post(&path, &format!("{{\"node\":{node}}}"));
        let done = Instant::now();
        match reply.map(|body| parse_prediction(&body)) {
            Ok(Some((id, logits))) => {
                timed.predict_ms.push(ms(done - submit));
                timed.served(node, logits);
                if settings.trace {
                    timed.records.push(ClientRecord {
                        id,
                        submit,
                        wait: submit,
                        done,
                        engine_latency: None,
                    });
                }
            }
            Ok(None) => timed.ops.fail("predict", "bad_reply_body"),
            Err(failure) => timed.ops.fail("predict", failure.class()),
        }
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.http_connects = client.connects;
    timed
}

/// `(id, logits)` from a predict reply body.
fn parse_prediction(body: &[u8]) -> Option<(u64, Vec<f32>)> {
    let reply = json::parse(body).ok()?;
    let id = reply.get("id")?.as_u64()?;
    let logits = reply
        .get("logits")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map(|x| x as f32))
        .collect::<Option<Vec<f32>>>()?;
    Some((id, logits))
}

fn zipf_window(settings: &Settings, served: &Served) -> Timed {
    let zipf = popularity(settings);
    let mut rng = stream(settings.seed, TARGETS);
    let mut warmup = Timed::default();
    for _ in 0..settings.warmup_windows {
        window(settings, served, &zipf, &mut rng, &mut warmup);
    }
    let mut timed = Timed::default();
    let (start, end) = deadline(settings);
    while Instant::now() < end {
        window(settings, served, &zipf, &mut rng, &mut timed);
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// Submits `settings.window` Zipf targets, then waits for each in order.
fn window(settings: &Settings, served: &Served, zipf: &Zipf, rng: &mut StdRng, timed: &mut Timed) {
    let submitted: Vec<(u32, Instant, Result<Ticket, ServeError>)> = (0..settings.window)
        .map(|_| {
            let node = zipf.sample(rng);
            let submit = Instant::now();
            (node, submit, served.engine.submit(&served.key, node))
        })
        .collect();
    for (node, submit, ticket) in submitted {
        timed.ops.attempt("predict");
        timed.sent.push(node);
        let wait = Instant::now();
        let answer = ticket.and_then(|t| {
            let id = t.id();
            t.wait_inference(settings.wait_timeout)
                .map(|r| (id, r))
                .map_err(ServeError::Wait)
        });
        let done = Instant::now();
        match answer {
            Ok((id, response)) => {
                timed.predict_ms.push(ms(done - submit));
                timed.served(node, response.logits);
                if settings.trace {
                    timed.records.push(ClientRecord {
                        id,
                        submit,
                        wait,
                        done,
                        engine_latency: None,
                    });
                }
            }
            Err(error) => timed.ops.fail("predict", serve_error_class(&error)),
        }
    }
}

fn churn_serial(settings: &Settings, served: &Served) -> Timed {
    let zipf = popularity(settings);
    let mut targets = stream(settings.seed, TARGETS);
    let mut endpoints = stream(settings.seed, UPDATES);
    let nodes = settings.nodes() as u64;
    let mut timed = Timed::default();
    let (start, end) = deadline(settings);
    let mut op = 0usize;
    while Instant::now() < end {
        op += 1;
        if !op.is_multiple_of(settings.cycle) {
            let node = zipf.sample(&mut targets);
            timed.sent.push(node);
            // Answers change as updates land, so only the final probe
            // round is checked.
            predict_one(settings, served, node, "predict", &mut timed);
            continue;
        }
        let (src, dst) = update_edge(&zipf, &mut endpoints, nodes);
        timed.ops.attempt("update");
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        let (submit, cpu) = (Instant::now(), process_cpu_s());
        let answer = served
            .engine
            .submit_update(&served.key, delta, Vec::new())
            .and_then(|t| {
                let id = t.id();
                t.wait_update(settings.wait_timeout)
                    .map(|r| (id, r))
                    .map_err(ServeError::Wait)
            });
        let done = Instant::now();
        // One operation is in flight, so the process's CPU over this
        // interval is the update's. An update takes about 200 ms, so the
        // 10 ms resolution of the CPU clock is fine enough.
        timed.update_cpu_s += process_cpu_s() - cpu;
        match answer {
            Ok((_, ack)) if !ack.applied() => timed.ops.fail("update", "rejected"),
            Ok((id, ack)) => {
                timed.update_ms.push(ms(done - submit));
                timed.edges.push((src, dst));
                if settings.trace {
                    timed.records.push(ClientRecord {
                        id,
                        submit,
                        wait: submit,
                        done,
                        engine_latency: Some(ack.latency),
                    });
                }
            }
            Err(error) => timed.ops.fail("update", serve_error_class(&error)),
        }
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// One `churn_serial` update edge: into a Zipf-popular node, so hot cache
/// entries go stale, from a uniform source other than itself.
pub fn update_edge(zipf: &Zipf, rng: &mut StdRng, nodes: u64) -> (u32, u32) {
    let dst = zipf.sample(rng);
    let src = rng.gen_range(0..nodes) as u32;
    let src = if src == dst {
        (src + 1) % nodes as u32
    } else {
        src
    };
    (src, dst)
}

/// One blocking predict through a ticket: a timed `"predict"`, or a
/// `"probe"` whose logits the correctness gate checks.
fn predict_one(
    settings: &Settings,
    served: &Served,
    node: u32,
    kind: &'static str,
    timed: &mut Timed,
) {
    timed.ops.attempt(kind);
    let submit = Instant::now();
    let answer = served.engine.submit(&served.key, node).and_then(|t| {
        let wait = Instant::now();
        let id = t.id();
        t.wait_inference(settings.wait_timeout)
            .map(|r| (id, wait, r))
            .map_err(ServeError::Wait)
    });
    let done = Instant::now();
    match answer {
        Ok((_, _, response)) if kind == "probe" => timed.served(node, response.logits),
        Ok((id, wait, _)) => {
            timed.predict_ms.push(ms(done - submit));
            if settings.trace {
                timed.records.push(ClientRecord {
                    id,
                    submit,
                    wait,
                    done,
                    engine_latency: None,
                });
            }
        }
        Err(error) => timed.ops.fail(kind, serve_error_class(&error)),
    }
}

/// The final probe round of `churn_serial`: the hottest nodes plus the
/// latest update destinations, answered after every update has landed.
pub fn probe_round(settings: &Settings, served: &Served, edges: &[(u32, u32)]) -> Timed {
    let zipf = popularity(settings);
    let half = settings.gate_sample / 2;
    let mut nodes: Vec<u32> = zipf.hottest(half).to_vec();
    for &(_, dst) in edges.iter().rev() {
        if nodes.len() >= settings.gate_sample {
            break;
        }
        if !nodes.contains(&dst) {
            nodes.push(dst);
        }
    }
    let mut probe = Timed::default();
    for node in nodes {
        predict_one(settings, served, node, "probe", &mut probe);
    }
    probe
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
