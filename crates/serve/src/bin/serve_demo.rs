//! End-to-end demo of `mega-serve`: registers the three citation datasets
//! (plus a second architecture on Cora) sharded K ways, drives ≥10k
//! synthetic requests through the batched degree-aware engine on a
//! worker pool sharing one work queue, then runs a *churn* phase — streaming edge
//! insertions and node upserts that promote a node across degree-tier
//! boundaries (and across shard boundaries) while inference traffic keeps
//! flowing — and prints per-model and per-shard summary tables plus the
//! engine report.
//!
//! Traffic is **Zipf-skewed** (`--zipf s`, default 1.0): node popularity
//! follows `rank^-s` over a seeded shuffle of each model's nodes, the
//! popular-entity skew that makes the per-shard logits cache
//! (`--cache-mb`) pay off — hot nodes short-circuit the forward pass
//! entirely, and graph churn invalidates exactly the entries it reaches.
//! `--cache-mb 0` disables result caching (the uncached baseline for
//! `BENCH_pr4.json`); `--zipf 0` degenerates to uniform traffic.
//!
//! ```sh
//! cargo run --release -p mega-serve --bin serve_demo -- --shards 4 --cache-mb 16
//! ```
//!
//! After the open-loop burst and the churn phase, a **closed-loop** phase
//! (`--closed-loop N`, default 2000) measures steady-state point-query
//! serving — one request in flight, each cycle waiting for its response —
//! which is where the cache's short-circuit translates directly into
//! throughput (an open-loop burst already amortizes duplicate hot nodes
//! inside each batch, so it understates the cache).
//!
//! Every response is observed through its **ticket**: the open-loop and
//! churn phases keep theirs and redeem them after churn, and each
//! closed-loop cycle is woken the moment its response exists
//! (`submit_wait`). The per-model and update tables are built from those
//! responses, and the demo asserts that none was lost: nothing is left in
//! flight before shutdown, and the per-model totals equal the predicts
//! submitted. After the closed loop the demo holds the engine *idle* for
//! `--idle-ms` and reports worker wakeups per idle second: workers park
//! on the work-queue condvar while it is empty, so this is ~0.
//!
//! Flags: `--shards K` (default 4), `--requests N`, `--scale F`,
//! `--workers W`, `--cache-mb MB` (default 16), `--zipf S` (default 1.0),
//! `--closed-loop N` (default 2000), `--idle-ms MS` (default 1000).
//! Env fallbacks: `MEGA_SERVE_REQUESTS` (default 12000),
//! `MEGA_SERVE_WORKERS` (default: all cores, at least 4),
//! `MEGA_SERVE_SCALE` (dataset node-count scale, default 1.0),
//! `MEGA_SERVE_SHARDS`, `MEGA_SERVE_CACHE_MB`, `MEGA_SERVE_ZIPF`,
//! `MEGA_SERVE_CLOSED_LOOP`.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta};
use mega_quant::DegreePolicy;
use mega_serve::{
    ModelKey, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig, ServeEngine, ServeResponse,
    Ticket, TraceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--name value` flag, falling back to `default` when absent/malformed.
fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A Zipf(s) sampler over `n` ranks: rank `r` is drawn with probability
/// proportional to `(r + 1)^-s`. Ranks map to node ids through a seeded
/// shuffle so popularity is uncorrelated with generator id order (hubs and
/// leaves are hot alike — the cache must not get the answer for free from
/// id locality). `s = 0` is uniform.
struct Zipf {
    cumulative: Vec<f64>,
    nodes: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut StdRng) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates over the rank → node mapping.
        for i in (1..n).rev() {
            nodes.swap(i, rng.gen_range(0..i + 1));
        }
        Self { cumulative, nodes }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().expect("non-empty population");
        let x = rng.gen::<f64>() * total;
        let rank = self.cumulative.partition_point(|&c| c < x);
        self.nodes[rank.min(self.nodes.len() - 1)]
    }
}

struct PerModel {
    requests: u64,
    cached: u64,
    latencies_us: Vec<u64>,
    batch_sum: u64,
    bits: HashMap<u8, u64>,
}

impl PerModel {
    fn new() -> Self {
        Self {
            requests: 0,
            cached: 0,
            latencies_us: Vec::new(),
            batch_sum: 0,
            bits: HashMap::new(),
        }
    }

    fn quantile(&mut self, q: f64) -> Duration {
        if self.latencies_us.is_empty() {
            return Duration::ZERO;
        }
        self.latencies_us.sort_unstable();
        let idx = ((q * self.latencies_us.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_us.len())
            - 1;
        Duration::from_micros(self.latencies_us[idx])
    }
}

fn main() {
    let requests = arg("--requests", env_usize("MEGA_SERVE_REQUESTS", 12_000));
    let workers = arg(
        "--workers",
        env_usize(
            "MEGA_SERVE_WORKERS",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        ),
    )
    .max(4);
    let scale = arg("--scale", env_f64("MEGA_SERVE_SCALE", 1.0));
    let shards = arg("--shards", env_usize("MEGA_SERVE_SHARDS", 4)).max(1);
    let cache_mb = arg("--cache-mb", env_f64("MEGA_SERVE_CACHE_MB", 16.0)).max(0.0);
    let cache_bytes = (cache_mb * 1024.0 * 1024.0) as usize;
    let zipf = arg("--zipf", env_f64("MEGA_SERVE_ZIPF", 1.0)).max(0.0);
    let closed_loop = arg("--closed-loop", env_usize("MEGA_SERVE_CLOSED_LOOP", 2_000));
    let idle_ms = arg("--idle-ms", 1_000u64);

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
    let register = |name: &str, kind: GnnKind| {
        registry.register(
            ModelSpec::standard(scaled(name), kind)
                .with_shards(shards)
                .with_cache_bytes(cache_bytes),
        )
    };
    let keys: Vec<ModelKey> = vec![
        register("cora", GnnKind::Gcn),
        register("citeseer", GnnKind::Gcn),
        register("pubmed", GnnKind::Gcn),
        register("cora", GnnKind::Gin),
    ];
    // Traffic mix over the registered models, summing to 1.
    let mix = [0.35, 0.25, 0.25, 0.15];
    let nodes: Vec<usize> = keys
        .iter()
        .map(|k| registry.get(k).expect("registered").dataset.nodes)
        .collect();

    println!(
        "mega-serve demo — {} models over {} datasets, {workers} workers, \
         {shards} shards/model, {requests} Zipf({zipf}) requests, \
         {cache_mb} MiB logits cache/model",
        keys.len(),
        3
    );

    let config = ServeConfig {
        workers,
        scheduler: SchedulerConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
        },
        cache_capacity: 8,
        trace: TraceConfig::default(),
    };
    let engine = ServeEngine::start_detached(config, registry.clone());

    for key in &keys {
        let started = Instant::now();
        engine.warm(key).expect("warm registered model");
        println!("[warm] {key} artifacts built in {:.2?}", started.elapsed());
    }

    // Synthetic traffic: models drawn from the mix; nodes drawn from a
    // Zipf(s) popularity distribution per model — the popular-entity skew
    // the logits cache exploits (and MEGA's degree tiers anticipate).
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let popularity: Vec<Zipf> = nodes
        .iter()
        .map(|&n| Zipf::new(n, zipf, &mut rng))
        .collect();
    // Weighted model choice over `mix` — shared by the open- and
    // closed-loop phases so both sample the same traffic distribution.
    let pick_model = |rng: &mut StdRng| -> usize {
        let mut pick = rng.gen::<f64>();
        let mut model = 0;
        for (i, &p) in mix.iter().enumerate() {
            if pick < p {
                model = i;
                break;
            }
            pick -= p;
            model = i;
        }
        model
    };

    // Open-loop and churn tickets, redeemed once churn has been submitted.
    let mut tickets: Vec<Ticket> = Vec::with_capacity(requests);
    let started = Instant::now();
    for _ in 0..requests {
        let model = pick_model(&mut rng);
        let node = popularity[model].sample(&mut rng);
        tickets.push(
            engine
                .submit(&keys[model], node)
                .expect("submit to registered model"),
        );
    }
    let submit_elapsed = started.elapsed();

    // ── Churn phase ────────────────────────────────────────────────────
    // Stream graph mutations into Cora/GCN while inference continues:
    // promote a low-degree node across tier boundaries by wiring edges
    // into it, and upsert two brand-new nodes citing it.
    let churn_key = &keys[0];
    let churn_nodes = nodes[0] as u32;
    let target = (0..churn_nodes)
        .find(|&v| engine.probe(churn_key, v).expect("probe").0 == 0)
        .expect("a power-law graph has tier-0 nodes");
    let (tier_before, bits_before) = engine.probe(churn_key, target).unwrap();
    let mut churn_inferences = 0u64;
    let mut churn_updates = 0u64;
    let mut inserted = 0usize;
    for src in 0..churn_nodes {
        if src == target {
            continue;
        }
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, target);
        tickets.push(
            engine
                .submit_update(churn_key, delta, vec![])
                .expect("churn update"),
        );
        churn_updates += 1;
        inserted += 1;
        // Inference on the promoting node rides along with the churn.
        if inserted.is_multiple_of(4) {
            tickets.push(engine.submit(churn_key, target).expect("churn inference"));
            churn_inferences += 1;
        }
        if inserted == 40 {
            break;
        }
    }
    // Node upserts: two new nodes citing the (now hot) target.
    let dim = registry
        .get(churn_key)
        .expect("registered")
        .dataset
        .feature_dim;
    let mut upsert = GraphDelta::new();
    upsert.add_node().add_node();
    upsert
        .insert_edge(churn_nodes, target)
        .insert_edge(churn_nodes + 1, target)
        .insert_edge(target, churn_nodes);
    let feature_rows = vec![vec![0.5; dim], vec![0.25; dim]];
    let upsert_ticket = engine
        .submit_update(churn_key, upsert, feature_rows)
        .expect("node upsert");
    churn_updates += 1;

    // Wait for the promotion to become observable, then serve the target
    // and the freshly added node at their new bitwidths. Updates apply
    // FIFO per model, so the final upsert's acknowledgement fences every
    // churn update before it.
    let expected_bits = DegreePolicy::paper_default().bits_for_degree(inserted);
    let ack = upsert_ticket
        .wait_update(Duration::from_secs(30))
        .expect("upsert acknowledged");
    assert!(ack.applied(), "upsert delta is valid");
    assert!(
        engine.probe(churn_key, target).unwrap().1 >= expected_bits,
        "FIFO fence: promotion visible once the last update is acked"
    );
    tickets.push(upsert_ticket);
    let (tier_after, bits_after) = engine.probe(churn_key, target).unwrap();
    let (target_shard, _, _) = engine.locate(churn_key, target).unwrap();
    println!(
        "\n[churn] node {target} (shard {target_shard}) promoted {bits_before}b -> {bits_after}b \
         (tier {tier_before} -> {tier_after}) after +{inserted} edges; \
         {churn_updates} updates interleaved with live traffic"
    );
    println!(
        "[churn] upserted nodes {} and {} serve at {}b/{}b",
        churn_nodes,
        churn_nodes + 1,
        engine.probe(churn_key, churn_nodes).unwrap().1,
        engine.probe(churn_key, churn_nodes + 1).unwrap().1,
    );
    for node in [target, churn_nodes, churn_nodes + 1] {
        tickets.push(
            engine
                .submit(churn_key, node)
                .expect("post-churn inference"),
        );
        churn_inferences += 1;
    }

    // ── Closed-loop phase ──────────────────────────────────────────────
    // Steady-state point-query serving: one request in flight at a time,
    // each cycle waiting for its response before submitting the next.
    // This is the traffic shape where batching cannot amortize repeated
    // hot nodes across a burst, so the logits cache's short-circuit (no
    // scheduler delay, no forward pass) shows up directly in end-to-end
    // throughput — the cached-vs-uncached number BENCH_pr4.json records.
    let mut all_responses: Vec<ServeResponse> = tickets
        .iter()
        .map(|ticket| ticket.wait(Duration::from_secs(30)).expect("answered"))
        .collect();
    let open_wall = started.elapsed();
    let mut closed_elapsed = Duration::ZERO;
    let mut closed_cached = 0u64;
    let mut closed_latencies_us: Vec<u64> = Vec::with_capacity(closed_loop);
    if closed_loop > 0 {
        let t0 = Instant::now();
        for _ in 0..closed_loop {
            let model = pick_model(&mut rng);
            let node = popularity[model].sample(&mut rng);
            let cycle = Instant::now();
            // The ticket's condvar wakes this thread the moment the
            // response exists.
            let response = engine
                .submit_wait(&keys[model], node, Duration::from_secs(30))
                .expect("closed-loop response");
            closed_latencies_us.push(cycle.elapsed().as_micros().min(u64::MAX as u128) as u64);
            if response.cached {
                closed_cached += 1;
            }
            all_responses.push(ServeResponse::Inference(response));
        }
        closed_elapsed = t0.elapsed();
        closed_latencies_us.sort_unstable();
        let quantile = |q: f64| {
            let idx = ((q * closed_latencies_us.len() as f64).ceil() as usize)
                .clamp(1, closed_latencies_us.len())
                - 1;
            Duration::from_micros(closed_latencies_us[idx])
        };
        println!(
            "\n[closed-loop] {closed_loop} request→response cycles in {:.2?} \
             ({:.0} req/s, p50 {:.3?} / p99 {:.3?}, {:.1}% answered from the logits cache)",
            closed_elapsed,
            closed_loop as f64 / closed_elapsed.as_secs_f64(),
            quantile(0.50),
            quantile(0.99),
            100.0 * closed_cached as f64 / closed_loop as f64,
        );
    }

    // ── Idle phase ─────────────────────────────────────────────────────
    // Everything submitted is answered; the engine is idle. Every worker
    // must be parked on the work-queue condvar — near-zero wakeups.
    let idle_wakeups_per_s = {
        use std::sync::atomic::Ordering;
        let before = engine.metrics().queue_wakeups.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(idle_ms.max(1)));
        let woke = engine.metrics().queue_wakeups.load(Ordering::Relaxed) - before;
        let per_s = woke as f64 * 1000.0 / idle_ms.max(1) as f64;
        println!("[idle] {woke} worker wakeups over {idle_ms} ms idle ({per_s:.1}/s)");
        per_s
    };

    // ── Per-stage latency breakdown ────────────────────────────────────
    // Where time went, decomposed from the request-lifecycle traces:
    // queue_wait (enqueue→flush), batch_wait (flush→forward-pass start),
    // execute (the forward pass), deliver (pass end→ticket wakeup).
    let tracer = &engine.metrics().trace;
    println!(
        "\n{:<12} {:>9} {:>10} {:>10} {:>10}",
        "stage", "samples", "p50", "p95", "p99"
    );
    for (name, h) in tracer.stage_histograms() {
        println!(
            "{:<12} {:>9} {:>10.3?} {:>10.3?} {:>10.3?}",
            name,
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }
    println!(
        "[trace] flight recorder: {} timelines recorded, {} retained, {} slow \
         (threshold {:?})",
        tracer.recorder.recorded(),
        tracer.recorder.recent().len(),
        tracer.recorder.slow().len(),
        tracer.recorder.slow_threshold(),
    );
    for memory in engine.memory() {
        println!(
            "[memory] {}: {:.1} MiB resident ({:.1} MiB logits cache)",
            memory.model,
            memory.total_bytes() as f64 / (1024.0 * 1024.0),
            memory.logits_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    if let Some(process) = mega_serve::process_memory() {
        println!(
            "[memory] process RSS {:.1} MiB (peak {:.1} MiB)",
            process.rss_bytes as f64 / (1024.0 * 1024.0),
            process.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    assert_eq!(
        engine.in_flight(),
        0,
        "every ticket answered before shutdown"
    );
    let report = engine.shutdown();

    let mut per_model: HashMap<ModelKey, PerModel> = HashMap::new();
    let mut updates_acked = 0u64;
    let mut updates_rejected = 0u64;
    let mut retiered = 0u64;
    let mut logits_invalidated = 0u64;
    for response in all_responses {
        match response {
            ServeResponse::Inference(response) => {
                let entry = per_model
                    .entry(response.model.clone())
                    .or_insert_with(PerModel::new);
                entry.requests += 1;
                if response.cached {
                    entry.cached += 1;
                }
                entry
                    .latencies_us
                    .push(response.latency.as_micros().min(u64::MAX as u128) as u64);
                entry.batch_sum += response.batch_size as u64;
                *entry.bits.entry(response.bits).or_insert(0) += 1;
            }
            ServeResponse::Update(ack) => {
                if ack.applied() {
                    updates_acked += 1;
                } else {
                    updates_rejected += 1;
                }
                retiered += ack.retiered.len() as u64;
                logits_invalidated += ack.logits_invalidated as u64;
            }
        }
    }

    println!(
        "\nsubmitted {requests} requests in {:.2?}; drained in {:.2?}\n",
        submit_elapsed, open_wall
    );
    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}  bits mix",
        "model", "requests", "cached", "p50", "p95", "p99", "avg batch"
    );
    for key in &keys {
        let Some(stats) = per_model.get_mut(key) else {
            continue;
        };
        let mut bits: Vec<(u8, u64)> = stats.bits.iter().map(|(&b, &n)| (b, n)).collect();
        bits.sort_unstable();
        let bits_str = bits
            .iter()
            .map(|(b, n)| format!("{b}b:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let (p50, p95, p99) = (
            stats.quantile(0.50),
            stats.quantile(0.95),
            stats.quantile(0.99),
        );
        println!(
            "{:<14} {:>9} {:>9} {:>10.3?} {:>10.3?} {:>10.3?} {:>10.1}  {}",
            key.to_string(),
            stats.requests,
            stats.cached,
            p50,
            p95,
            p99,
            stats.batch_sum as f64 / stats.requests.max(1) as f64,
            bits_str
        );
    }

    println!(
        "\n{:<7} {:>9} {:>9} {:>10} {:>9} {:>9} {:>7} {:>14} {:>14}",
        "shard",
        "requests",
        "batches",
        "halo rows",
        "hits",
        "misses",
        "inval",
        "est cycles",
        "est DRAM B"
    );
    for s in &report.shards {
        println!(
            "{:<7} {:>9} {:>9} {:>10} {:>9} {:>9} {:>7} {:>14} {:>14}",
            s.shard,
            s.requests,
            s.batches,
            s.halo_rows,
            s.logits_hits,
            s.logits_misses,
            s.logits_invalidations,
            s.est_cycles,
            s.est_dram_bytes
        );
    }

    println!("\nengine report:\n{report}");

    let expected = requests as u64 + churn_inferences + closed_loop as u64;
    assert_eq!(report.completed, expected, "every request answered");
    assert_eq!(
        per_model.values().map(|m| m.requests).sum::<u64>(),
        expected,
        "every predict's response reached the per-model table"
    );
    assert_eq!(
        updates_acked + updates_rejected,
        churn_updates,
        "every update acknowledged"
    );
    assert_eq!(updates_rejected, 0, "churn deltas are all valid");
    assert!(retiered > 0, "churn must retier the target at least once");
    assert_eq!(
        report.shards.len(),
        shards,
        "per-shard metrics cover every shard"
    );
    assert!(
        report.shards.iter().all(|s| s.requests > 0),
        "every shard served traffic"
    );
    assert!(report.est_cycles > 0, "hardware model costed the batches");
    // Logits-cache invariants: every answered request is exactly one of
    // hit/miss, the response `cached` flags agree with the engine
    // counters, and skewed traffic actually hits once the cache is on.
    let cached_total: u64 = per_model.values().map(|m| m.cached).sum();
    assert_eq!(cached_total, report.logits_hits, "flags match counters");
    assert_eq!(
        report.logits_hits + report.logits_misses,
        report.completed,
        "hits + misses partition completed requests"
    );
    if cache_bytes > 0 {
        assert!(
            report.logits_hits > 0,
            "repeated Zipf traffic must hit the logits cache"
        );
    } else {
        assert_eq!(report.logits_hits, 0, "disabled cache never hits");
    }
    let closed_rps = if closed_elapsed > Duration::ZERO {
        closed_loop as f64 / closed_elapsed.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "\nserve_demo OK: {} requests + {} graph updates ({} nodes retiered, \
         {} cached logits invalidated) over {} models x {} shards \
         on {workers} workers ({:.0} req/s open-loop, {:.0} req/s closed-loop, \
         {:.1}% logits-cache hits, {:.1} idle worker wakeups/s, \
         est {} MEGA cycles / {} DRAM bytes)",
        report.completed,
        updates_acked,
        retiered,
        logits_invalidated,
        keys.len(),
        shards,
        requests as f64 / open_wall.as_secs_f64(),
        closed_rps,
        report.logits_hit_rate * 100.0,
        idle_wakeups_per_s,
        report.est_cycles,
        report.est_dram_bytes
    );
}
