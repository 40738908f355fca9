//! `perfbench`: drives the `mega-serve` engine from one client thread on
//! one of three workloads, checks what it served against a scalar
//! reference, and prints the result. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <cold_http|zipf_window|churn_serial> --seed <n> --seconds <s> --trace <0|1>
//! ```

#![forbid(unsafe_code)]

mod client;
mod gate;
mod gen;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mega_serve::http::json::{self, Json};
use mega_serve::{process_memory, ModelArtifacts};

use crate::gate::GateOutcome;
use crate::layers::Counters;
use crate::report::{MetricSet, DETAIL_ONLY, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::Samples;
use crate::workloads::{drive, probe_round, Served, Settings, Timed, Workload, GATE};

const USAGE: &str =
    "usage: perfbench --workload <cold_http|zipf_window|churn_serial> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Settings, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Settings::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(settings) => settings,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&settings);
    let detail = outcome.detail.render();
    println!("{detail}");
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!(
        "{}-seed{}-trace{}",
        settings.workload.name(),
        settings.seed,
        u8::from(settings.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(out_dir.join(format!("{stem}.json")), &detail))
        .and_then(|_| match &outcome.spans {
            Some(log) => log.write_jsonl(&out_dir.join(format!("{stem}-spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(error) = written {
        eprintln!(
            "perfbench: could not write results to {}: {error}",
            out_dir.display()
        );
    }
    println!("{}", outcome.summary);
    if outcome.gate.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness gate failed: {:?}", outcome.gate);
        ExitCode::FAILURE
    }
}

struct Outcome {
    detail: Json,
    summary: String,
    gate: GateOutcome,
    spans: Option<SpanLog>,
}

fn run(settings: &Settings) -> Outcome {
    let trace = settings.trace;
    let mut log = SpanLog::new();

    // The first set-up serves the timed phase, so the phase and its peak
    // RSS see one engine in a fresh process; the repeats that make
    // `setup_s` a median run after it.
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut setup = |log: &mut SpanLog| {
        let (start, cpu) = (Instant::now(), layers::process_cpu_s());
        let served = Served::start(settings);
        let end = Instant::now();
        setup_cpu_s.push(layers::process_cpu_s() - cpu);
        setup_wall_s.push((end - start).as_secs_f64());
        log.push("setup", log.us(start), log.us(end), None, 0);
        served
    };
    let served = setup(&mut log);
    let after_setup = process_memory().expect("/proc/self/status is readable");

    let before = Counters::read(&served);
    let (ticks_before, cpu_before) = (layers::cpu_ticks(), layers::process_cpu_s());
    let timed_phase = drive(settings, &served);
    let (ticks_after, cpu_after) = (layers::cpu_ticks(), layers::process_cpu_s());
    let after = Counters::read(&served);
    let memory = served
        .engine
        .memory()
        .into_iter()
        .next()
        .expect("the model is resident");
    let process = process_memory().expect("/proc/self/status is readable");
    let probe = if settings.workload == Workload::ChurnSerial {
        probe_round(settings, &served, &timed_phase.edges)
    } else {
        Timed::default()
    };

    let mut e2e = MetricSet::new(END_TO_END);
    let predicts = Samples::new(timed_phase.predict_ms.clone());
    let updates = timed_phase.update_ms.len();
    let timed_cpu_ms = (cpu_after - cpu_before) * 1e3;
    let update_cpu_ms = timed_phase.update_cpu_s * 1e3;
    e2e.set_counted(
        "cpu_ms_per_predict",
        (timed_cpu_ms - update_cpu_ms) / predicts.count().max(1) as f64,
        predicts.count(),
    );
    e2e.set_counted(
        "cpu_ms_per_op",
        timed_cpu_ms / (predicts.count() + updates).max(1) as f64,
        predicts.count() + updates,
    );
    e2e.set_counted(
        "predict_rps",
        predicts.count() as f64 / timed_phase.wall_s,
        predicts.count(),
    );
    e2e.stat("predict_p50_ms", predicts.quantile(0.5), 1.0);
    e2e.stat("predict_p90_ms", predicts.quantile(0.9), 1.0);
    e2e.set_counted("peak_rss_mb", process.peak_rss_bytes as f64 / 1e6, 1);
    e2e.set_counted(
        "model_bytes_per_node",
        memory.total_bytes() as f64 / memory.nodes as f64,
        1,
    );
    e2e.stat(
        "update_p50_ms",
        Samples::new(timed_phase.update_ms.clone()).median(),
        1.0,
    );

    let mut per_layer = MetricSet::new(PER_LAYER);
    if updates > 0 {
        per_layer.set_counted(
            "cache.update_cpu_ms",
            update_cpu_ms / updates as f64,
            updates,
        );
    }
    layers::engine_layers(&mut per_layer, &before, &after, served.http.is_some());
    layers::memory_layers(&mut per_layer, &memory, process.rss_bytes);
    let mut missing_traces = 0;
    if trace {
        let records = served.engine.metrics().trace.recorder.recent();
        missing_traces = layers::request_spans(
            &mut log,
            &mut per_layer,
            &timed_phase.records,
            records,
            served.http.is_some(),
        );
    }
    served.stop();
    for _ in 1..settings.setups {
        setup(&mut log).stop();
    }
    e2e.stat("setup_s", Samples::new(setup_cpu_s).median(), 1.0);
    e2e.stat("setup_wall_s", Samples::new(setup_wall_s).median(), 1.0);

    // The reference: artifacts built independently from the same spec.
    let (mut reference, build) = log.time("cache.build", None, 0, || {
        ModelArtifacts::build(&settings.spec)
    });
    let mut reference_error = None;
    if trace {
        per_layer.set("cache.build_s", log.duration_ms(build) / 1e3);
        let (_, generate) = log.time("graph.generate", None, 0, || {
            std::hint::black_box(settings.spec.dataset.materialize())
        });
        per_layer.set("graph.generate_s", log.duration_ms(generate) / 1e3);
        let replayed: Vec<u32> = timed_phase
            .sent
            .iter()
            .copied()
            .take(settings.replay_targets)
            .collect();
        layers::replay_targets(&mut log, &mut per_layer, &reference, &replayed);
        if !timed_phase.edges.is_empty() {
            // The update replay runs on artifacts of its own, so the gate's
            // reference reaches its state the same way in both modes.
            let mut replay = ModelArtifacts::build(&settings.spec);
            if let Err(e) =
                layers::replay_updates(&mut log, &mut per_layer, &mut replay, &timed_phase.edges)
            {
                reference_error = Some(e);
            }
        }
    }
    if let Err(e) = gate::apply_all(&mut reference, &timed_phase.edges) {
        reference_error = Some(e);
    }

    let (checked, inconsistent) = if settings.workload == Workload::ChurnSerial {
        (&probe.served, probe.inconsistent)
    } else {
        (&timed_phase.served, timed_phase.inconsistent)
    };
    let nodes = gate::sample(
        checked,
        settings.gate_sample,
        &mut gen::stream(settings.seed, GATE),
    );
    let mut gate = if reference_error.is_none() {
        gate::compare(&reference, checked, &nodes)
    } else {
        GateOutcome::default()
    };
    gate.inconsistent = inconsistent;

    let attempted = timed_phase.ops.total_attempted() + probe.ops.total_attempted();
    let failed = timed_phase.ops.total_failed() + probe.ops.total_failed();
    let (metrics, skip) = if trace {
        (&per_layer, &[][..])
    } else {
        (&e2e, DETAIL_ONLY)
    };
    let summary = report::summary_line(gate.passed(), attempted, failed, metrics.summary(skip));

    let mut detail = vec![
        ("benchmark", Json::from("perfbench".to_string())),
        ("run", run_info()),
        ("settings", settings.to_json()),
        ("end_to_end", e2e.detail()),
        ("per_layer", per_layer.detail()),
        ("per_layer_not_applicable", per_layer.not_applicable()),
        ("operations", timed_phase.ops.to_json()),
        ("probe_operations", probe.ops.to_json()),
        ("timed_wall_s", Json::from(timed_phase.wall_s)),
        (
            "cpu_steal_frac_timed",
            steal_frac(ticks_before, ticks_after),
        ),
        (
            "rss_after_setup_mb",
            Json::from(after_setup.rss_bytes as f64 / 1e6),
        ),
        (
            "peak_rss_after_setup_mb",
            Json::from(after_setup.peak_rss_bytes as f64 / 1e6),
        ),
        (
            "http_connections_opened",
            Json::from(timed_phase.http_connects),
        ),
        ("update_edges", Json::from(timed_phase.edges.len() as u64)),
        ("gate", gate.to_json()),
    ];
    if let Some(error) = &reference_error {
        detail.push(("reference_error", Json::from(error.clone())));
    }
    if trace {
        detail.push(("missing_engine_traces", Json::from(missing_traces as u64)));
        detail.push(("span_self_time", log.self_time_summary()));
        detail.push(("tracing_overhead", tracing_overhead(settings, &e2e)));
    }
    let detail = Json::Obj(
        detail
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    Outcome {
        detail,
        summary,
        gate,
        spans: trace.then_some(log),
    }
}

/// The machine's share of CPU time stolen by the hypervisor while the
/// timed phase ran: context for a slow run, not a metric.
fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Json {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            Json::from((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    }
}

/// Where the run happened: commit (when run from a git checkout), build
/// features (fixed by `Cargo.toml`), and the machine's parallelism.
fn run_info() -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        );
    #[cfg(target_arch = "x86_64")]
    let avx2_detected = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_detected = false;
    Json::Obj(vec![
        ("commit".into(), Json::from(commit)),
        (
            "cargo_features".into(),
            Json::Arr(vec![Json::from("mega-serve/avx2".to_string())]),
        ),
        ("cpu_avx2".into(), Json::Bool(avx2_detected)),
        (
            "profile".into(),
            Json::from(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "available_parallelism".into(),
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
    ])
}

/// The traced run's end-to-end numbers beside those of the untraced run
/// of the same workload and seed, when its record is in `out/`.
fn tracing_overhead(settings: &Settings, traced: &MetricSet) -> Json {
    let path = format!(
        "{}/out/{}-seed{}-trace0.json",
        env!("CARGO_MANIFEST_DIR"),
        settings.workload.name(),
        settings.seed
    );
    let untraced = std::fs::read(&path)
        .ok()
        .and_then(|bytes| json::parse(&bytes).ok())
        .and_then(|record| record.get("end_to_end").cloned());
    let Some(untraced) = untraced else {
        return Json::from(format!(
            "no untraced record at out/{}",
            path.rsplit('/').next().unwrap_or("")
        ));
    };
    Json::Obj(
        END_TO_END
            .iter()
            .filter_map(|&(name, _)| {
                let base = untraced.get(name)?.get("value")?.as_f64()?;
                let with = traced.get(name)?;
                let entry = Json::Obj(vec![
                    ("untraced".into(), Json::from(base)),
                    ("traced".into(), Json::from(with)),
                    ("traced_over_untraced".into(), Json::from(with / base)),
                ]);
                Some((name.to_string(), entry))
            })
            .collect(),
    )
}
