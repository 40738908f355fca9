//! Kernel gate: measures the tier-dispatched packed combination kernels
//! one row at a time (`*_dot_multi` with one lane: ternary plane walk at
//! ≤ 2 bits, unpack + sparse level kernel at 3+ bits, exactly as the serve
//! path dispatches) against the scalar integer reference per tier
//! bitwidth, plus full `MAX_MULTI_ROWS`-lane blocks (with the gather
//! inside the timed region, exactly as the blocked dispatcher stages
//! them), compares the trend against the Combination Engine's predicted
//! cycles ([`mega_accel::combination::cycles`]), prints a per-tier table,
//! and optionally writes a JSON report (first CLI argument).
//!
//! Exits non-zero if, on the 2–5 bit tiers, the packed kernel regresses
//! below the scalar reference (threshold `KERNEL_GATE_MIN_SPEEDUP`) or
//! the blocked kernel regresses below the one-row packed kernel
//! (threshold `KERNEL_GATE_MIN_BLOCKED`) — a perf ratchet robust to
//! absolute machine speed.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use mega_accel::combination::cycles;
use mega_accel::config::MegaConfig;
use mega_format::planes::{
    dot_levels, levels_dot_multi, pack_levels, planes_for, qmax_level, ternary_dot_multi,
    words_for, MAX_MULTI_ROWS,
};
use mega_graph::generate::uniform_random;
use mega_sim::Workload;

/// Hidden-layer shape the serve path actually runs (Cora-scaled hidden
/// dims; weights at the registry default of 4 bits).
const IN_DIM: usize = 256;
const OUT_DIM: usize = 64;
const WEIGHT_BITS: u8 = 4;
const ROWS: usize = 64;
const REPS: usize = 7;
/// Tier bitwidths: the paper's 2–5 bit degree tiers, the 1-bit
/// bag-of-words floor, and the 8-bit ceiling as the baseline anchor.
const TIERS: [u8; 6] = [1, 2, 3, 4, 5, 8];
/// Fraction of non-zero input levels (bag-of-words features are sparse).
const DENSITY: f64 = 0.6;

/// Deterministic xorshift64* — the bench must not depend on `rand` and
/// must produce identical workloads across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn level(&mut self, bits: u8) -> i32 {
        if (self.next() % 1000) as f64 >= DENSITY * 1000.0 {
            return 0;
        }
        let q = qmax_level(bits);
        let magnitude = (self.next() % (q as u64 + 1)) as i32;
        if self.next().is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// Median of `REPS` timed repetitions of `f`, in ns per processed row.
fn time_ns_per_row(mut f: impl FnMut()) -> f64 {
    // Warm-up, then size the inner loop so each rep runs ≥ ~4 ms.
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let inner = ((4e-3 / once).ceil() as usize).max(1);
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() / (inner * ROWS) as f64 * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[REPS / 2]
}

struct TierResult {
    bits: u8,
    scalar_ns: f64,
    packed_ns: f64,
    blocked_ns: f64,
    measured_speedup: f64,
    blocked_vs_packed: f64,
    predicted_cycles: u64,
    predicted_speedup_vs_8bit: f64,
}

fn bench_tier(bits: u8, rng: &mut Rng) -> (f64, f64, f64) {
    // Weights: one quantized layer, row-major as the packed kernels stream
    // it, plus a column-major copy so the scalar baseline is one
    // `dot_levels` call per output element.
    let weight_levels: Vec<i32> = (0..IN_DIM * OUT_DIM)
        .map(|_| rng.level(WEIGHT_BITS))
        .collect();
    let wrow: Vec<i16> = weight_levels.iter().map(|&l| l as i16).collect();
    let mut col_major = vec![0i16; IN_DIM * OUT_DIM];
    for r in 0..OUT_DIM {
        for c in 0..IN_DIM {
            col_major[r * IN_DIM + c] = weight_levels[c * OUT_DIM + r] as i16;
        }
    }

    // Activations: ROWS quantized input rows at this tier's bitwidth,
    // packed at rest like the serving feature store holds them.
    let x_rows: Vec<Vec<i32>> = (0..ROWS)
        .map(|_| (0..IN_DIM).map(|_| rng.level(bits)).collect())
        .collect();
    let span = planes_for(bits) * words_for(IN_DIM);
    let packed_rows: Vec<Vec<u64>> = x_rows
        .iter()
        .map(|x| {
            let mut words = vec![0u64; span];
            pack_levels(x, bits, &mut words);
            words
        })
        .collect();

    let mut dots = vec![0i64; OUT_DIM];
    let scalar_ns = time_ns_per_row(|| {
        for x in &x_rows {
            for (c, d) in dots.iter_mut().enumerate() {
                *d = dot_levels(x, &col_major[c * IN_DIM..(c + 1) * IN_DIM]);
            }
            black_box(&dots);
        }
    });

    // The packed side mirrors the serve kernel's tier dispatch one row at
    // a time: ≤ 2 bit rows walk the packed planes directly; wider tiers
    // pay the unpack inside the timed region, then run the sparse level
    // kernel.
    let mut acc = vec![0i32; 2 * OUT_DIM];
    let mut levels = vec![0i32; IN_DIM];
    let packed_ns = if bits <= 2 {
        time_ns_per_row(|| {
            for words in &packed_rows {
                ternary_dot_multi(words, 1, IN_DIM, &wrow, OUT_DIM, &mut acc, &mut dots);
                black_box(&dots);
            }
        })
    } else {
        time_ns_per_row(|| {
            for words in &packed_rows {
                mega_format::planes::unpack_levels(words, bits, IN_DIM, &mut levels);
                levels_dot_multi(&levels, 1, &wrow, OUT_DIM, &mut acc[..OUT_DIM], &mut dots);
                black_box(&dots);
            }
        })
    };

    // The blocked side mirrors the serve dispatcher: gather M rows into a
    // lane tile (packed-word splice at ≤ 2 bits, unpack at 3+), then one
    // weight-tile pass per block through the multi-row kernel. The gather
    // runs inside the timed region, exactly as the serve path pays it.
    const M: usize = MAX_MULTI_ROWS;
    let mut tile_words = vec![0u64; M * span];
    let mut tile_levels = vec![0i32; M * IN_DIM];
    let mut tile_acc = vec![0i32; 2 * M * OUT_DIM];
    let mut tile_dots = vec![0i64; M * OUT_DIM];
    let blocked_ns = if bits <= 2 {
        time_ns_per_row(|| {
            for block in packed_rows.chunks(M) {
                let m = block.len();
                for (r, words) in block.iter().enumerate() {
                    tile_words[r * span..][..span].copy_from_slice(words);
                }
                ternary_dot_multi(
                    &tile_words[..m * span],
                    m,
                    IN_DIM,
                    &wrow,
                    OUT_DIM,
                    &mut tile_acc[..2 * m * OUT_DIM],
                    &mut tile_dots[..m * OUT_DIM],
                );
                black_box(&tile_dots);
            }
        })
    } else {
        time_ns_per_row(|| {
            for block in packed_rows.chunks(M) {
                let m = block.len();
                for (r, words) in block.iter().enumerate() {
                    mega_format::planes::unpack_levels(
                        words,
                        bits,
                        IN_DIM,
                        &mut tile_levels[r * IN_DIM..][..IN_DIM],
                    );
                }
                levels_dot_multi(
                    &tile_levels[..m * IN_DIM],
                    m,
                    &wrow,
                    OUT_DIM,
                    &mut tile_acc[..m * OUT_DIM],
                    &mut tile_dots[..m * OUT_DIM],
                );
                black_box(&tile_dots);
            }
        })
    };
    (scalar_ns, packed_ns, blocked_ns)
}

fn main() {
    let out_path = std::env::args().nth(1);
    let min_speedup: f64 = std::env::var("KERNEL_GATE_MIN_SPEEDUP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let min_blocked: f64 = std::env::var("KERNEL_GATE_MIN_BLOCKED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    // Predicted combination cycles from the accelerator model: one
    // uniform-bitwidth workload per tier over the same layer shape.
    let cfg = MegaConfig::default();
    let graph = Rc::new(uniform_random(ROWS, ROWS * 4, 7));
    let predicted = |bits: u8| {
        let workload = Workload::uniform(
            "bench",
            "kernel",
            graph.clone(),
            &[IN_DIM, OUT_DIM],
            &[DENSITY],
            bits,
            WEIGHT_BITS,
        );
        cycles(&cfg, &workload, 0)
    };
    let baseline_cycles = predicted(8) as f64;

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let results: Vec<TierResult> = TIERS
        .iter()
        .map(|&bits| {
            let (scalar_ns, packed_ns, blocked_ns) = bench_tier(bits, &mut rng);
            let predicted_cycles = predicted(bits);
            TierResult {
                bits,
                scalar_ns,
                packed_ns,
                blocked_ns,
                measured_speedup: scalar_ns / packed_ns,
                blocked_vs_packed: packed_ns / blocked_ns,
                predicted_cycles,
                predicted_speedup_vs_8bit: baseline_cycles / predicted_cycles as f64,
            }
        })
        .collect();

    println!(
        "Bit-plane combination kernels vs scalar reference ({IN_DIM}x{OUT_DIM}, w{WEIGHT_BITS}, \
         M={MAX_MULTI_ROWS})"
    );
    println!(
        "{:>4} {:>14} {:>14} {:>15} {:>9} {:>11} {:>14} {:>12}",
        "bits",
        "scalar ns/row",
        "packed ns/row",
        "blocked ns/row",
        "speedup",
        "blk/packed",
        "model cycles",
        "model vs 8b"
    );
    for r in &results {
        println!(
            "{:>4} {:>14.1} {:>14.1} {:>15.1} {:>8.2}x {:>10.2}x {:>14} {:>11.2}x",
            r.bits,
            r.scalar_ns,
            r.packed_ns,
            r.blocked_ns,
            r.measured_speedup,
            r.blocked_vs_packed,
            r.predicted_cycles,
            r.predicted_speedup_vs_8bit
        );
    }

    let gated = || results.iter().filter(|r| (2..=5).contains(&r.bits));
    let packed_pass = gated().all(|r| r.measured_speedup >= min_speedup);
    let blocked_pass = gated().all(|r| r.blocked_vs_packed >= min_blocked);
    let gate_pass = packed_pass && blocked_pass;

    if let Some(path) = &out_path {
        let tiers: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "    {{\"bits\": {}, \"scalar_ns_per_row\": {:.1}, \"packed_ns_per_row\": {:.1}, \
                     \"blocked_ns_per_row\": {:.1}, \"measured_speedup\": {:.2}, \
                     \"blocked_vs_packed\": {:.2}, \"predicted_cycles\": {}, \
                     \"predicted_speedup_vs_8bit\": {:.2}}}",
                    r.bits,
                    r.scalar_ns,
                    r.packed_ns,
                    r.blocked_ns,
                    r.measured_speedup,
                    r.blocked_vs_packed,
                    r.predicted_cycles,
                    r.predicted_speedup_vs_8bit
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"pr9_multi_row_kernels\",\n  \"shape\": {{\"in_dim\": {IN_DIM}, \
             \"out_dim\": {OUT_DIM}, \"weight_bits\": {WEIGHT_BITS}, \"density\": {DENSITY}, \
             \"multi_rows\": {MAX_MULTI_ROWS}}},\n  \
             \"tiers\": [\n{}\n  ],\n  \"gate\": {{\"tiers\": \"2-5\", \"min_speedup\": {min_speedup}, \
             \"min_blocked\": {min_blocked}, \"pass\": {gate_pass}}}\n}}\n",
            tiers.join(",\n")
        );
        std::fs::write(path, json).expect("write report");
        println!("\nreport written to {path}");
    }

    if !gate_pass {
        if !packed_pass {
            eprintln!("FAIL: packed kernel below {min_speedup}x scalar on a 2-5 bit tier");
        }
        if !blocked_pass {
            eprintln!("FAIL: blocked kernel below {min_blocked}x one-row on a 2-5 bit tier");
        }
        std::process::exit(1);
    }
    println!(
        "gate: packed >= {min_speedup}x scalar, blocked >= {min_blocked}x packed on 2-5 bit tiers"
    );
}
