//! Criterion suite for the tier-contiguous bit-plane kernels: the raw
//! combination primitive per tier bitwidth (tier-dispatched packed
//! kernels vs scalar integer reference), and the full serve forward pass
//! per aggregator in both kernel modes. Sample sizes are pinned so CI
//! runs are comparable across commits.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mega_format::planes::{
    dot_levels, levels_dot_multi, pack_levels, planes_for, qmax_level, ternary_dot_multi,
    unpack_levels, words_for, MAX_MULTI_ROWS,
};
use mega_gnn::kernel::KernelMode;
use mega_gnn::GnnKind;
use mega_graph::DatasetSpec;
use mega_serve::{batch_logits_with_mode, ModelArtifacts, ModelSpec};

const IN_DIM: usize = 256;
const OUT_DIM: usize = 64;
const WEIGHT_BITS: u8 = 4;

/// Deterministic xorshift64* so every run benches identical workloads.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn level(&mut self, bits: u8) -> i32 {
        if self.next() % 10 >= 6 {
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

/// Raw combination kernel per (tier bitwidth × mode): one packed-at-rest
/// input row against a 4-bit weight matrix. The packed side runs the
/// serve kernel's tier dispatch with one lane — plane walk at ≤ 2 bits,
/// unpack + sparse level kernel at 3+ bits (unpack cost inside the
/// measured region). The scalar baseline keeps its own column-major copy
/// of the weights.
fn bench_combination(c: &mut Criterion) {
    let mut group = c.benchmark_group("combination");
    group.sample_size(20);
    let mut rng = Rng(0x1234_5678_9abc_def1);
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
    for bits in [1u8, 2, 3, 4, 5, 8] {
        let x: Vec<i32> = (0..IN_DIM).map(|_| rng.level(bits)).collect();
        let mut words = vec![0u64; planes_for(bits) * words_for(IN_DIM)];
        pack_levels(&x, bits, &mut words);
        let mut dots = vec![0i64; OUT_DIM];
        group.bench_function(&format!("scalar/b{bits}"), |b| {
            b.iter(|| {
                for (c, d) in dots.iter_mut().enumerate() {
                    *d = dot_levels(&x, &col_major[c * IN_DIM..(c + 1) * IN_DIM]);
                }
                black_box(&dots);
            })
        });
        let mut acc = vec![0i32; 2 * OUT_DIM];
        let mut levels = vec![0i32; IN_DIM];
        group.bench_function(&format!("packed/b{bits}"), |b| {
            b.iter(|| {
                if bits <= 2 {
                    ternary_dot_multi(&words, 1, IN_DIM, &wrow, OUT_DIM, &mut acc, &mut dots);
                } else {
                    unpack_levels(&words, bits, IN_DIM, &mut levels);
                    levels_dot_multi(&levels, 1, &wrow, OUT_DIM, &mut acc[..OUT_DIM], &mut dots);
                }
                black_box(&dots);
            })
        });
        // Register-blocked multi-row shapes: one weight-tile pass over M
        // packed rows, at a full block and at an unaligned remainder.
        let span = planes_for(bits) * words_for(IN_DIM);
        let rows: Vec<Vec<i32>> = (0..MAX_MULTI_ROWS)
            .map(|_| (0..IN_DIM).map(|_| rng.level(bits)).collect())
            .collect();
        let mut tile_words = vec![0u64; MAX_MULTI_ROWS * span];
        let mut tile_levels = vec![0i32; MAX_MULTI_ROWS * IN_DIM];
        for (r, row) in rows.iter().enumerate() {
            pack_levels(row, bits, &mut tile_words[r * span..][..span]);
            tile_levels[r * IN_DIM..][..IN_DIM].copy_from_slice(row);
        }
        let mut tile_acc = vec![0i32; 2 * MAX_MULTI_ROWS * OUT_DIM];
        let mut tile_dots = vec![0i64; MAX_MULTI_ROWS * OUT_DIM];
        for m in [MAX_MULTI_ROWS, 3] {
            group.bench_function(&format!("blocked/b{bits}/m{m}"), |b| {
                b.iter(|| {
                    if bits <= 2 {
                        ternary_dot_multi(
                            &tile_words[..m * span],
                            m,
                            IN_DIM,
                            &wrow,
                            OUT_DIM,
                            &mut tile_acc[..2 * m * OUT_DIM],
                            &mut tile_dots[..m * OUT_DIM],
                        );
                    } else {
                        levels_dot_multi(
                            &tile_levels[..m * IN_DIM],
                            m,
                            &wrow,
                            OUT_DIM,
                            &mut tile_acc[..m * OUT_DIM],
                            &mut tile_dots[..m * OUT_DIM],
                        );
                    }
                    black_box(&tile_dots);
                })
            });
        }
    }
    group.finish();
}

/// End-to-end serve forward pass per aggregator in both kernel modes —
/// the number the PR's speedup claim is ultimately about.
fn bench_serve_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_forward");
    group.sample_size(15);
    for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
        let artifacts = ModelArtifacts::build(&ModelSpec::standard(
            DatasetSpec::cora().scaled(0.08).with_feature_dim(48),
            kind,
        ));
        let targets: Vec<u32> = (0..artifacts.num_nodes() as u32).step_by(13).collect();
        for (label, mode) in [
            ("blocked", KernelMode::Blocked),
            ("scalar", KernelMode::Scalar),
        ] {
            group.bench_function(&format!("{kind:?}/{label}"), |b| {
                b.iter(|| black_box(batch_logits_with_mode(&artifacts, &targets, mode)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_combination, bench_serve_forward);
criterion_main!(benches);
