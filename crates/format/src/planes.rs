//! Bit-plane feature storage and the combination kernels over it — the
//! software analogue of the accelerator's bit-serial combination engine
//! (`mega_accel::bitserial`), specialized for the 1–8 b tiers the serving
//! policy assigns.
//!
//! A quantized row is stored **sign-magnitude across planes**: one sign
//! plane plus `b-1` magnitude planes (LSB first), each plane a bitmap of
//! `ceil(dim/64)` `u64` words over the feature dimension.
//!
//! Two hot kernels execute combinations against this layout, picked per
//! row by tier:
//!
//! * **≤ 2 bit tiers** — [`ternary_dot_multi`]: levels are `{−1, 0, +1}`,
//!   so the kernel walks the set bits of the magnitude plane directly and
//!   adds/subtracts contiguous weight rows by the sign plane. No unpack,
//!   no multiplies; work ∝ non-zero levels — the CPU analogue of the
//!   paper's per-bit beats.
//! * **3+ bit tiers** — [`levels_dot_multi`]: rows are unpacked to integer
//!   levels per block and reduced as a sparse row-major multiply-
//!   accumulate. Low-bit quantization zeroes every value below `α/2`, so
//!   sparsity (and therefore speed) grows as tiers shrink.
//!
//! Both are register-blocked: each streams every weight row once per block
//! of up to [`MAX_MULTI_ROWS`] same-tier rows, and one row is simply a
//! block of one. Both accumulate exact integer sums, so they are
//! *bit-exact* with the scalar reference ([`dot_levels`]) by construction —
//! the property the serving engine's blocked-vs-scalar equivalence tests
//! pin down.
//!
//! [`TierPackedFeatures`] keeps rows packed at rest in **tier-contiguous
//! arenas**: one flat `Vec<u64>` per bitwidth with fixed-size slots and a
//! free list, so same-tier rows are contiguous in memory (the serving-side
//! analogue of the paper processing one precision tier at a time) and a
//! re-tier is a free + alloc, never a global repack.

/// Largest bitwidth the plane layout supports (the serving policy's
/// overflow tier is 6 bits, so 8 leaves headroom).
pub const MAX_PLANE_BITS: u8 = 8;

/// Largest magnitude level representable at `bits` — mirrors
/// `mega_quant::quantizer::qmax` for the plane-supported range (this crate
/// sits below `mega-quant` in the dependency graph; the equivalence is
/// pinned by a test in `mega-quant`).
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8`.
pub fn qmax_level(bits: u8) -> i32 {
    assert!(
        (1..=MAX_PLANE_BITS).contains(&bits),
        "bitwidth {bits} out of plane range"
    );
    if bits == 1 {
        1
    } else {
        (1i32 << (bits - 1)) - 1
    }
}

/// Quantizes one value to an integer level per Eq. (2) — the exact mirror
/// of `mega_quant::quantizer::quantize`, duplicated here (and
/// cross-checked there) because the kernels quantize hidden activations
/// below `mega-quant` in the crate DAG.
///
/// # Panics
///
/// Panics if `alpha` is not positive and finite.
pub fn quantize_level(x: f32, alpha: f32, bits: u8) -> i32 {
    assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
    let q = qmax_level(bits);
    let level = (x.abs() / alpha + 0.5).floor() as i64;
    let level = level.min(q as i64) as i32;
    if x < 0.0 {
        -level
    } else {
        level
    }
}

/// The per-row scale `α = max|x| / qmax` (0 for an all-zero row, whose
/// levels are all zero regardless).
pub fn row_alpha(max_abs: f32, bits: u8) -> f32 {
    if max_abs == 0.0 {
        0.0
    } else {
        max_abs / qmax_level(bits) as f32
    }
}

/// Number of magnitude planes at `bits` (1-bit rows still need one plane
/// for the `±1` level).
pub fn mag_planes(bits: u8) -> usize {
    if bits <= 1 {
        1
    } else {
        (bits - 1) as usize
    }
}

/// Total planes at `bits`: one sign plane plus the magnitude planes.
pub fn planes_for(bits: u8) -> usize {
    1 + mag_planes(bits)
}

/// `u64` words per plane for a `dim`-wide row.
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(64)
}

/// Packs integer levels into plane layout: `out` must hold
/// `planes_for(bits) * words_for(levels.len())` words (sign plane first,
/// then magnitude planes LSB→MSB). Tail bits past `levels.len()` stay
/// zero, so every set bit indexes a real input position.
///
/// # Panics
///
/// Panics if `out` is mis-sized or a level exceeds `qmax_level(bits)`.
pub fn pack_levels(levels: &[i32], bits: u8, out: &mut [u64]) {
    let wpp = words_for(levels.len());
    assert_eq!(out.len(), planes_for(bits) * wpp, "plane buffer mis-sized");
    out.fill(0);
    let qmax = qmax_level(bits);
    for (j, &level) in levels.iter().enumerate() {
        if level == 0 {
            continue;
        }
        assert!(
            level.abs() <= qmax,
            "level {level} exceeds {bits}-bit range"
        );
        let (word, bit) = (j / 64, j % 64);
        if level < 0 {
            out[word] |= 1u64 << bit;
        }
        let magnitude = level.unsigned_abs();
        for p in 0..mag_planes(bits) {
            if (magnitude >> p) & 1 == 1 {
                out[(1 + p) * wpp + word] |= 1u64 << bit;
            }
        }
    }
}

/// Inverse of [`pack_levels`]: reconstructs `dim` integer levels from a
/// plane-packed row.
///
/// # Panics
///
/// Panics if `words` or `out` is mis-sized.
pub fn unpack_levels(words: &[u64], bits: u8, dim: usize, out: &mut [i32]) {
    let wpp = words_for(dim);
    assert_eq!(words.len(), planes_for(bits) * wpp, "plane row mis-sized");
    assert_eq!(out.len(), dim, "level buffer mis-sized");
    for (j, slot) in out.iter_mut().enumerate() {
        let (word, bit) = (j / 64, j % 64);
        let mut magnitude = 0i32;
        for p in 0..mag_planes(bits) {
            magnitude |= (((words[(1 + p) * wpp + word] >> bit) & 1) as i32) << p;
        }
        *slot = if (words[word] >> bit) & 1 == 1 {
            -magnitude
        } else {
            magnitude
        };
    }
}

/// Scalar integer reference: `Σ_j x_j · w_j` in `i64`. The plane kernels
/// compute the identical sum, term-reordered — both are exact integer
/// arithmetic, so they agree bit-for-bit.
pub fn dot_levels(x: &[i32], w: &[i16]) -> i64 {
    debug_assert_eq!(x.len(), w.len());
    let mut acc = 0i64;
    for (&xj, &wj) in x.iter().zip(w) {
        if xj != 0 {
            acc += xj as i64 * wj as i64;
        }
    }
    acc
}

/// Input positions folded through the `i32` accumulator before widening
/// into the `i64` dots. With both operands quantized at
/// ≤ [`MAX_PLANE_BITS`] the worst-case block magnitude is
/// `8192 · 127 · 127 < 2^27`, far inside `i32` — so the blocked sum is
/// exact and equals the `i64` reference bit-for-bit.
const ACC_BLOCK: usize = 8192;

/// One lane of [`levels_dot_multi`]: `out[c] = Σ_j x_j · weight_rows[j·out_dim + c]`,
/// skipping zero levels, folded `i32 → i64` every `ACC_BLOCK` inputs.
#[inline(always)]
fn levels_one_lane(
    x: &[i32],
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    out.iter_mut().for_each(|o| *o = 0);
    for (block, xs) in x.chunks(ACC_BLOCK).enumerate() {
        acc.iter_mut().for_each(|a| *a = 0);
        let base = block * ACC_BLOCK;
        for (j, &xj) in xs.iter().enumerate() {
            if xj == 0 {
                continue;
            }
            let row = &weight_rows[(base + j) * out_dim..][..out_dim];
            for (a, &wv) in acc.iter_mut().zip(row) {
                *a += xj * wv as i32;
            }
        }
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o += a as i64;
        }
    }
}

/// Largest lane count the multi-row kernels accept per call. The blocked
/// dispatcher in `mega_gnn::kernel` chunks same-tier rows at this width;
/// a remainder is a narrower call to the same kernel.
pub const MAX_MULTI_ROWS: usize = 8;

/// Level-domain combination kernel for the 3+ bit tiers: `m` level rows
/// (concatenated row-major in `xs`, `in_dim = xs.len() / m` each) against
/// one streamed row-major weight tile,
/// `out[r·out_dim + c] = Σ_j xs[r·in_dim + j] · weight_rows[j·out_dim + c]`,
/// skipping zero levels. Each contiguous `i16` weight row is read **once**
/// per input position and accumulated into `m` independent lanes — the
/// GEMM-shaped amortization MEGA's Condense-Edge engine gets from reusing
/// one weight fetch across many activations. Every non-zero level is one
/// broadcast multiply-accumulate across the output row, the shape LLVM
/// vectorizes at the x86-64 baseline (and wider under the `avx2` feature,
/// dispatched at runtime).
///
/// `acc` and `out` hold `m · out_dim` values, lane-major: lane `r`'s dots
/// land in `out[r·out_dim..][..out_dim]`.
///
/// **Bit-exactness:** operands must be quantized at ≤ [`MAX_PLANE_BITS`].
/// Every lane folds its `i32` block accumulator into `i64` every
/// `ACC_BLOCK = 8192` inputs, and block sums are exact integers inside
/// `i32`, so lane `r` equals the scalar [`dot_levels`] of row `r`
/// bit-for-bit, whatever `m` is.
///
/// # Panics
///
/// Panics if `m` is outside `1..=MAX_MULTI_ROWS` or any buffer is
/// mis-sized.
pub fn levels_dot_multi(
    xs: &[i32],
    m: usize,
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    assert!(
        (1..=MAX_MULTI_ROWS).contains(&m),
        "lane count {m} outside 1..={MAX_MULTI_ROWS}"
    );
    assert_eq!(xs.len() % m, 0, "level rows mis-sized");
    let in_dim = xs.len() / m;
    assert_eq!(weight_rows.len(), in_dim * out_dim, "weight rows mis-sized");
    assert_eq!(acc.len(), m * out_dim, "accumulator tile mis-sized");
    assert_eq!(out.len(), m * out_dim, "dot tile mis-sized");
    #[cfg(all(feature = "avx2", target_arch = "x86_64"))]
    if accel::try_levels_dot_multi(xs, m, weight_rows, out_dim, acc, out) {
        return;
    }
    levels_dot_multi_body(xs, m, weight_rows, out_dim, acc, out);
}

/// Monomorphizes the lane count so the per-position lane loop unrolls.
#[inline(always)]
fn levels_dot_multi_body(
    xs: &[i32],
    m: usize,
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    match m {
        1 => levels_one_lane(xs, weight_rows, out_dim, acc, out),
        2 => levels_multi_lanes::<2>(xs, weight_rows, out_dim, acc, out),
        3 => levels_multi_lanes::<3>(xs, weight_rows, out_dim, acc, out),
        4 => levels_multi_lanes::<4>(xs, weight_rows, out_dim, acc, out),
        5 => levels_multi_lanes::<5>(xs, weight_rows, out_dim, acc, out),
        6 => levels_multi_lanes::<6>(xs, weight_rows, out_dim, acc, out),
        7 => levels_multi_lanes::<7>(xs, weight_rows, out_dim, acc, out),
        _ => levels_multi_lanes::<8>(xs, weight_rows, out_dim, acc, out),
    }
}

#[inline(always)]
fn levels_multi_lanes<const M: usize>(
    xs: &[i32],
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    let in_dim = xs.len() / M;
    out.iter_mut().for_each(|o| *o = 0);
    let mut base = 0;
    while base < in_dim {
        let block_len = (in_dim - base).min(ACC_BLOCK);
        acc.iter_mut().for_each(|a| *a = 0);
        for j in base..base + block_len {
            let row = &weight_rows[j * out_dim..][..out_dim];
            for r in 0..M {
                let xj = xs[r * in_dim + j];
                if xj == 0 {
                    continue;
                }
                let lane = &mut acc[r * out_dim..][..out_dim];
                for (a, &wv) in lane.iter_mut().zip(row) {
                    *a += xj * wv as i32;
                }
            }
        }
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o += a as i64;
        }
        base += ACC_BLOCK;
    }
}

/// One lane of [`ternary_dot_multi`]: adds the weight row of every `+1`
/// level and subtracts that of every `−1`, folded `i32 → i64` every
/// `ACC_BLOCK` inputs.
#[inline(always)]
fn ternary_one_lane(
    words: &[u64],
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    let wpp = words.len() / 2;
    let (sign, mag) = words.split_at(wpp);
    out.iter_mut().for_each(|o| *o = 0);
    const WORD_BLOCK: usize = ACC_BLOCK / 64;
    for block_start in (0..wpp.max(1)).step_by(WORD_BLOCK) {
        acc.iter_mut().for_each(|a| *a = 0);
        let block_end = (block_start + WORD_BLOCK).min(wpp);
        for k in block_start..block_end {
            // pack_levels zeroes the tail bits of the last word, so every
            // set bit indexes a real input position.
            let mut pos = mag[k] & !sign[k];
            while pos != 0 {
                let j = k * 64 + pos.trailing_zeros() as usize;
                pos &= pos - 1;
                let row = &weight_rows[j * out_dim..][..out_dim];
                for (a, &wv) in acc.iter_mut().zip(row) {
                    *a += wv as i32;
                }
            }
            let mut neg = mag[k] & sign[k];
            while neg != 0 {
                let j = k * 64 + neg.trailing_zeros() as usize;
                neg &= neg - 1;
                let row = &weight_rows[j * out_dim..][..out_dim];
                for (a, &wv) in acc.iter_mut().zip(row) {
                    *a -= wv as i32;
                }
            }
        }
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o += a as i64;
        }
    }
}

/// Plane-walk combination kernel for the ≤ 2 bit tiers, where levels are
/// `{−1, 0, +1}`: iterates the set bits of the packed magnitude planes
/// directly — no unpack, no multiplies — and adds or subtracts the
/// corresponding weight row per the sign plane. Work is proportional to
/// the number of non-zero levels, the CPU analogue of the accelerator's
/// bit-serial beats.
///
/// `words` holds `m` rows from [`pack_levels`] at 1 or 2 bits, each a sign
/// plane plus one magnitude plane (`2 · words_for(dim)` words),
/// concatenated; they run against one streamed weight tile. Lanes are
/// processed **pairwise**: per word each pair's union of set bits is
/// partitioned into shared-sign, opposed-sign, and exclusive masks, so
/// every weight row a pair touches is loaded and accumulated exactly
/// **once** (into a shared or exclusive accumulator) instead of once per
/// lane — at density `d` that removes a `d² / (2d − d²)` fraction of the
/// add-loops a row-at-a-time walk pays.
///
/// `out` is a lane-major `m · out_dim` tile as in [`levels_dot_multi`];
/// `acc` must hold `2 · m · out_dim` scratch values (one exclusive lane
/// per row plus the pairs' shared/opposed accumulators).
///
/// **Bit-exactness:** per lane and per `ACC_BLOCK` block the pairwise
/// accumulators partition exactly the multiset of `±weight_row` terms of
/// that lane; their elementwise recombination is exact in `i32` (block
/// magnitudes stay below `2^22`), and the `i32 → i64` fold happens every
/// `WORD_BLOCK` words — so lane `r` equals the scalar [`dot_levels`] of
/// row `r` bit-for-bit, whatever `m` is.
///
/// # Panics
///
/// Panics if `m` is outside `1..=MAX_MULTI_ROWS` or any buffer is
/// mis-sized.
pub fn ternary_dot_multi(
    words: &[u64],
    m: usize,
    dim: usize,
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    assert!(
        (1..=MAX_MULTI_ROWS).contains(&m),
        "lane count {m} outside 1..={MAX_MULTI_ROWS}"
    );
    assert_eq!(
        words.len(),
        m * 2 * words_for(dim),
        "each ternary row is a sign plane plus one magnitude plane"
    );
    assert_eq!(weight_rows.len(), dim * out_dim, "weight rows mis-sized");
    assert_eq!(
        acc.len(),
        2 * m * out_dim,
        "accumulator tile mis-sized (two scratch lanes per row)"
    );
    assert_eq!(out.len(), m * out_dim, "dot tile mis-sized");
    #[cfg(all(feature = "avx2", target_arch = "x86_64"))]
    if accel::try_ternary_dot_multi(words, m, dim, weight_rows, out_dim, acc, out) {
        return;
    }
    ternary_dot_multi_body(words, m, dim, weight_rows, out_dim, acc, out);
}

/// Monomorphizes the lane count so the per-bit lane loop unrolls.
#[inline(always)]
fn ternary_dot_multi_body(
    words: &[u64],
    m: usize,
    dim: usize,
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    let _ = dim;
    match m {
        1 => {
            let (lane, _) = acc.split_at_mut(out_dim);
            ternary_one_lane(words, weight_rows, out_dim, lane, out);
        }
        2 => ternary_multi_lanes::<2>(words, weight_rows, out_dim, acc, out),
        3 => ternary_multi_lanes::<3>(words, weight_rows, out_dim, acc, out),
        4 => ternary_multi_lanes::<4>(words, weight_rows, out_dim, acc, out),
        5 => ternary_multi_lanes::<5>(words, weight_rows, out_dim, acc, out),
        6 => ternary_multi_lanes::<6>(words, weight_rows, out_dim, acc, out),
        7 => ternary_multi_lanes::<7>(words, weight_rows, out_dim, acc, out),
        _ => ternary_multi_lanes::<8>(words, weight_rows, out_dim, acc, out),
    }
}

/// Adds (or subtracts) the weight row of every set bit of `mask` into
/// `dst`. Separate add/sub loops per mask keep the branch at the call
/// site, where it is compile-time constant per walk — a per-bit
/// add-vs-sub branch is data-dependent and mispredicts ~half the time.
#[inline(always)]
fn walk_mask(
    k: usize,
    mut mask: u64,
    weight_rows: &[i16],
    out_dim: usize,
    dst: &mut [i32],
    subtract: bool,
) {
    while mask != 0 {
        let j = k * 64 + mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let wrow = &weight_rows[j * out_dim..][..out_dim];
        if subtract {
            for (a, &wv) in dst.iter_mut().zip(wrow) {
                *a -= wv as i32;
            }
        } else {
            for (a, &wv) in dst.iter_mut().zip(wrow) {
                *a += wv as i32;
            }
        }
    }
}

#[inline(always)]
fn ternary_multi_lanes<const M: usize>(
    words: &[u64],
    weight_rows: &[i16],
    out_dim: usize,
    acc: &mut [i32],
    out: &mut [i64],
) {
    let wpp = words.len() / (2 * M);
    out.iter_mut().for_each(|o| *o = 0);
    const WORD_BLOCK: usize = ACC_BLOCK / 64;
    // Scratch layout: `excl[r·out_dim..]` holds lane r's exclusive bits;
    // for pair p (lanes 2p, 2p+1) `shared[2p·out_dim..]` holds the
    // agreeing-sign sum C and `shared[(2p+1)·out_dim..]` the opposed-sign
    // sum D, so lane 2p's block total is `excl + C + D` and lane 2p+1's
    // is `excl + C − D`.
    let (excl, shared) = acc.split_at_mut(M * out_dim);
    for block_start in (0..wpp.max(1)).step_by(WORD_BLOCK) {
        excl.iter_mut().for_each(|a| *a = 0);
        shared.iter_mut().for_each(|a| *a = 0);
        let block_end = (block_start + WORD_BLOCK).min(wpp);
        for k in block_start..block_end {
            // Pairwise bit partition: every set bit of the pair's union
            // lands in exactly one of eight masks (shared sign, opposed
            // sign, and exclusive — each split by add/sub), so every
            // weight row is loaded and accumulated once per pair. pack_levels zeroes
            // the tail bits of the last word, so every set bit indexes a
            // real input position.
            for p in 0..M / 2 {
                let (a, b) = (2 * p, 2 * p + 1);
                let ra = &words[a * 2 * wpp..][..2 * wpp];
                let rb = &words[b * 2 * wpp..][..2 * wpp];
                let (pos_a, neg_a) = (ra[wpp + k] & !ra[k], ra[wpp + k] & ra[k]);
                let (pos_b, neg_b) = (rb[wpp + k] & !rb[k], rb[wpp + k] & rb[k]);
                let (mag_a, mag_b) = (pos_a | neg_a, pos_b | neg_b);
                let c_acc = &mut shared[a * out_dim..][..out_dim];
                walk_mask(k, pos_a & pos_b, weight_rows, out_dim, c_acc, false);
                walk_mask(k, neg_a & neg_b, weight_rows, out_dim, c_acc, true);
                let d_acc = &mut shared[b * out_dim..][..out_dim];
                walk_mask(k, pos_a & neg_b, weight_rows, out_dim, d_acc, false);
                walk_mask(k, neg_a & pos_b, weight_rows, out_dim, d_acc, true);
                let a_acc = &mut excl[a * out_dim..][..out_dim];
                walk_mask(k, pos_a & !mag_b, weight_rows, out_dim, a_acc, false);
                walk_mask(k, neg_a & !mag_b, weight_rows, out_dim, a_acc, true);
                let b_acc = &mut excl[b * out_dim..][..out_dim];
                walk_mask(k, pos_b & !mag_a, weight_rows, out_dim, b_acc, false);
                walk_mask(k, neg_b & !mag_a, weight_rows, out_dim, b_acc, true);
            }
            if M % 2 == 1 {
                let r = M - 1;
                let row = &words[r * 2 * wpp..][..2 * wpp];
                let (sk, mk) = (row[k], row[wpp + k]);
                let lane = &mut excl[r * out_dim..][..out_dim];
                walk_mask(k, mk & !sk, weight_rows, out_dim, lane, false);
                walk_mask(k, mk & sk, weight_rows, out_dim, lane, true);
            }
        }
        // Recombine and fold: exact in `i32` (each term is a ±sum over at
        // most ACC_BLOCK levels, so the three-term total stays below
        // 2^22), then widen at the block boundary.
        for p in 0..M / 2 {
            let (a, b) = (2 * p, 2 * p + 1);
            for c in 0..out_dim {
                let shared_c = shared[a * out_dim + c];
                let opposed_d = shared[b * out_dim + c];
                out[a * out_dim + c] += (excl[a * out_dim + c] + shared_c + opposed_d) as i64;
                out[b * out_dim + c] += (excl[b * out_dim + c] + shared_c - opposed_d) as i64;
            }
        }
        if M % 2 == 1 {
            let r = M - 1;
            for c in 0..out_dim {
                out[r * out_dim + c] += excl[r * out_dim + c] as i64;
            }
        }
    }
}

#[cfg(all(feature = "avx2", target_arch = "x86_64"))]
mod accel {
    //! The same combination kernels compiled with AVX2 + POPCNT enabled:
    //! the `#[target_feature]` recompile lets LLVM vectorize the weight-row
    //! loops wider than the x86-64 baseline allows. No hand-written
    //! intrinsics — each kernel body is shared with the portable build, so
    //! the two cannot diverge numerically.
    #![allow(unsafe_code)]

    /// Whether the running CPU supports the features the accelerated
    /// kernel bodies were compiled for.
    #[inline]
    fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }

    /// Accelerated [`super::levels_dot_multi`]; `false` means fall back.
    #[inline]
    pub fn try_levels_dot_multi(
        xs: &[i32],
        m: usize,
        weight_rows: &[i16],
        out_dim: usize,
        acc: &mut [i32],
        out: &mut [i64],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: gated on runtime detection of the enabled features.
        unsafe { levels_dot_multi(xs, m, weight_rows, out_dim, acc, out) };
        true
    }

    /// Accelerated [`super::ternary_dot_multi`]; `false` means fall back.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn try_ternary_dot_multi(
        words: &[u64],
        m: usize,
        dim: usize,
        weight_rows: &[i16],
        out_dim: usize,
        acc: &mut [i32],
        out: &mut [i64],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: gated on runtime detection of the enabled features.
        unsafe { ternary_dot_multi(words, m, dim, weight_rows, out_dim, acc, out) };
        true
    }

    /// # Safety
    ///
    /// The caller must have verified [`available`] on the running CPU.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn levels_dot_multi(
        xs: &[i32],
        m: usize,
        weight_rows: &[i16],
        out_dim: usize,
        acc: &mut [i32],
        out: &mut [i64],
    ) {
        super::levels_dot_multi_body(xs, m, weight_rows, out_dim, acc, out);
    }

    /// # Safety
    ///
    /// The caller must have verified [`available`] on the running CPU.
    #[target_feature(enable = "avx2,popcnt")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn ternary_dot_multi(
        words: &[u64],
        m: usize,
        dim: usize,
        weight_rows: &[i16],
        out_dim: usize,
        acc: &mut [i32],
        out: &mut [i64],
    ) {
        super::ternary_dot_multi_body(words, m, dim, weight_rows, out_dim, acc, out);
    }
}

/// A borrowed view of one plane-packed row: the planes, the bitwidth they
/// were packed at, and the row's dequantization scale.
#[derive(Debug, Clone, Copy)]
pub struct PlaneRow<'a> {
    /// `planes_for(bits) * words_for(dim)` packed words, sign plane first.
    pub words: &'a [u64],
    /// Bitwidth the levels were quantized at.
    pub bits: u8,
    /// Per-row scale `α` (0 for all-zero rows).
    pub alpha: f32,
}

/// Fixed-slot arena for one bitwidth: same-tier rows are contiguous, and
/// a freed slot is recycled before the arena grows.
struct Arena {
    slot: usize,
    words: Vec<u64>,
    free: Vec<u32>,
}

impl Arena {
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = (self.words.len() / self.slot) as u32;
        self.words.resize(self.words.len() + self.slot, 0);
        slot
    }
}

/// Where one row lives: its bitwidth selects the arena, `slot` the slice
/// inside it.
#[derive(Debug, Clone, Copy)]
struct RowSlot {
    bits: u8,
    slot: u32,
    alpha: f32,
}

/// The packed-at-rest feature store: per-bitwidth tier-contiguous arenas
/// plus per-row `(bits, slot, α)` metadata. This is what the serving
/// engine keeps resident instead of dequantized `f32` rows — ~`bits/32` of
/// the dense footprint — and what the bit-plane kernels read directly.
pub struct TierPackedFeatures {
    dim: usize,
    arenas: Vec<Arena>,
    rows: Vec<RowSlot>,
}

impl TierPackedFeatures {
    /// An empty store for `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        let wpp = words_for(dim);
        let arenas = (1..=MAX_PLANE_BITS)
            .map(|bits| Arena {
                slot: planes_for(bits) * wpp,
                words: Vec::new(),
                free: Vec::new(),
            })
            .collect();
        Self {
            dim,
            arenas,
            rows: Vec::new(),
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row. `alpha` is the row's scale (pass 0 for all-zero
    /// rows); levels must respect `qmax_level(bits)`. Returns the row id.
    pub fn push_row(&mut self, levels: &[i32], bits: u8, alpha: f32) -> usize {
        assert_eq!(levels.len(), self.dim, "row width mismatch");
        let arena = &mut self.arenas[(bits - 1) as usize];
        let slot = arena.alloc();
        let span = arena.slot;
        pack_levels(
            levels,
            bits,
            &mut arena.words[slot as usize * span..][..span],
        );
        self.rows.push(RowSlot { bits, slot, alpha });
        self.rows.len() - 1
    }

    /// Appends an all-zero placeholder row at `bits` (an added node whose
    /// tier is finalized later in the same delta).
    pub fn push_empty(&mut self, bits: u8) -> usize {
        let arena = &mut self.arenas[(bits - 1) as usize];
        let slot = arena.alloc();
        let span = arena.slot;
        arena.words[slot as usize * span..][..span].fill(0);
        self.rows.push(RowSlot {
            bits,
            slot,
            alpha: 0.0,
        });
        self.rows.len() - 1
    }

    /// Rewrites row `row` (a re-tier or feature update). A bitwidth change
    /// frees the old slot into its arena and allocates in the new tier's
    /// arena — no other row moves.
    pub fn set_row(&mut self, row: usize, levels: &[i32], bits: u8, alpha: f32) {
        assert_eq!(levels.len(), self.dim, "row width mismatch");
        let old = self.rows[row];
        let slot = if old.bits == bits {
            old.slot
        } else {
            self.arenas[(old.bits - 1) as usize].free.push(old.slot);
            self.arenas[(bits - 1) as usize].alloc()
        };
        let arena = &mut self.arenas[(bits - 1) as usize];
        let span = arena.slot;
        pack_levels(
            levels,
            bits,
            &mut arena.words[slot as usize * span..][..span],
        );
        self.rows[row] = RowSlot { bits, slot, alpha };
    }

    /// Appends a verbatim copy of a packed row from another store: the
    /// plane words, bitwidth, and scale are copied as-is,
    /// so the new row is **bit-exact** with its source by construction — no
    /// dequantize/re-quantize round trip. This is how shard slices
    /// materialize halo rows out of the global store. Returns the row id.
    ///
    /// # Panics
    ///
    /// Panics if `src` was packed for a different feature dimension.
    pub fn push_copy(&mut self, src: PlaneRow<'_>) -> usize {
        let arena = &mut self.arenas[(src.bits - 1) as usize];
        assert_eq!(src.words.len(), arena.slot, "packed row width mismatch");
        let slot = arena.alloc();
        let span = arena.slot;
        arena.words[slot as usize * span..][..span].copy_from_slice(src.words);
        self.rows.push(RowSlot {
            bits: src.bits,
            slot,
            alpha: src.alpha,
        });
        self.rows.len() - 1
    }

    /// Rewrites row `row` as a verbatim copy of `src` (see
    /// [`TierPackedFeatures::push_copy`]); a bitwidth change migrates the
    /// row between arenas exactly like [`TierPackedFeatures::set_row`].
    ///
    /// # Panics
    ///
    /// Panics if `src` was packed for a different feature dimension.
    pub fn set_copy(&mut self, row: usize, src: PlaneRow<'_>) {
        let old = self.rows[row];
        let slot = if old.bits == src.bits {
            old.slot
        } else {
            self.arenas[(old.bits - 1) as usize].free.push(old.slot);
            self.arenas[(src.bits - 1) as usize].alloc()
        };
        let arena = &mut self.arenas[(src.bits - 1) as usize];
        assert_eq!(src.words.len(), arena.slot, "packed row width mismatch");
        let span = arena.slot;
        arena.words[slot as usize * span..][..span].copy_from_slice(src.words);
        self.rows[row] = RowSlot {
            bits: src.bits,
            slot,
            alpha: src.alpha,
        };
    }

    /// The packed row `row`: the slice of its tier's arena plus its bitwidth
    /// and scale.
    pub fn plane_row(&self, row: usize) -> PlaneRow<'_> {
        let r = self.rows[row];
        let arena = &self.arenas[(r.bits - 1) as usize];
        let span = arena.slot;
        PlaneRow {
            words: &arena.words[r.slot as usize * span..][..span],
            bits: r.bits,
            alpha: r.alpha,
        }
    }

    /// Reconstructs row `row`'s integer levels into `out`.
    pub fn unpack_row(&self, row: usize, out: &mut [i32]) {
        let r = self.plane_row(row);
        unpack_levels(r.words, r.bits, self.dim, out);
    }

    /// Approximate heap bytes the store holds (arena words + row
    /// metadata) — feeds the serving memory gauges.
    pub fn resident_bytes(&self) -> usize {
        self.arenas
            .iter()
            .map(|a| a.words.len() * std::mem::size_of::<u64>())
            .sum::<usize>()
            + self.rows.len() * std::mem::size_of::<RowSlot>()
    }

    /// Words currently allocated in the `bits` arena (tier-contiguity
    /// introspection for tests and telemetry).
    pub fn arena_words(&self, bits: u8) -> usize {
        self.arenas[(bits - 1) as usize].words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_levels(rng: &mut StdRng, dim: usize, bits: u8, density: f64) -> Vec<i32> {
        let q = qmax_level(bits);
        (0..dim)
            .map(|_| {
                if rng.gen_bool(density) {
                    let magnitude = rng.gen_range(1..=q);
                    if rng.gen_bool(0.5) {
                        -magnitude
                    } else {
                        magnitude
                    }
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrip_across_bits_and_dims() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in 1..=MAX_PLANE_BITS {
            for dim in [1usize, 63, 64, 65, 130, 200] {
                let levels = random_levels(&mut rng, dim, bits, 0.4);
                let mut words = vec![0u64; planes_for(bits) * words_for(dim)];
                pack_levels(&levels, bits, &mut words);
                let mut back = vec![0i32; dim];
                unpack_levels(&words, bits, dim, &mut back);
                assert_eq!(levels, back, "bits={bits} dim={dim}");
            }
        }
    }

    /// `m = 1` is the single-row case: one row against the weight tile.
    #[test]
    fn levels_dot_multi_matches_single_row_and_scalar_exactly() {
        let mut rng = StdRng::seed_from_u64(37);
        // Dims straddle the ACC_BLOCK fold boundary (8192) so the blocked
        // i32 -> i64 schedule is exercised with partial last blocks.
        for (bits, in_dim, out_dim) in [
            (3u8, 64usize, 8usize),
            (4, 190, 16),
            (8, 300, 5),
            (5, 8192, 3),
            (4, 9000, 4),
        ] {
            for m in [1usize, 2, 3, 4, 5, 7, 8] {
                let rows: Vec<Vec<i32>> = (0..m)
                    .map(|_| random_levels(&mut rng, in_dim, bits, 0.6))
                    .collect();
                let xs: Vec<i32> = rows.concat();
                let w = random_levels(&mut rng, in_dim * out_dim, 4, 0.8);
                let w16: Vec<i16> = w.iter().map(|&l| l as i16).collect();
                let mut acc = vec![0i32; m * out_dim];
                let mut out = vec![0i64; m * out_dim];
                levels_dot_multi(&xs, m, &w16, out_dim, &mut acc, &mut out);
                for (r, row) in rows.iter().enumerate() {
                    for c in 0..out_dim {
                        let col: Vec<i16> = (0..in_dim).map(|j| w16[j * out_dim + c]).collect();
                        assert_eq!(
                            out[r * out_dim + c],
                            dot_levels(row, &col),
                            "bits={bits} m={m} lane {r} col {c} vs scalar"
                        );
                    }
                }
            }
        }
    }

    /// `m = 1` is the single-row case: one row against the weight tile.
    #[test]
    fn ternary_dot_multi_matches_single_row_and_scalar_exactly() {
        let mut rng = StdRng::seed_from_u64(41);
        for (bits, dim, out_dim) in [
            (1u8, 48usize, 7usize),
            (2, 64, 8),
            (2, 190, 16),
            (1, 8192, 3),
            (2, 9000, 4),
        ] {
            for m in [1usize, 2, 3, 4, 5, 7, 8] {
                let rows: Vec<Vec<i32>> = (0..m)
                    .map(|_| random_levels(&mut rng, dim, bits, 0.5))
                    .collect();
                let span = planes_for(bits) * words_for(dim);
                let mut words = vec![0u64; m * span];
                for (r, row) in rows.iter().enumerate() {
                    pack_levels(row, bits, &mut words[r * span..][..span]);
                }
                let w = random_levels(&mut rng, dim * out_dim, 4, 0.8);
                let w16: Vec<i16> = w.iter().map(|&l| l as i16).collect();
                let mut acc = vec![0i32; 2 * m * out_dim];
                let mut out = vec![0i64; m * out_dim];
                ternary_dot_multi(&words, m, dim, &w16, out_dim, &mut acc, &mut out);
                for (r, row) in rows.iter().enumerate() {
                    for c in 0..out_dim {
                        let col: Vec<i16> = (0..dim).map(|j| w16[j * out_dim + c]).collect();
                        assert_eq!(
                            out[r * out_dim + c],
                            dot_levels(row, &col),
                            "bits={bits} m={m} lane {r} col {c} vs scalar"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn levels_dot_multi_rejects_oversized_lane_counts() {
        let xs = vec![0i32; 9 * 4];
        let w = vec![0i16; 4 * 2];
        let mut acc = vec![0i32; 9 * 2];
        let mut out = vec![0i64; 9 * 2];
        levels_dot_multi(&xs, 9, &w, 2, &mut acc, &mut out);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn ternary_dot_multi_rejects_zero_lanes() {
        let mut acc = vec![0i32; 2];
        let mut out = vec![0i64; 2];
        ternary_dot_multi(&[], 0, 64, &[0i16; 128], 2, &mut acc, &mut out);
    }

    #[test]
    fn store_retier_recycles_slots_within_tiers() {
        let dim = 96usize;
        let mut store = TierPackedFeatures::new(dim);
        let mut rng = StdRng::seed_from_u64(19);
        let rows: Vec<Vec<i32>> = (0..6)
            .map(|_| random_levels(&mut rng, dim, 3, 0.5))
            .collect();
        for row in &rows {
            store.push_row(row, 3, 0.25);
        }
        // Six 3-bit rows share one contiguous arena.
        assert_eq!(store.arena_words(3), 6 * planes_for(3) * words_for(dim));
        assert_eq!(store.arena_words(5), 0);
        // Re-tier row 2 to 5 bits: its 3-bit slot frees, a 5-bit slot opens.
        let promoted = random_levels(&mut rng, dim, 5, 0.5);
        store.set_row(2, &promoted, 5, 0.125);
        assert_eq!(store.arena_words(5), planes_for(5) * words_for(dim));
        let mut back = vec![0i32; dim];
        store.unpack_row(2, &mut back);
        assert_eq!(back, promoted);
        assert_eq!(store.plane_row(2).bits, 5);
        // A new 3-bit row reuses the freed slot: the arena does not grow.
        let words_before = store.arena_words(3);
        store.push_row(&rows[0], 3, 0.25);
        assert_eq!(store.arena_words(3), words_before);
        // Untouched rows are intact.
        store.unpack_row(1, &mut back);
        assert_eq!(back, rows[1]);
    }

    #[test]
    fn verbatim_copies_are_bit_exact_with_their_source() {
        let dim = 96usize;
        let mut rng = StdRng::seed_from_u64(23);
        let mut global = TierPackedFeatures::new(dim);
        for bits in [1u8, 2, 3, 5, 8] {
            let levels = random_levels(&mut rng, dim, bits, 0.5);
            global.push_row(&levels, bits, 1.0 / bits as f32);
        }
        // push_copy: every field of the copied row matches the source.
        let mut halo = TierPackedFeatures::new(dim);
        for row in 0..global.len() {
            halo.push_copy(global.plane_row(row));
        }
        for row in 0..global.len() {
            let (a, b) = (global.plane_row(row), halo.plane_row(row));
            assert_eq!(a.words, b.words, "row {row} words");
            assert_eq!(a.bits, b.bits);
            assert_eq!(a.alpha, b.alpha);
        }
        // set_copy across a bitwidth change migrates arenas and stays
        // bit-exact; the vacated slot is recycled.
        let promoted = random_levels(&mut rng, dim, 6, 0.5);
        global.set_row(0, &promoted, 6, 0.05);
        halo.set_copy(0, global.plane_row(0));
        let (a, b) = (global.plane_row(0), halo.plane_row(0));
        assert_eq!(a.words, b.words);
        assert_eq!(a.bits, 6);
        assert_eq!(b.bits, 6);
        let one_bit_words = halo.arena_words(1);
        let levels = random_levels(&mut rng, dim, 1, 0.5);
        let mut src = TierPackedFeatures::new(dim);
        src.push_row(&levels, 1, 1.0);
        halo.push_copy(src.plane_row(0));
        assert_eq!(halo.arena_words(1), one_bit_words, "freed slot reused");
    }

    #[test]
    fn row_metadata_stays_twelve_bytes() {
        // `resident_bytes` charges this per row: bits, slot, and alpha.
        assert_eq!(std::mem::size_of::<RowSlot>(), 12);
    }

    #[test]
    fn empty_rows_and_zero_alpha_are_representable() {
        let mut store = TierPackedFeatures::new(64);
        let id = store.push_empty(1);
        let row = store.plane_row(id);
        assert_eq!(row.alpha, 0.0);
        assert!(row.words.iter().all(|&w| w == 0));
        let mut out = vec![0i32; 64];
        store.unpack_row(id, &mut out);
        assert!(out.iter().all(|&l| l == 0));
    }
}
