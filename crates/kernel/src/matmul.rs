//! Cache-blocked, register-tiled f32 matrix multiplication.
//!
//! Follows the Goto/BLIS decomposition: the operand matrices are packed
//! into contiguous, zero-padded panels sized for the cache hierarchy
//! (`KC`×`NC` of B, `MC`×`KC` of A), and the innermost computation is a
//! register-resident `mr`×`nr` micro-kernel.
//!
//! The register tile is selected once at runtime: on x86-64 with AVX2 and
//! FMA a 6×16 micro-kernel written with `std::arch` intrinsics (twelve
//! 8-lane accumulators — the classic BLIS/Haswell shape); elsewhere a
//! portable 4×8 kernel whose inner loop is written to auto-vectorize on
//! the target's baseline (SSE2, NEON, …). Both accumulate the full
//! `kc`-deep dot products in registers, which is where the win over the
//! naive row-scaled triple loop comes from: the naive loop streams the
//! whole output row through memory once per depth step, the micro-kernel
//! touches C exactly once per `KC` block.
//!
//! Large products additionally fan row-blocks out across the persistent
//! [`crate::pool`]. The row partition depends only on the shapes (blocks
//! of `MC` rows), each output element is written by exactly one task, and
//! the `KC` blocks are accumulated in ascending order — so results are
//! bitwise identical no matter how many threads the pool has (including
//! the inline single-thread path). The micro-kernel choice is a
//! process-wide constant, so repeated runs on one machine are bitwise
//! reproducible too; across machines, FMA vs. mul+add rounding may
//! differ — the same caveat as any BLAS.
//!
//! Skinny products — at most `SKINNY` rows (a small-batch forward
//! pass) or at most `SKINNY` deep (the rank-`batch` weight gradient) —
//! skip all of that: `gemm_skinny` streams B's rows straight from the
//! operand through one axpy kernel on the calling thread, with no
//! packing, no scratch and no pool, and reproduces the blocked path's
//! per-element arithmetic exactly, so which path ran is unobservable in
//! the bits.
//!
//! All entry points *accumulate* (`out += …`): the MLP forward pass
//! accumulates onto a broadcast bias, so `+=` is the primitive. Callers wanting a
//! plain product zero `out` first. [`matmul_transa`] / [`matmul_transb`]
//! fuse the transposes the backward pass needs (`dB = Aᵀ·G`,
//! `dA = G·Bᵀ`) into the packing closures, so no transposed copy is ever
//! materialized.

use crate::buffer::with_scratch;
use crate::pool::parallel_chunks_mut;
use std::sync::OnceLock;

/// Rows of A (and C) per cache block — the A block is `MC`×`KC`.
const MC: usize = 128;
/// Depth (shared dimension) per cache block.
const KC: usize = 256;
/// Columns of B (and C) per cache block — the B block is `KC`×`NC`.
const NC: usize = 256;

/// Below this many multiply-adds the whole product runs on the calling
/// thread — the fan-out bookkeeping would dominate.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Products with at most this many rows, or at most this much depth, take
/// the pack-free path. Measured (`cargo bench --bench kernels`, group
/// `skinny_k1024_n256`, AVX2+FMA, 2 cores): as depth the pack-free kernel
/// wins through 8 and the pooled blocked tile is ahead by 16; as rows it
/// is still ahead at 16 (packing B dominates), so the depth crossover is
/// the constant.
const SKINNY: usize = 8;

/// Columns per register strip of the skinny kernels (eight 8-lane
/// accumulators).
const STRIP: usize = 64;

/// Floats of B one skinny column block may span (`kc`×`jb`): small enough
/// to stay L1-resident while every row of A sweeps over it.
const SKINNY_BLOCK: usize = 8192;

/// A micro-kernel: `c[i][j] += Σ_p apan[p·mr + i] · bpan[p·nr + j]` over
/// an `h`×`w` corner of the `mr`×`nr` tile (`h = mr`, `w = nr` except at
/// the ragged right/bottom edges). `apan`/`bpan` are packed panels `kc`
/// steps deep; `c` points at the tile's top-left element, row stride
/// `ldc`.
///
/// # Safety
///
/// Callable only if the CPU features it was compiled for are present
/// (guaranteed by [`tile`]), with panels at least `kc·mr` / `kc·nr` long
/// and `c` valid for the `h`×`w` region at stride `ldc`.
type MicroKernel = unsafe fn(
    apan: *const f32,
    bpan: *const f32,
    c: *mut f32,
    ldc: usize,
    kc: usize,
    h: usize,
    w: usize,
);

/// One row of a skinny product: `out[j] += Σ_{p<kc} a[p·a_stride] ·
/// b[p·ldb + j]`, each `out[j]` summed from zero in ascending `p` with
/// the tile's own multiply-add (fused or not) and added to `out` once —
/// the arithmetic the paired [`MicroKernel`] performs on one `KC` block.
///
/// # Safety
///
/// Callable only if the CPU features it was compiled for are present
/// (guaranteed by [`tile`]); the slice bounds are checked.
type SkinnyRow =
    unsafe fn(a: &[f32], a_stride: usize, b: &[f32], ldb: usize, kc: usize, out: &mut [f32]);

/// The register tile selected for this process, with the skinny kernel
/// that rounds the same way.
#[derive(Clone, Copy)]
struct Tile {
    mr: usize,
    nr: usize,
    micro: MicroKernel,
    skinny: SkinnyRow,
}

const PORTABLE_TILE: Tile = Tile {
    mr: 4,
    nr: 8,
    micro: micro_4x8_portable,
    skinny: skinny_row_portable,
};

#[cfg(target_arch = "x86_64")]
const AVX2_FMA_TILE: Tile = Tile {
    mr: 6,
    nr: 16,
    micro: micro_6x16_avx2_fma,
    skinny: skinny_row_avx2_fma,
};

/// Detects the best available micro-kernel once per process.
fn tile() -> Tile {
    static TILE: OnceLock<Tile> = OnceLock::new();
    *TILE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return AVX2_FMA_TILE;
        }
        PORTABLE_TILE
    })
}

/// `out += A·B` — the seed's naive i-k-j loop (with zero-skip), kept as
/// the serial reference for property tests and benchmark baselines.
pub fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out += A·B` where A is `m`×`k` and B is `k`×`n`, all row-major.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if is_skinny(m, k) {
        gemm_skinny(m, k, n, a, k, 1, b, out, tile());
    } else {
        gemm(m, k, n, &|i, p| a[i * k + p], &|p, j| b[p * n + j], out);
    }
}

/// `out += Aᵀ·G` where A is `m`×`k` and G is `m`×`n`: the `k`×`n` weight
/// gradient of the backward pass, with A's transpose fused into packing.
pub fn matmul_transa(a: &[f32], g: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(g.len(), m * n, "grad shape mismatch");
    assert_eq!(out.len(), k * n, "output shape mismatch");
    if is_skinny(k, m) {
        gemm_skinny(k, m, n, a, 1, k, g, out, tile());
    } else {
        gemm(k, m, n, &|t, i| a[i * k + t], &|i, j| g[i * n + j], out);
    }
}

/// `out += G·Bᵀ` where G is `m`×`n` and B is `k`×`n`: the `m`×`k` input
/// gradient of the backward pass, with B's transpose fused into packing.
pub fn matmul_transb(g: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(g.len(), m * n, "grad shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * k, "output shape mismatch");
    gemm(m, n, k, &|i, j| g[i * n + j], &|j, t| b[t * n + j], out);
}

/// The shape rule: few rows or little depth leaves the blocked tile
/// mostly padding while packing still touches every element of B.
fn is_skinny(rows: usize, depth: usize) -> bool {
    rows <= SKINNY || depth <= SKINNY
}

/// Pack-free `out[i·cols + j] += Σ_p A(i,p) · b[p·cols + j]` on the
/// calling thread, with `A(i,p) = a[i·a_row + p·a_depth]` (so the same
/// loop serves `A·B` and `Aᵀ·G`) and B row-major. Bitwise identical to
/// [`gemm_serial`] with the same tile: `KC` blocks in ascending order,
/// each accumulated from zero and added to `out` once.
#[allow(clippy::too_many_arguments)]
fn gemm_skinny(
    rows: usize,
    depth: usize,
    cols: usize,
    a: &[f32],
    a_row: usize,
    a_depth: usize,
    b: &[f32],
    out: &mut [f32],
    t: Tile,
) {
    for pc in (0..depth).step_by(KC) {
        let kc = KC.min(depth - pc);
        let jb = (SKINNY_BLOCK / kc / STRIP).max(1) * STRIP;
        for jc in (0..cols).step_by(jb) {
            let w = jb.min(cols - jc);
            let b_block = &b[pc * cols + jc..];
            for i in 0..rows {
                let a_row_block = &a[i * a_row + pc * a_depth..];
                let out_row = &mut out[i * cols + jc..][..w];
                // SAFETY: `t` comes from `tile()` (or a test that checked
                // the features itself), so the kernel's CPU features are
                // present.
                unsafe { (t.skinny)(a_row_block, a_depth, b_block, cols, kc, out_row) };
            }
        }
    }
}

/// Shared driver: `out[i·cols + j] += Σ_p a_get(i,p) · b_get(p,j)`.
///
/// Small products run serially; large ones split `out` into blocks of
/// `MC` rows on the pool. The split depends only on the shapes, so the
/// result is identical for every pool size.
fn gemm<A, B>(rows: usize, depth: usize, cols: usize, a_get: &A, b_get: &B, out: &mut [f32])
where
    A: Fn(usize, usize) -> f32 + Sync,
    B: Fn(usize, usize) -> f32 + Sync,
{
    if rows == 0 || depth == 0 || cols == 0 {
        return;
    }
    let t = tile();
    if rows * depth * cols < PARALLEL_THRESHOLD || rows <= MC {
        gemm_serial(rows, depth, cols, a_get, b_get, out, t);
        return;
    }
    parallel_chunks_mut(out, MC * cols, |start, piece| {
        let i0 = start / cols;
        gemm_serial(
            piece.len() / cols,
            depth,
            cols,
            &|i, p| a_get(i0 + i, p),
            b_get,
            piece,
            t,
        );
    });
}

/// One thread's worth of blocked GEMM over a row-slice of C.
fn gemm_serial<A, B>(
    rows: usize,
    depth: usize,
    cols: usize,
    a_get: &A,
    b_get: &B,
    out: &mut [f32],
    t: Tile,
) where
    A: Fn(usize, usize) -> f32 + ?Sized,
    B: Fn(usize, usize) -> f32 + ?Sized,
{
    // Panel buffers for the largest block this shape has, rounded up to
    // whole mr/nr panels (packing writes the zero padding itself).
    let kc_max = KC.min(depth);
    with_scratch(kc_max * NC.min(cols).next_multiple_of(t.nr), |bp| {
        with_scratch(MC.min(rows).next_multiple_of(t.mr) * kc_max, |ap| {
            for jc in (0..cols).step_by(NC) {
                let nc = NC.min(cols - jc);
                let n_panels = nc.div_ceil(t.nr);
                for pc in (0..depth).step_by(KC) {
                    let kc = KC.min(depth - pc);
                    pack_b(bp, b_get, pc, jc, kc, nc, t.nr);
                    for ic in (0..rows).step_by(MC) {
                        let mc = MC.min(rows - ic);
                        let m_panels = mc.div_ceil(t.mr);
                        pack_a(ap, a_get, ic, pc, mc, kc, t.mr);
                        for jp in 0..n_panels {
                            let j0 = jp * t.nr;
                            let w = t.nr.min(nc - j0);
                            let bpan = &bp[jp * kc * t.nr..];
                            for ip in 0..m_panels {
                                let i0 = ip * t.mr;
                                let h = t.mr.min(mc - i0);
                                let apan = &ap[ip * kc * t.mr..];
                                let c = out[(ic + i0) * cols + jc + j0..].as_mut_ptr();
                                // SAFETY: `tile()` only returns kernels
                                // whose CPU features were detected; the
                                // panels hold `kc` packed steps and `c`
                                // addresses an in-bounds h×w region of
                                // `out` at row stride `cols`.
                                unsafe {
                                    (t.micro)(apan.as_ptr(), bpan.as_ptr(), c, cols, kc, h, w)
                                };
                            }
                        }
                    }
                }
            }
        });
    });
}

/// Packs the `kc`×`nc` block of B at `(pc, jc)` into `nr`-wide column
/// panels: `bp[panel·kc·nr + p·nr + l] = B[pc+p, jc+panel·nr+l]`, zero
/// padded past `nc`.
fn pack_b<B>(bp: &mut [f32], b_get: &B, pc: usize, jc: usize, kc: usize, nc: usize, nr: usize)
where
    B: Fn(usize, usize) -> f32 + ?Sized,
{
    for panel in 0..nc.div_ceil(nr) {
        let j0 = panel * nr;
        let w = nr.min(nc - j0);
        let dst = &mut bp[panel * kc * nr..(panel + 1) * kc * nr];
        for p in 0..kc {
            let row = &mut dst[p * nr..(p + 1) * nr];
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = if l < w {
                    b_get(pc + p, jc + j0 + l)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `mc`×`kc` block of A at `(ic, pc)` into `mr`-tall row
/// panels: `ap[panel·kc·mr + p·mr + r] = A[ic+panel·mr+r, pc+p]`, zero
/// padded past `mc`.
fn pack_a<A>(ap: &mut [f32], a_get: &A, ic: usize, pc: usize, mc: usize, kc: usize, mr: usize)
where
    A: Fn(usize, usize) -> f32 + ?Sized,
{
    for panel in 0..mc.div_ceil(mr) {
        let i0 = panel * mr;
        let h = mr.min(mc - i0);
        let dst = &mut ap[panel * kc * mr..(panel + 1) * kc * mr];
        for p in 0..kc {
            let col = &mut dst[p * mr..(p + 1) * mr];
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < h {
                    a_get(ic + i0 + r, pc + p)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Portable skinny row: plain multiply then add, like
/// [`micro_4x8_portable`] (Rust never contracts the pair into an FMA).
///
/// # Safety
///
/// See [`SkinnyRow`]. No CPU-feature requirement.
unsafe fn skinny_row_portable(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    ldb: usize,
    kc: usize,
    out: &mut [f32],
) {
    for (strip, out_strip) in out.chunks_mut(STRIP).enumerate() {
        let w = out_strip.len();
        let mut acc = [0.0f32; STRIP];
        for p in 0..kc {
            let av = a[p * a_stride];
            let b_row = &b[p * ldb + strip * STRIP..][..w];
            for (acc_v, &bv) in acc.iter_mut().zip(b_row) {
                *acc_v += av * bv;
            }
        }
        for (o, acc_v) in out_strip.iter_mut().zip(&acc) {
            *o += acc_v;
        }
    }
}

/// AVX2+FMA skinny row: [`STRIP`]-wide strips of eight accumulators, then
/// single vectors, then one masked vector for the ragged tail — every
/// lane goes through the same `vfmadd` as [`micro_6x16_avx2_fma`]'s.
///
/// # Safety
///
/// See [`SkinnyRow`]. Requires AVX2 and FMA (checked by [`tile`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn skinny_row_avx2_fma(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    ldb: usize,
    kc: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    /// `out[..8·NV] += Σ_p a[p·a_stride] · b[p·ldb..][..8·NV]`.
    ///
    /// # Safety
    ///
    /// AVX2+FMA present; `a`, `b` readable at every `p < kc` and `out`
    /// writable over the `8·NV` lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn strip<const NV: usize>(
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        ldb: usize,
        kc: usize,
        out: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); NV];
        for p in 0..kc {
            let av = _mm256_set1_ps(*a.add(p * a_stride));
            let b_row = b.add(p * ldb);
            for (v, acc_v) in acc.iter_mut().enumerate() {
                *acc_v = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row.add(8 * v)), *acc_v);
            }
        }
        for (v, acc_v) in acc.iter().enumerate() {
            let dst = out.add(8 * v);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *acc_v));
        }
    }

    let w = out.len();
    if kc == 0 || w == 0 {
        return;
    }
    assert!(a.len() > (kc - 1) * a_stride, "lhs too short");
    assert!(b.len() >= (kc - 1) * ldb + w, "rhs too short");
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    // SAFETY (whole body): the asserts above bound every `a` and `b`
    // read at `p < kc`, `j < w`; `out` is written at `j < w` only — the
    // tail's masked load/store touch exactly the `w − j` live lanes.
    let mut j = 0;
    while j + STRIP <= w {
        strip::<{ STRIP / 8 }>(a, a_stride, b.add(j), ldb, kc, out.add(j));
        j += STRIP;
    }
    while j + 8 <= w {
        strip::<1>(a, a_stride, b.add(j), ldb, kc, out.add(j));
        j += 8;
    }
    if j < w {
        const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let mask = _mm256_loadu_si256(LANES.as_ptr().add(8 - (w - j)).cast());
        let mut acc = _mm256_setzero_ps();
        for p in 0..kc {
            let av = _mm256_set1_ps(*a.add(p * a_stride));
            let bv = _mm256_maskload_ps(b.add(p * ldb + j), mask);
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
        let dst = out.add(j);
        let sum = _mm256_add_ps(_mm256_maskload_ps(dst, mask), acc);
        _mm256_maskstore_ps(dst, mask, sum);
    }
}

/// Portable 4×8 micro-kernel. The accumulator block is a flat array the
/// compiler keeps in vector registers; the depth loop auto-vectorizes on
/// SSE2/NEON baselines.
///
/// # Safety
///
/// See [`MicroKernel`]. No CPU-feature requirement.
unsafe fn micro_4x8_portable(
    apan: *const f32,
    bpan: *const f32,
    c: *mut f32,
    ldc: usize,
    kc: usize,
    h: usize,
    w: usize,
) {
    const MR: usize = 4;
    const NR: usize = 8;
    let ap = std::slice::from_raw_parts(apan, kc * MR);
    let bp = std::slice::from_raw_parts(bpan, kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(h) {
        let row = c.add(i * ldc);
        for (j, v) in acc_row.iter().enumerate().take(w) {
            *row.add(j) += v;
        }
    }
}

/// 6×16 AVX2+FMA micro-kernel: twelve 8-lane accumulators (the BLIS
/// Haswell shape), two B loads and six A broadcasts per depth step.
///
/// # Safety
///
/// See [`MicroKernel`]. Requires AVX2 and FMA (checked by [`tile`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_6x16_avx2_fma(
    apan: *const f32,
    bpan: *const f32,
    c: *mut f32,
    ldc: usize,
    kc: usize,
    h: usize,
    w: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 6;
    const NR: usize = 16;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bpan.add(p * NR));
        let b1 = _mm256_loadu_ps(bpan.add(p * NR + 8));
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = _mm256_set1_ps(*apan.add(p * MR + i));
            acc_row[0] = _mm256_fmadd_ps(ai, b0, acc_row[0]);
            acc_row[1] = _mm256_fmadd_ps(ai, b1, acc_row[1]);
        }
    }
    if w == NR {
        for (i, acc_row) in acc.iter().enumerate().take(h) {
            let row = c.add(i * ldc);
            _mm256_storeu_ps(row, _mm256_add_ps(_mm256_loadu_ps(row), acc_row[0]));
            let hi = row.add(8);
            _mm256_storeu_ps(hi, _mm256_add_ps(_mm256_loadu_ps(hi), acc_row[1]));
        }
    } else {
        let mut tmp = [0.0f32; NR];
        for (i, acc_row) in acc.iter().enumerate().take(h) {
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc_row[0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc_row[1]);
            let row = c.add(i * ldc);
            for (j, v) in tmp.iter().enumerate().take(w) {
                *row.add(j) += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 8) & 0xffff) as f32 / 65536.0 - 0.5
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_over_shapes() {
        // Full tiles, ragged edges in every dimension, degenerate
        // vectors, and shapes crossing the cache-block boundaries.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (6, 16, 16),
            (17, 9, 23),
            (64, 64, 64),
            (65, 129, 67),
            (70, 300, 70),
            (1, 300, 1),
        ] {
            let a = filled(m * k, 1);
            let b = filled(k * n, 2);
            let mut want = vec![0.0f32; m * n];
            matmul_naive(&a, &b, &mut want, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul(&a, &b, &mut got, m, k, n);
            assert_close(&got, &want, 1e-4 * k as f32);
        }
    }

    #[test]
    fn accumulates_into_out() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = [10.0f32];
        matmul(&a, &b, &mut out, 1, 2, 1);
        assert_eq!(out[0], 10.0 + 11.0);
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let (m, k, n) = (13usize, 6usize, 9usize);
        let a = filled(m * k, 3);
        let g = filled(m * n, 4);
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for t in 0..k {
                at[t * m + i] = a[i * k + t];
            }
        }
        let mut want = vec![0.0f32; k * n];
        matmul_naive(&at, &g, &mut want, k, m, n);
        let mut got = vec![0.0f32; k * n];
        matmul_transa(&a, &g, &mut got, m, k, n);
        assert_close(&got, &want, 1e-4 * m as f32);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let (m, n, k) = (11usize, 8usize, 14usize);
        let g = filled(m * n, 5);
        let b = filled(k * n, 6);
        let mut bt = vec![0.0f32; n * k];
        for t in 0..k {
            for j in 0..n {
                bt[j * k + t] = b[t * n + j];
            }
        }
        let mut want = vec![0.0f32; m * k];
        matmul_naive(&g, &bt, &mut want, m, n, k);
        let mut got = vec![0.0f32; m * k];
        matmul_transb(&g, &b, &mut got, m, n, k);
        assert_close(&got, &want, 1e-4 * n as f32);
    }

    /// Operand values that make rounding, signed zeros and NaN handling
    /// observable: about a fifth ±0 or subnormal, a sprinkle of ±∞, NaN
    /// and a tiny normal, the rest small finite values of both signs.
    fn spiky(len: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0e-30,
        ];
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                let pick = (x >> 24) as usize;
                // Non-finite values are rare enough that most outputs
                // stay finite and the rounding comparison means something.
                if pick < 48 {
                    SPECIAL[pick % 4]
                } else if pick < 52 {
                    SPECIAL[pick % 8]
                } else {
                    ((x >> 8) & 0xffff) as f32 / 65536.0 - 0.5
                }
            })
            .collect()
    }

    /// `gemm_skinny` against `gemm_serial` on the same tile, both
    /// operand layouts, accumulating into the same dirty `out`.
    fn assert_skinny_is_blocked(t: Tile, rows: usize, depth: usize, cols: usize, seed: u32) {
        let a = spiky(rows * depth, seed);
        let b = spiky(depth * cols, seed.wrapping_add(1));
        let dirty = spiky(rows * cols, seed.wrapping_add(2));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let b_get = |p: usize, j: usize| b[p * cols + j];

        // A·B: `a` is rows×depth row-major.
        let mut want = dirty.clone();
        gemm_serial(
            rows,
            depth,
            cols,
            &|i, p| a[i * depth + p],
            &b_get,
            &mut want,
            t,
        );
        let mut got = dirty.clone();
        gemm_skinny(rows, depth, cols, &a, depth, 1, &b, &mut got, t);
        assert_eq!(bits(&got), bits(&want), "A·B {rows}x{depth}x{cols}");

        // Aᵀ·G: the same buffer read as depth×rows row-major.
        let mut want = dirty.clone();
        gemm_serial(
            rows,
            depth,
            cols,
            &|i, p| a[p * rows + i],
            &b_get,
            &mut want,
            t,
        );
        let mut got = dirty;
        gemm_skinny(rows, depth, cols, &a, 1, rows, &b, &mut got, t);
        assert_eq!(bits(&got), bits(&want), "Aᵀ·G {rows}x{depth}x{cols}");
    }

    /// Every tile this CPU can run: the portable pairing always, so it is
    /// pinned on AVX2 boxes too.
    fn runnable_tiles() -> Vec<Tile> {
        let mut tiles = vec![PORTABLE_TILE];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            tiles.push(AVX2_FMA_TILE);
        }
        tiles
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The skinny kernel is the blocked kernel, bit for bit: few rows
        /// against depths straddling `KC`, few depth against many rows,
        /// columns ragged against the 8-lane vector, the 16-wide tile and
        /// the 64-wide strip, operands full of ±0, subnormals, ±∞ and NaN.
        #[test]
        fn skinny_matches_blocked_bitwise(
            few in 1usize..=2 * SKINNY,
            many in prop::sample::select(vec![1usize, 7, 255, 256, 257, 513]),
            cols in prop::sample::select(vec![1usize, 7, 8, 10, 16, 23, 63, 64, 65, 80, 129, 200]),
            seed in 0u32..10_000,
        ) {
            for t in runnable_tiles() {
                assert_skinny_is_blocked(t, few, many, cols, seed);
                assert_skinny_is_blocked(t, many, few, cols, seed);
            }
        }
    }

    #[test]
    fn public_entry_points_agree_across_the_shape_rule() {
        // `matmul` / `matmul_transa` one step either side of SKINNY
        // against the blocked driver they would otherwise have called.
        let (k, n) = (300usize, 70usize);
        for m in [SKINNY, SKINNY + 1] {
            let a = filled(m * k, 11);
            let b = filled(k * n, 12);
            let g = filled(m * n, 13);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let mut want = vec![0.5f32; m * n];
            gemm(
                m,
                k,
                n,
                &|i, p| a[i * k + p],
                &|p, j| b[p * n + j],
                &mut want,
            );
            let mut got = vec![0.5f32; m * n];
            matmul(&a, &b, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul m={m}");

            let mut want = vec![0.5f32; k * n];
            gemm(
                k,
                m,
                n,
                &|t, i| a[i * k + t],
                &|i, j| g[i * n + j],
                &mut want,
            );
            let mut got = vec![0.5f32; k * n];
            matmul_transa(&a, &g, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul_transa m={m}");
        }
    }

    #[test]
    fn parallel_path_is_deterministic() {
        // Big enough to cross PARALLEL_THRESHOLD and span several MC row
        // blocks: repeated runs must agree bitwise.
        let (m, k, n) = (150usize, 64usize, 48usize);
        let a = filled(m * k, 7);
        let b = filled(k * n, 8);
        let mut first = vec![0.0f32; m * n];
        matmul(&a, &b, &mut first, m, k, n);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            matmul(&a, &b, &mut again, m, k, n);
            let same = first
                .iter()
                .zip(&again)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "parallel matmul not bitwise deterministic");
        }
    }
}
