//! Cache-blocked, register-tiled f32 matrix multiplication.
//!
//! Follows the Goto/BLIS decomposition: the operand matrices are packed
//! into contiguous, zero-padded panels sized for the cache hierarchy
//! (`KC`×`NC` of B, `MC`×`KC` of A), and the innermost computation is a
//! register-resident `mr`×`nr` micro-kernel.
//!
//! The register tile is selected from the CPU, probed once per process:
//!
//! * x86-64 with AVX-512F: an 8×32 micro-kernel — sixteen 16-lane
//!   `__m512` accumulators, two B vectors and eight broadcast A values
//!   per depth step — for every product but a small one, which stays on
//!   the AVX2 tile (a lone 512-bit burst costs the core more than it
//!   saves);
//! * x86-64 with AVX2 and FMA: a 6×16 micro-kernel (twelve 8-lane
//!   accumulators — the classic BLIS/Haswell shape);
//! * elsewhere a portable 4×8 kernel whose inner loop is written to
//!   auto-vectorize on the target's baseline (SSE2, NEON, …).
//!
//! Each accumulates the full `kc`-deep dot products in registers, which is
//! where the win over the naive row-scaled triple loop comes from: the
//! naive loop streams the whole output row through memory once per depth
//! step, the micro-kernel touches C exactly once per `KC` block.
//!
//! **The rounding contract.** Every tile computes each output element, per
//! `KC` block, as one multiply-add chain started from +0 in ascending
//! depth order, and adds the chain to `out` once; the blocks are taken in
//! ascending order. Tile shape, path (blocked, narrow, skinny), `MC`,
//! `NC` and the thread count therefore never reach the bits — only `KC`
//! and whether the multiply-add is fused do. The AVX-512 and AVX2 tiles
//! both fuse, so they are bitwise equal (the tests pin it) and honest
//! replicas computed on AVX2 and AVX-512 hosts vote together. The
//! portable tile rounds the product before the add, so a host without FMA
//! computes different bits from an FMA host: in a mixed fleet that host's
//! honest replicas would be outvoted.
//!
//! Large products additionally fan row-blocks out across the persistent
//! [`crate::pool`]. The row partition depends only on the shapes (blocks
//! of `MC` rows) and each output element is written by exactly one task,
//! so results are bitwise identical no matter how many threads the pool
//! has (including the inline single-thread path).
//!
//! Skinny products — at most `SKINNY` rows (a small-batch forward
//! pass) or at most `SKINNY` deep (the rank-`batch` weight gradient) —
//! skip all of that: `gemm_skinny` streams B's rows straight from the
//! operand through one axpy kernel on the calling thread, with no
//! packing, no scratch and no pool, and reproduces the blocked path's
//! per-element arithmetic exactly, so which path ran is unobservable in
//! the bits. Narrow products — at most `NARROW` (16) columns, a
//! classifier head — take the AVX-512 tile's narrow kernel where there is
//! one: B is packed as a single 16-wide panel and A read in place, since
//! packing A would cost more than the few lanes of work it feeds.
//!
//! All entry points *accumulate* (`out += …`): the MLP forward pass
//! accumulates onto a broadcast bias, so `+=` is the primitive. Callers wanting a
//! plain product zero `out` first. [`matmul_transa`] / [`matmul_transb`]
//! fuse the transposes the backward pass needs (`dB = Aᵀ·G`,
//! `dA = G·Bᵀ`) into packing: each operand is a strided `View`, packed
//! with `copy_from_slice` where its runs are contiguous and gathered
//! where they are not, so no transposed copy is ever materialized.

use crate::buffer::with_scratch;
use crate::pool::parallel_chunks_mut;
use std::sync::OnceLock;

/// Rows of A (and C) per cache block — the A block is `MC`×`KC`.
const MC: usize = 128;
/// Depth (shared dimension) per cache block.
const KC: usize = 256;
/// Columns of B (and C) per cache block — the B block is `KC`×`NC`.
const NC: usize = 256;

/// Below this many multiply-adds a product is small: it runs on the
/// calling thread — the fan-out bookkeeping would dominate — and on
/// 256-bit vectors even where the AVX-512 tile exists. A lone burst of
/// 512-bit FMAs between scalar work costs the core a power and frequency
/// transition that outlasts the product: batch-1 replicas, whose one
/// blocked product is 1×10×256, lost 16 % of `straggler_sparse_bounded`'s
/// rounds/s to the wide tile.
const SMALL_PRODUCT: usize = 1 << 16;

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

/// Up to [`NARROW_MR`] rows of a product at most [`NARROW`] columns wide:
/// `out[i·ldo + j] += Σ_{p<kc} A(i,p) · bpan[p·NARROW + j]` for `i < h`,
/// `j < w`, with A read in place through its view and B packed as one
/// zero-padded `NARROW`-wide panel — per element, the arithmetic of the
/// paired [`MicroKernel`] on one `KC` block.
///
/// # Safety
///
/// Callable only if the CPU features it was compiled for are present
/// (guaranteed by [`tile`]); the slice bounds are checked.
type NarrowKernel =
    unsafe fn(a: View, bpan: &[f32], kc: usize, h: usize, w: usize, out: &mut [f32], ldo: usize);

/// Columns a narrow product may have: one 16-lane vector.
const NARROW: usize = 16;

/// Rows per narrow-kernel call: eight independent FMA chains cover the
/// FMA latency without running out of general registers for row pointers.
const NARROW_MR: usize = 8;

/// The register tile selected for this process, with the skinny kernel
/// that rounds the same way and, where there is one, the narrow kernel.
#[derive(Clone, Copy)]
struct Tile {
    mr: usize,
    nr: usize,
    micro: MicroKernel,
    skinny: SkinnyRow,
    narrow: Option<NarrowKernel>,
}

const PORTABLE_TILE: Tile = Tile {
    mr: 4,
    nr: 8,
    micro: micro_4x8_portable,
    skinny: skinny_row_portable,
    narrow: None,
};

#[cfg(target_arch = "x86_64")]
const AVX2_FMA_TILE: Tile = Tile {
    mr: 6,
    nr: 16,
    micro: micro_6x16_avx2_fma,
    skinny: skinny_row_avx2_fma,
    narrow: None,
};

/// The wide tile. Its skinny pairing is the AVX2 one: both fuse the
/// multiply-add, so they round alike.
#[cfg(target_arch = "x86_64")]
const AVX512_TILE: Tile = Tile {
    mr: 8,
    nr: 32,
    micro: micro_8x32_avx512,
    skinny: skinny_row_avx2_fma,
    narrow: Some(narrow_8x16_avx512),
};

/// Whether this CPU runs [`AVX2_FMA_TILE`].
#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether this CPU runs [`AVX512_TILE`] (its skinny kernel needs AVX2).
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    has_avx2_fma() && std::arch::is_x86_feature_detected!("avx512f")
}

/// The register tile for a product of `macs` multiply-adds. The CPU is
/// probed once per process; the size only matters on AVX-512 hosts,
/// where a [`SMALL_PRODUCT`] keeps to the AVX2 tile (the same bits).
fn tile(macs: usize) -> Tile {
    static TILES: OnceLock<(Tile, Tile)> = OnceLock::new();
    let (small, large) = *TILES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            return (AVX2_FMA_TILE, AVX512_TILE);
        } else if has_avx2_fma() {
            return (AVX2_FMA_TILE, AVX2_FMA_TILE);
        }
        (PORTABLE_TILE, PORTABLE_TILE)
    });
    if macs < SMALL_PRODUCT {
        small
    } else {
        large
    }
}

/// A read-only strided matrix: element `(i, j)` is `data[i·rs + j·cs]`.
/// Row-major operands have `cs = 1`, transposed ones `rs = 1`; indexing
/// goes through the slice, so a view too short for its shape panics.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// `data` read as a row-major matrix `cols` wide.
    fn row_major(data: &'a [f32], cols: usize) -> Self {
        View {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of `data` read as a row-major matrix `cols` wide.
    fn transposed(data: &'a [f32], cols: usize) -> Self {
        View {
            data,
            rs: 1,
            cs: cols,
        }
    }

    /// The same matrix with its first `i0` rows and `j0` columns dropped.
    fn sub(self, i0: usize, j0: usize) -> Self {
        View {
            data: &self.data[i0 * self.rs + j0 * self.cs..],
            ..self
        }
    }
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
    let a = View::row_major(a, k);
    if is_skinny(m, k) {
        gemm_skinny(m, k, n, a, b, out, tile(m * k * n));
    } else {
        gemm(m, k, n, a, View::row_major(b, n), out);
    }
}

/// `out += Aᵀ·G` where A is `m`×`k` and G is `m`×`n`: the `k`×`n` weight
/// gradient of the backward pass, with A's transpose fused into packing.
pub fn matmul_transa(a: &[f32], g: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(g.len(), m * n, "grad shape mismatch");
    assert_eq!(out.len(), k * n, "output shape mismatch");
    let at = View::transposed(a, k);
    if is_skinny(k, m) {
        gemm_skinny(k, m, n, at, g, out, tile(m * k * n));
    } else {
        gemm(k, m, n, at, View::row_major(g, n), out);
    }
}

/// `out += G·Bᵀ` where G is `m`×`n` and B is `k`×`n`: the `m`×`k` input
/// gradient of the backward pass, with B's transpose fused into packing.
pub fn matmul_transb(g: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(g.len(), m * n, "grad shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * k, "output shape mismatch");
    gemm(m, n, k, View::row_major(g, n), View::transposed(b, n), out);
}

/// The shape rule: few rows or little depth leaves the blocked tile
/// mostly padding while packing still touches every element of B.
fn is_skinny(rows: usize, depth: usize) -> bool {
    rows <= SKINNY || depth <= SKINNY
}

/// Pack-free `out[i·cols + j] += Σ_p A(i,p) · b[p·cols + j]` on the
/// calling thread, with A any view (so the same loop serves `A·B` and
/// `Aᵀ·G`) and B row-major. Bitwise identical to [`gemm_serial`] with the
/// same tile: `KC` blocks in ascending order, each accumulated from zero
/// and added to `out` once.
fn gemm_skinny(
    rows: usize,
    depth: usize,
    cols: usize,
    a: View,
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
                let a_row_block = &a.data[i * a.rs + pc * a.cs..];
                let out_row = &mut out[i * cols + jc..][..w];
                // SAFETY: `t` comes from `tile` (or a test that checked
                // the features itself), so the kernel's CPU features are
                // present.
                unsafe { (t.skinny)(a_row_block, a.cs, b_block, cols, kc, out_row) };
            }
        }
    }
}

/// Shared driver: `out[i·cols + j] += Σ_p A(i,p) · B(p,j)`.
///
/// Products at most [`NARROW`] wide go to the tile's narrow kernel when
/// it has one. Other products under [`SMALL_PRODUCT`] run serially; large ones split `out`
/// into blocks of `MC` rows on the pool. The split depends only on the
/// shapes, so the result is identical for every pool size.
fn gemm(rows: usize, depth: usize, cols: usize, a: View, b: View, out: &mut [f32]) {
    if rows == 0 || depth == 0 || cols == 0 {
        return;
    }
    let macs = rows * depth * cols;
    let t = tile(macs);
    if cols <= NARROW {
        if let Some(narrow) = t.narrow {
            gemm_narrow(rows, depth, cols, a, b, out, narrow);
            return;
        }
    }
    if macs < SMALL_PRODUCT || rows <= MC {
        gemm_serial(rows, depth, cols, a, b, out, t);
        return;
    }
    parallel_chunks_mut(out, MC * cols, |start, piece| {
        let a = a.sub(start / cols, 0);
        gemm_serial(piece.len() / cols, depth, cols, a, b, piece, t);
    });
}

/// A product at most [`NARROW`] columns wide (a classifier head, or its
/// weight gradient) on the calling thread: the blocked tile would pack all
/// of A to fill a few of its lanes, so B alone is packed, one `KC` block
/// at a time, and A is read in place. Bitwise identical to
/// [`gemm_serial`] on a tile that rounds like `narrow`.
fn gemm_narrow(
    rows: usize,
    depth: usize,
    cols: usize,
    a: View,
    b: View,
    out: &mut [f32],
    narrow: NarrowKernel,
) {
    with_scratch(KC.min(depth) * NARROW, |bp| {
        for pc in (0..depth).step_by(KC) {
            let kc = KC.min(depth - pc);
            pack_b(bp, b, pc, 0, kc, cols, NARROW);
            for i0 in (0..rows).step_by(NARROW_MR) {
                let h = NARROW_MR.min(rows - i0);
                // SAFETY: `narrow` comes from `tile` (or a test that
                // checked the features itself), so its CPU features are
                // present.
                unsafe { narrow(a.sub(i0, pc), bp, kc, h, cols, &mut out[i0 * cols..], cols) };
            }
        }
    });
}

/// One thread's worth of blocked GEMM over a row-slice of C.
fn gemm_serial(rows: usize, depth: usize, cols: usize, a: View, b: View, out: &mut [f32], t: Tile) {
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
                    pack_b(bp, b, pc, jc, kc, nc, t.nr);
                    for ic in (0..rows).step_by(MC) {
                        let mc = MC.min(rows - ic);
                        let m_panels = mc.div_ceil(t.mr);
                        pack_a(ap, a, ic, pc, mc, kc, t.mr);
                        for jp in 0..n_panels {
                            let j0 = jp * t.nr;
                            let w = t.nr.min(nc - j0);
                            let bpan = &bp[jp * kc * t.nr..];
                            for ip in 0..m_panels {
                                let i0 = ip * t.mr;
                                let h = t.mr.min(mc - i0);
                                let apan = &ap[ip * kc * t.mr..];
                                let c = out[(ic + i0) * cols + jc + j0..].as_mut_ptr();
                                // SAFETY: `tile` only returns kernels
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
/// padded past `nc`. A row-major B's panel rows are copied whole; a
/// transposed B is gathered one panel column at a time, walking B's
/// contiguous storage.
fn pack_b(bp: &mut [f32], b: View, pc: usize, jc: usize, kc: usize, nc: usize, nr: usize) {
    let panels = bp[..nc.div_ceil(nr) * kc * nr].chunks_exact_mut(kc * nr);
    for (panel, dst) in panels.enumerate() {
        let j0 = jc + panel * nr;
        let w = nr.min(jc + nc - j0);
        if b.cs == 1 {
            for (p, row) in dst.chunks_exact_mut(nr).enumerate() {
                let src = &b.data[(pc + p) * b.rs + j0..][..w];
                row[..w].copy_from_slice(src);
                row[w..].fill(0.0);
            }
        } else {
            for l in 0..w {
                let src = &b.data[pc * b.rs + (j0 + l) * b.cs..];
                for (p, slot) in dst[l..].iter_mut().step_by(nr).enumerate() {
                    *slot = src[p * b.rs];
                }
            }
            for row in dst.chunks_exact_mut(nr) {
                row[w..].fill(0.0);
            }
        }
    }
}

/// Packs the `mc`×`kc` block of A at `(ic, pc)` into `mr`-tall row
/// panels: `ap[panel·kc·mr + p·mr + r] = A[ic+panel·mr+r, pc+p]`, zero
/// padded past `mc`. A transposed A's panel columns are copied whole; a
/// row-major A is gathered one panel row at a time, walking A's
/// contiguous storage.
fn pack_a(ap: &mut [f32], a: View, ic: usize, pc: usize, mc: usize, kc: usize, mr: usize) {
    let panels = ap[..mc.div_ceil(mr) * kc * mr].chunks_exact_mut(kc * mr);
    for (panel, dst) in panels.enumerate() {
        let i0 = ic + panel * mr;
        let h = mr.min(ic + mc - i0);
        if a.rs == 1 {
            for (p, col) in dst.chunks_exact_mut(mr).enumerate() {
                let src = &a.data[(pc + p) * a.cs + i0..][..h];
                col[..h].copy_from_slice(src);
                col[h..].fill(0.0);
            }
        } else {
            for r in 0..h {
                let src = &a.data[(i0 + r) * a.rs + pc * a.cs..];
                for (p, slot) in dst[r..].iter_mut().step_by(mr).enumerate() {
                    *slot = src[p * a.cs];
                }
            }
            for col in dst.chunks_exact_mut(mr) {
                col[h..].fill(0.0);
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

/// 8×32 AVX-512F micro-kernel: sixteen 16-lane accumulators, two B loads
/// and eight A broadcasts per depth step. The same `vfmadd` chain per
/// element as [`micro_6x16_avx2_fma`], so the two are bitwise equal;
/// ragged right edges store through lane masks. (Measured against 12×32
/// and 14×32 on 512×256×256, `cargo bench --bench kernels`: all within
/// 3 %; 8 rows divide `MC`, so no row panel is padding.)
///
/// # Safety
///
/// See [`MicroKernel`]. Requires AVX-512F (checked by [`tile`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_8x32_avx512(
    apan: *const f32,
    bpan: *const f32,
    c: *mut f32,
    ldc: usize,
    kc: usize,
    h: usize,
    w: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 32;
    let mut acc = [[_mm512_setzero_ps(); 2]; MR];
    for p in 0..kc {
        let b0 = _mm512_loadu_ps(bpan.add(p * NR));
        let b1 = _mm512_loadu_ps(bpan.add(p * NR + 16));
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_ps(*apan.add(p * MR + i));
            acc_row[0] = _mm512_fmadd_ps(ai, b0, acc_row[0]);
            acc_row[1] = _mm512_fmadd_ps(ai, b1, acc_row[1]);
        }
    }
    // Lane masks for the two halves of a `w`-wide row; a masked load or
    // store touches no memory in its cleared lanes.
    let (lo, hi) = (lane_mask(w), lane_mask(w.saturating_sub(16)));
    for (i, acc_row) in acc.iter().enumerate().take(h) {
        let row = c.add(i * ldc);
        _mm512_mask_storeu_ps(
            row,
            lo,
            _mm512_add_ps(_mm512_maskz_loadu_ps(lo, row), acc_row[0]),
        );
        if w > 16 {
            let row = row.add(16);
            _mm512_mask_storeu_ps(
                row,
                hi,
                _mm512_add_ps(_mm512_maskz_loadu_ps(hi, row), acc_row[1]),
            );
        }
    }
}

/// The 16-lane mask with the low `min(n, 16)` lanes set.
#[cfg(target_arch = "x86_64")]
fn lane_mask(n: usize) -> u16 {
    ((1u32 << n.min(16)) - 1) as u16
}

/// 8-row AVX-512F narrow kernel: one 16-lane accumulator per row, one B
/// load and eight A broadcasts per depth step, each element the same
/// `vfmadd` chain as [`micro_8x32_avx512`]'s.
///
/// # Safety
///
/// See [`NarrowKernel`]. Requires AVX-512F (checked by [`tile`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn narrow_8x16_avx512(
    a: View,
    bpan: &[f32],
    kc: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
    ldo: usize,
) {
    use std::arch::x86_64::*;
    if kc == 0 || h == 0 || w == 0 {
        return;
    }
    assert!(h <= NARROW_MR && w <= NARROW, "narrow tile overflow");
    assert!(
        a.data.len() > (h - 1) * a.rs + (kc - 1) * a.cs,
        "lhs too short"
    );
    assert!(bpan.len() >= kc * NARROW, "rhs panel too short");
    assert!(out.len() >= (h - 1) * ldo + w, "output too short");
    // SAFETY (whole body): the asserts above bound every read of A at
    // `i < h`, `p < kc`, of the panel at `p < kc`, and every write of
    // `out` at `i < h`, `j < w` (the masked load/store touch only the `w`
    // live lanes). Rows past `h` re-read row `h − 1` and are not stored,
    // which keeps the row loop fixed-size.
    let rows: [*const f32; NARROW_MR] =
        std::array::from_fn(|i| a.data.as_ptr().add(i.min(h - 1) * a.rs));
    let mut acc = [_mm512_setzero_ps(); NARROW_MR];
    for p in 0..kc {
        let bv = _mm512_loadu_ps(bpan.as_ptr().add(p * NARROW));
        for (acc_i, row) in acc.iter_mut().zip(&rows) {
            *acc_i = _mm512_fmadd_ps(_mm512_set1_ps(*row.add(p * a.cs)), bv, *acc_i);
        }
    }
    let mask = lane_mask(w);
    for (i, acc_i) in acc.iter().enumerate().take(h) {
        let dst = out.as_mut_ptr().add(i * ldo);
        let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), *acc_i);
        _mm512_mask_storeu_ps(dst, mask, sum);
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
        let b_rows = View::row_major(&b, cols);

        // A·B: `a` is rows×depth row-major.
        let a_rows = View::row_major(&a, depth);
        let mut want = dirty.clone();
        gemm_serial(rows, depth, cols, a_rows, b_rows, &mut want, t);
        let mut got = dirty.clone();
        gemm_skinny(rows, depth, cols, a_rows, &b, &mut got, t);
        assert_eq!(bits(&got), bits(&want), "A·B {rows}x{depth}x{cols}");

        // Aᵀ·G: the same buffer read as depth×rows row-major.
        let a_t = View::transposed(&a, rows);
        let mut want = dirty.clone();
        gemm_serial(rows, depth, cols, a_t, b_rows, &mut want, t);
        let mut got = dirty;
        gemm_skinny(rows, depth, cols, a_t, &b, &mut got, t);
        assert_eq!(bits(&got), bits(&want), "Aᵀ·G {rows}x{depth}x{cols}");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The wide tile if this CPU runs it; otherwise says, on stderr, that
    /// the wide cases were skipped rather than passing silently.
    fn wide_tile() -> Option<Tile> {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            return Some(AVX512_TILE);
        }
        eprintln!("skipped: no avx512f on this CPU, the 8x32 tile is not exercised");
        None
    }

    /// Every tile this CPU can run: the portable pairing always, so it is
    /// pinned on FMA boxes too.
    fn runnable_tiles() -> Vec<Tile> {
        let mut tiles = vec![PORTABLE_TILE];
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            tiles.push(AVX2_FMA_TILE);
        }
        tiles.extend(wide_tile());
        tiles
    }

    /// `gemm_serial` on tile `t` — and, for a narrow product, `t`'s narrow
    /// kernel — against the AVX2 tile in the three layouts the public entry
    /// points use (A·B, Aᵀ·G, G·Bᵀ), accumulating into the same dirty `out`.
    #[cfg(target_arch = "x86_64")]
    fn assert_tile_is_avx2(t: Tile, rows: usize, depth: usize, cols: usize, seed: u32) {
        let a = spiky(rows * depth, seed);
        let b = spiky(depth * cols, seed.wrapping_add(1));
        let dirty = spiky(rows * cols, seed.wrapping_add(2));
        let layouts = [
            ("A·B", View::row_major(&a, depth), View::row_major(&b, cols)),
            (
                "Aᵀ·G",
                View::transposed(&a, rows),
                View::row_major(&b, cols),
            ),
            (
                "G·Bᵀ",
                View::row_major(&a, depth),
                View::transposed(&b, depth),
            ),
        ];
        for (name, av, bv) in layouts {
            let mut want = dirty.clone();
            gemm_serial(rows, depth, cols, av, bv, &mut want, AVX2_FMA_TILE);
            let mut got = dirty.clone();
            gemm_serial(rows, depth, cols, av, bv, &mut got, t);
            assert_eq!(bits(&got), bits(&want), "{name} {rows}x{depth}x{cols}");
            if cols <= NARROW {
                if let Some(narrow) = t.narrow {
                    let mut got = dirty.clone();
                    gemm_narrow(rows, depth, cols, av, bv, &mut got, narrow);
                    let shape = format!("{rows}x{depth}x{cols}");
                    assert_eq!(bits(&got), bits(&want), "narrow {name} {shape}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn small_products_stay_on_256_bit_vectors() {
        if wide_tile().is_some() {
            assert_eq!(tile(SMALL_PRODUCT - 1).nr, AVX2_FMA_TILE.nr);
            assert_eq!(tile(SMALL_PRODUCT).nr, AVX512_TILE.nr);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_tile_matches_avx2_on_the_compute_heavy_layers() {
        // FastMlp 256 → 256 → 10 at batch 512: the hidden layer and the
        // head, forward and both backward layouts.
        if let Some(t) = wide_tile() {
            assert_tile_is_avx2(t, 512, 256, 256, 3);
            assert_tile_is_avx2(t, 512, 256, 10, 4);
        }
    }

    #[test]
    fn chains_start_from_positive_zero() {
        // −0·1 summed onto a −0 `out` gives +0 only if the chain starts at
        // +0 — the rounding contract's start value, on every path.
        let (rows, depth) = (9usize, 3usize);
        let a = vec![-0.0f32; rows * depth];
        let av = View::row_major(&a, depth);
        for cols in [NARROW, 33] {
            let b = vec![1.0f32; depth * cols];
            let bv = View::row_major(&b, cols);
            for t in runnable_tiles() {
                let positive = |out: &[f32]| out.iter().all(|v| v.to_bits() == 0);
                let mut out = vec![-0.0f32; rows * cols];
                gemm_serial(rows, depth, cols, av, bv, &mut out, t);
                assert!(positive(&out), "blocked mr={} cols={cols}", t.mr);
                let mut out = vec![-0.0f32; rows * cols];
                gemm_skinny(rows, depth, cols, av, &b, &mut out, t);
                assert!(positive(&out), "skinny mr={} cols={cols}", t.mr);
                if cols <= NARROW {
                    if let Some(narrow) = t.narrow {
                        let mut out = vec![-0.0f32; rows * cols];
                        gemm_narrow(rows, depth, cols, av, bv, &mut out, narrow);
                        assert!(positive(&out), "narrow mr={}", t.mr);
                    }
                }
            }
        }
    }

    /// A `rows`×`depth` block of `get` cut into `width`-tall panels, each
    /// laid out depth-major and zero-padded past `rows`: what `pack_a`
    /// writes for A and `pack_b` for Bᵀ, by plain indexing.
    fn panels_reference(
        get: impl Fn(usize, usize) -> f32,
        rows: usize,
        depth: usize,
        width: usize,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        for panel in 0..rows.div_ceil(width) {
            for p in 0..depth {
                for l in 0..width {
                    let i = panel * width + l;
                    out.push(if i < rows { get(i, p) } else { 0.0 });
                }
            }
        }
        out
    }

    #[test]
    fn packing_matches_an_index_reference() {
        // A 37×45 matrix `m`, stored row-major in `src` and transposed in
        // `src_t`, packed from an interior corner so neither offset nor
        // block edge lines up with a panel. Scratch starts as NaN, so
        // padding that packing does not write shows.
        let (rows, cols) = (37usize, 45usize);
        let src: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
        let mut src_t = vec![0.0f32; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                src_t[j * rows + i] = src[i * cols + j];
            }
        }
        let m = |i: usize, j: usize| src[i * cols + j];
        let views = [
            ("row-major", View::row_major(&src, cols)),
            ("transposed", View::transposed(&src_t, rows)),
        ];
        let (i0, j0, h, d) = (3usize, 5usize, 31usize, 29usize);
        for width in [4usize, 6, 8, 14, 16, 32] {
            let len = h.div_ceil(width) * d * width;
            for (name, v) in views {
                // A block: h rows from i0, d deep from j0.
                let mut ap = vec![f32::NAN; len];
                pack_a(&mut ap, v, i0, j0, h, d, width);
                let want = panels_reference(|r, p| m(i0 + r, j0 + p), h, d, width);
                assert_eq!(bits(&ap), bits(&want), "pack_a {name} mr={width}");
                // B block: d deep from i0, h wide from j0 (h ≤ cols − j0).
                let mut bp = vec![f32::NAN; len];
                pack_b(&mut bp, v, i0, j0, d, h, width);
                let want = panels_reference(|l, p| m(i0 + p, j0 + l), h, d, width);
                assert_eq!(bits(&bp), bits(&want), "pack_b {name} nr={width}");
            }
        }
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

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every FMA tile is the AVX2 tile, bit for bit: rows straddling
        /// both tiles' `mr` and `MC`, depths straddling `KC`, columns
        /// straddling both `nr` and `NC`, spiky operands, dirty `out`.
        #[test]
        fn fma_tiles_match_avx2_bitwise(
            rows in prop::sample::select(vec![1usize, 5, 6, 7, 8, 9, 13, 17, 127, 128, 129]),
            depth in prop::sample::select(vec![1usize, 9, 255, 256, 257, 513]),
            cols in prop::sample::select(vec![1usize, 10, 15, 16, 17, 31, 32, 33, 255, 256, 257]),
            seed in 0u32..10_000,
        ) {
            if let Some(t) = wide_tile() {
                assert_tile_is_avx2(t, rows, depth, cols, seed);
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

            let mut want = vec![0.5f32; m * n];
            gemm(
                m,
                k,
                n,
                View::row_major(&a, k),
                View::row_major(&b, n),
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
                View::transposed(&a, k),
                View::row_major(&g, n),
                &mut want,
            );
            let mut got = vec![0.5f32; k * n];
            matmul_transa(&a, &g, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul_transa m={m}");
        }
    }

    #[test]
    fn parallel_path_is_deterministic() {
        // Big enough to cross SMALL_PRODUCT and span several MC row
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
