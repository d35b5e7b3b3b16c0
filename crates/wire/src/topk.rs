//! Exact seeded top-k selection for one sparse gradient chunk.
//!
//! The kept set is the first `k` coordinates of a strict total order:
//! magnitude descending (the bit pattern of `|v|`, so NaN payloads rank
//! above `∞` and a NaN is never dropped for a finite value), then
//! [`tie_key`] ascending, then index ascending. The set is therefore a
//! pure function of `(values, k, seed, chunk_start)`, which is what keeps
//! honest sparsified replicas bit-identical for the exact-equality vote.
//!
//! Finding it costs `O(len)`, and no tie key is hashed unless a tie must
//! be broken:
//!
//! 1. **Bound.** Among the magnitudes of every [`SAMPLE_STRIDE`]th
//!    coordinate, the one at rank `1.5 k / stride + 8` is a bound `lo`
//!    that about `1.5 k` coordinates clear. Every later pass then runs
//!    on ~18 % of a gradient chunk; selecting on the whole chunk cost
//!    the sparse benchmark workload 16 % of its rounds/s.
//! 2. **Candidates.** One pass keeps the bits and index of every
//!    coordinate with magnitude `≥ lo`, in index order. If fewer than `k`
//!    survive, the pass reruns with `lo = 0`, so exactness never depends
//!    on the sample.
//! 3. **Threshold.** `t` is the `k`-th largest candidate magnitude
//!    ([`kth_largest`]); every candidate above it is kept.
//! 4. **Ties.** Only when the candidates tied at `t` outnumber the slots
//!    left are their tie keys computed; the smallest keys fill the slots.
//! 5. **Emit.** The candidates are already in index order, so one more
//!    pass over them writes the kept indices and values — no sort.
//!
//! Every pass is one branch-free compaction, which runs on 256-bit
//! `vpcompressd` where the CPU has AVX-512 (F, VL, DQ) and as a portable
//! loop elsewhere; both write the same words. All buffers are per-thread
//! scratch, reused chunk over chunk.

use crate::message::f32_bits;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Sampling stride of the bounds. Odd, so the sample of a row-major
/// layer whose rows are a power of two wide visits every column instead
/// of the same few.
pub(crate) const SAMPLE_STRIDE: usize = 17;

/// The magnitude bits of an `f32` pattern.
const ABS: u32 = 0x7fff_ffff;

/// Mixes the sparsifier seed with a coordinate's global index into a
/// tie-break key (splitmix64 finalizer) — a fixed function of
/// `(seed, coordinate)` only, so every honest worker ranks equal
/// magnitudes identically. It is a bijection of the index, so two
/// coordinates never share a key.
pub(crate) fn tie_key(seed: u64, global_index: u64) -> u64 {
    let mut z = seed ^ global_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a compaction pass takes the index it stores beside each key.
#[derive(Debug, Clone, Copy)]
enum Indices<'a> {
    /// `first, first + 1, …` — the keys are a chunk's coordinates.
    Count(u32),
    /// One index per key — the keys are candidates of an earlier pass.
    Run(&'a [u32]),
    /// None: only the keys are kept.
    Skip,
}

impl<'a> Indices<'a> {
    fn skip(self, n: usize) -> Indices<'a> {
        match self {
            Indices::Count(first) => Indices::Count(first + n as u32),
            Indices::Run(run) => Indices::Run(&run[n..]),
            Indices::Skip => Indices::Skip,
        }
    }
}

/// Which keys a compaction pass keeps, by magnitude (`key & ABS`).
#[derive(Debug, Clone, Copy)]
enum Keep {
    AtLeast(u32),
    Below(u32),
}

/// How the compaction pass runs on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compaction {
    /// Branch-free scalar loop, any target.
    Portable,
    /// 8-lane `vpcompressd` on 256-bit registers (AVX-512F, VL, DQ). A
    /// 16-lane 512-bit version was no faster end to end; the portable
    /// loop alone selects about 3× slower, which cost the sparse
    /// benchmark workload a quarter of its rounds/s on a 2-core AVX-512
    /// host.
    #[cfg(target_arch = "x86_64")]
    Avx512Vl,
}

impl Compaction {
    /// The path this process uses, probed once.
    fn detected() -> Compaction {
        static PATH: OnceLock<Compaction> = OnceLock::new();
        *PATH.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                return Compaction::Avx512Vl;
            }
            Compaction::Portable
        })
    }

    /// Writes every key `keep` admits, and its index unless `indices` is
    /// [`Indices::Skip`], to the fronts of `out_keys` and `out_idx` in
    /// input order; returns how many.
    ///
    /// # Panics
    ///
    /// Panics if an output in use, or an index run, is shorter than
    /// `keys`.
    fn compact(
        self,
        keys: &[u32],
        indices: Indices,
        keep: Keep,
        out_keys: &mut [u32],
        out_idx: &mut [u32],
    ) -> usize {
        assert!(out_keys.len() >= keys.len());
        match indices {
            Indices::Count(_) => assert!(out_idx.len() >= keys.len()),
            Indices::Run(run) => assert!(run.len() >= keys.len() && out_idx.len() >= keys.len()),
            Indices::Skip => {}
        }
        match self {
            Compaction::Portable => compact_portable(keys, indices, keep, out_keys, out_idx),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512Vl` is only constructed after the CPU reported
            // every feature the kernel enables (`detected`); the lengths
            // are asserted above.
            Compaction::Avx512Vl => unsafe {
                match keep {
                    Keep::AtLeast(bound) => {
                        compact_avx512vl::<false>(keys, indices, bound, out_keys, out_idx)
                    }
                    Keep::Below(bound) => {
                        compact_avx512vl::<true>(keys, indices, bound, out_keys, out_idx)
                    }
                }
            },
        }
    }
}

/// The portable compaction: every key is written at the cursor, which
/// only advances past the kept ones.
fn compact_portable(
    keys: &[u32],
    indices: Indices,
    keep: Keep,
    out_keys: &mut [u32],
    out_idx: &mut [u32],
) -> usize {
    let (bound, below) = match keep {
        Keep::AtLeast(bound) => (bound, false),
        Keep::Below(bound) => (bound, true),
    };
    let mut n = 0;
    for (i, &key) in keys.iter().enumerate() {
        out_keys[n] = key;
        match indices {
            Indices::Count(first) => out_idx[n] = first + i as u32,
            Indices::Run(run) => out_idx[n] = run[i],
            Indices::Skip => {}
        }
        n += usize::from((key & ABS >= bound) != below);
    }
    n
}

/// [`compact_portable`] eight lanes at a time: compress the kept lanes to
/// the front of a register and store all eight, so the next store
/// overwrites the unkept tail. The cursor never passes the input
/// position, so every full store stays inside the first `keys.len()`
/// words of each output. The lane mask comes from a vector compare and
/// `vpmovd2m`, which leaves the shuffle port to the two compresses.
///
/// # Safety
///
/// Requires AVX-512F, VL and DQ and POPCNT; both outputs and an index
/// run must be at least `keys.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq,popcnt")]
unsafe fn compact_avx512vl<const BELOW: bool>(
    keys: &[u32],
    indices: Indices,
    bound: u32,
    out_keys: &mut [u32],
    out_idx: &mut [u32],
) -> usize {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    let body = keys.len() / LANES * LANES;
    let abs = _mm256_set1_epi32(ABS as i32);
    // m ≥ bound ⟺ m > bound − 1 as signed words: magnitudes are below
    // 2³¹ and bound − 1 lies in [−1, 2³¹ − 1].
    let floor = _mm256_set1_epi32(bound.wrapping_sub(1) as i32);
    let step = _mm256_set1_epi32(LANES as i32);
    let first = match indices {
        Indices::Count(first) => first as i32,
        Indices::Run(_) | Indices::Skip => 0,
    };
    let mut counting = _mm256_add_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(first),
    );
    let mut n = 0;
    for i in (0..body).step_by(LANES) {
        let key = _mm256_loadu_si256(keys.as_ptr().add(i).cast());
        let mut admitted = _mm256_cmpgt_epi32(_mm256_and_si256(key, abs), floor);
        if BELOW {
            admitted = _mm256_xor_si256(admitted, _mm256_set1_epi32(-1));
        }
        let kept = _mm256_movepi32_mask(admitted);
        _mm256_storeu_si256(
            out_keys.as_mut_ptr().add(n).cast(),
            _mm256_maskz_compress_epi32(kept, key),
        );
        let index = match indices {
            Indices::Count(_) => Some(counting),
            Indices::Run(run) => Some(_mm256_loadu_si256(run.as_ptr().add(i).cast())),
            Indices::Skip => None,
        };
        if let Some(index) = index {
            _mm256_storeu_si256(
                out_idx.as_mut_ptr().add(n).cast(),
                _mm256_maskz_compress_epi32(kept, index),
            );
        }
        n += kept.count_ones() as usize;
        counting = _mm256_add_epi32(counting, step);
    }
    let keep = if BELOW {
        Keep::Below(bound)
    } else {
        Keep::AtLeast(bound)
    };
    let out_idx = match indices {
        Indices::Skip => &mut [],
        _ => &mut out_idx[n..],
    };
    n + compact_portable(
        &keys[body..],
        indices.skip(body),
        keep,
        &mut out_keys[n..],
        out_idx,
    )
}

/// Below this many keys, [`kth_largest`] hands over to the standard
/// library's selection.
const SMALL_SELECT: usize = 32;

/// The `rank`-th largest (`1 ≤ rank ≤ keys.len()`) magnitude among
/// `keys`. A quickselect whose partition is the compaction: count the
/// keys above and at a median-of-three pivot, and carry only the side
/// holding the rank into the next pass. `work` and `spare` are workspace
/// at least as long as `keys`.
fn kth_largest(
    path: Compaction,
    keys: &[u32],
    mut rank: usize,
    work: &mut [u32],
    spare: &mut [u32],
) -> u32 {
    let (mut from, mut to) = (work, spare);
    let mut len = keys.len();
    let mut src = keys;
    // Each pass drops the pivot at least, so this only caps a sequence of
    // bad pivots before the guaranteed-linear library select takes over.
    for _ in 0..64 {
        if len <= SMALL_SELECT {
            break;
        }
        let pivot = {
            let (a, b, c) = (src[0] & ABS, src[len / 2] & ABS, src[len - 1] & ABS);
            a.max(b).min(a.min(b).max(c))
        };
        let (mut above, mut equal) = (0u32, 0u32);
        for &key in src {
            above += u32::from(key & ABS > pivot);
            equal += u32::from(key & ABS == pivot);
        }
        let (above, at_least) = (above as usize, (above + equal) as usize);
        len = if rank <= above {
            path.compact(src, Indices::Skip, Keep::AtLeast(pivot + 1), to, &mut [])
        } else if rank <= at_least {
            return pivot;
        } else {
            rank -= at_least;
            path.compact(src, Indices::Skip, Keep::Below(pivot), to, &mut [])
        };
        std::mem::swap(&mut from, &mut to);
        src = &from[..len];
    }
    let rest = &mut to[..len];
    for (m, &key) in rest.iter_mut().zip(src) {
        *m = key & ABS;
    }
    *rest.select_nth_unstable(len - rank).1
}

/// Per-thread selection buffers, grown to the largest chunk seen.
#[derive(Default)]
struct Scratch {
    /// Candidate bit patterns.
    bits: Vec<u32>,
    /// Candidate indices.
    idx: Vec<u32>,
    /// The bound's sample.
    sample: Vec<u32>,
    /// [`kth_largest`] workspace.
    work: Vec<u32>,
    /// [`kth_largest`] workspace.
    spare: Vec<u32>,
    /// Tie keys of the candidates tied at the threshold, index order.
    ties: Vec<u64>,
    /// Order-statistic workspace for tie keys.
    tie_sel: Vec<u64>,
    /// Kept indices, index order (the first `k`).
    kept: Vec<u32>,
    /// Kept value bits, aligned with `kept`.
    values: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Selects the top `k` of `chunk` (see the module docs for the order)
/// and hands `f` the kept range-relative indices, strictly increasing,
/// with the bit patterns of their values. `chunk_start` is the chunk's
/// global coordinate offset, which feeds the tie key.
pub(crate) fn with_top_k<R>(
    chunk: &[f32],
    k: usize,
    seed: u64,
    chunk_start: usize,
    f: impl FnOnce(&[u32], &[u32]) -> R,
) -> R {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let k = scratch.select(chunk, k, seed, chunk_start, Compaction::detected());
        f(&scratch.kept[..k], &scratch.values[..k])
    })
}

impl Scratch {
    /// Writes the top `k` of `chunk` to the fronts of `kept` and `values`
    /// and returns how many that is, `min(k, len)`.
    fn select(
        &mut self,
        chunk: &[f32],
        k: usize,
        seed: u64,
        chunk_start: usize,
        path: Compaction,
    ) -> usize {
        let len = chunk.len();
        for buf in [
            &mut self.bits,
            &mut self.idx,
            &mut self.work,
            &mut self.spare,
            &mut self.kept,
            &mut self.values,
        ] {
            buf.resize(buf.len().max(len), 0);
        }
        if k >= len {
            for (i, slot) in self.kept[..len].iter_mut().enumerate() {
                *slot = i as u32;
            }
            self.values[..len].copy_from_slice(f32_bits(chunk));
            return len;
        }
        if k == 0 {
            return 0;
        }
        let lo = self.sample_bound(chunk, k, path);
        let chunk = f32_bits(chunk);
        let mut n = path.compact(
            chunk,
            Indices::Count(0),
            Keep::AtLeast(lo),
            &mut self.bits,
            &mut self.idx,
        );
        if n < k {
            n = path.compact(
                chunk,
                Indices::Count(0),
                Keep::AtLeast(0),
                &mut self.bits,
                &mut self.idx,
            );
        }
        let (bits, idx) = (&self.bits[..n], &self.idx[..n]);

        // The k-th largest candidate magnitude `t`.
        let t = kth_largest(path, bits, k, &mut self.work, &mut self.spare);
        let (mut above, mut tied) = (0u32, 0u32);
        for &b in bits {
            above += u32::from(b & ABS > t);
            tied += u32::from(b & ABS == t);
        }
        let (above, tied) = (above as usize, tied as usize);
        let slots = k - above;

        let kept = if tied == slots {
            path.compact(
                bits,
                Indices::Run(idx),
                Keep::AtLeast(t),
                &mut self.values,
                &mut self.kept,
            )
        } else {
            self.ties.clear();
            for (&b, &i) in bits.iter().zip(idx) {
                if b & ABS == t {
                    self.ties
                        .push(tie_key(seed, (chunk_start + i as usize) as u64));
                }
            }
            self.tie_sel.clear();
            self.tie_sel.extend_from_slice(&self.ties);
            let cut = *self.tie_sel.select_nth_unstable(slots - 1).1;
            // A sentinel, so the cursor may sit one past the last tie.
            self.ties.push(u64::MAX);
            let (mut j, mut tie) = (0, 0);
            for (&b, &i) in bits.iter().zip(idx) {
                self.kept[j] = i;
                self.values[j] = b;
                let at_t = b & ABS == t;
                j += usize::from((b & ABS > t) | (at_t & (self.ties[tie] <= cut)));
                tie += usize::from(at_t);
            }
            j
        };
        debug_assert_eq!(kept, k);
        k
    }

    /// A lower bound on the `k`-th largest magnitude that about `1.5 k`
    /// coordinates clear, read off a stride sample; `0` (everything
    /// clears) when the sample is too small to tell.
    fn sample_bound(&mut self, chunk: &[f32], k: usize, path: Compaction) -> u32 {
        let rank = (3 * k).div_ceil(2 * SAMPLE_STRIDE) + 8;
        let samples = chunk.len().div_ceil(SAMPLE_STRIDE);
        if samples <= rank {
            return 0;
        }
        self.sample.resize(samples, 0);
        for (s, &v) in self
            .sample
            .iter_mut()
            .zip(f32_bits(chunk).iter().step_by(SAMPLE_STRIDE))
        {
            *s = v;
        }
        kth_largest(path, &self.sample, rank, &mut self.work, &mut self.spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIMD compaction this CPU runs, or `None` (with a `skipped:`
    /// note) when it only has the portable loop.
    fn simd_path() -> Option<Compaction> {
        match Compaction::detected() {
            Compaction::Portable => {
                eprintln!(
                    "skipped: no avx512f+avx512vl on this CPU, the vpcompressd compaction is not exercised"
                );
                None
            }
            #[cfg(target_arch = "x86_64")]
            path => Some(path),
        }
    }

    #[test]
    fn top_k_compaction_paths_agree_bitwise() {
        let Some(simd) = simd_path() else {
            return;
        };
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 255, 4095, 4096, 4097] {
            let keys: Vec<u32> = (0..len as u64).map(|i| tie_key(7, i) as u32).collect();
            let run: Vec<u32> = (0..len as u64).map(|i| tie_key(8, i) as u32).collect();
            for bound in [0u32, 1, 0x3f80_0000, 0x4000_0000, 0x7f80_0000, ABS, ABS + 1] {
                for keep in [Keep::AtLeast(bound), Keep::Below(bound)] {
                    let sources = [
                        Indices::Count(0),
                        Indices::Count(4096),
                        Indices::Run(&run),
                        Indices::Skip,
                    ];
                    for indices in sources {
                        let compact = |path: Compaction| {
                            let mut out = vec![0u32; len];
                            let mut idx = match indices {
                                Indices::Skip => Vec::new(),
                                _ => vec![0u32; len],
                            };
                            let n = path.compact(&keys, indices, keep, &mut out, &mut idx);
                            (out[..n].to_vec(), idx[..n.min(idx.len())].to_vec())
                        };
                        let want = compact(Compaction::Portable);
                        let case = format!("len {len} {keep:?} {indices:?}");
                        assert_eq!(compact(simd), want, "{case}");
                        let admitted = |key: u32| match keep {
                            Keep::AtLeast(b) => key & ABS >= b,
                            Keep::Below(b) => key & ABS < b,
                        };
                        let expected = keys.iter().filter(|&&key| admitted(key)).count();
                        assert_eq!(want.0.len(), expected, "{case}");
                        assert!(want.0.iter().all(|&key| admitted(key)), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_quickselect_matches_a_sort() {
        let mut paths = vec![Compaction::Portable];
        paths.extend(simd_path());
        for len in [1usize, 2, 31, 32, 33, 100, 241, 1000, 4096] {
            for distinct in [1u64, 3, 50, u64::MAX] {
                let keys: Vec<u32> = (0..len as u64)
                    .map(|i| (tie_key(3, i) % distinct) as u32 & ABS)
                    .collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                for rank in [1, 2, len / 3, len / 2, len.saturating_sub(1), len] {
                    let rank = rank.clamp(1, len);
                    for &path in &paths {
                        let (mut work, mut spare) = (vec![0u32; len], vec![0u32; len]);
                        let got = kth_largest(path, &keys, rank, &mut work, &mut spare);
                        assert_eq!(got, sorted[rank - 1], "{path:?} len {len} rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_paths_select_the_same_set() {
        let Some(simd) = simd_path() else {
            return;
        };
        for len in [100usize, 4095, 4096] {
            for zeros in [0u64, 2] {
                let chunk: Vec<f32> = (0..len as u64)
                    .map(|i| match tie_key(5, i) {
                        r if zeros > 0 && r.is_multiple_of(zeros) => 0.0,
                        r => f32::from_bits(r as u32),
                    })
                    .collect();
                for k in [1, len / 10, len / 2] {
                    let select = |path: Compaction| {
                        let mut scratch = Scratch::default();
                        let n = scratch.select(&chunk, k, 11, 4096, path);
                        (scratch.kept[..n].to_vec(), scratch.values[..n].to_vec())
                    };
                    assert_eq!(
                        select(simd),
                        select(Compaction::Portable),
                        "len {len} k {k}"
                    );
                }
            }
        }
    }
}
