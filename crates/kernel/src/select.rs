//! Order-statistic kernels for the coordinate-wise aggregators.
//!
//! Two complementary primitives:
//!
//! * [`median_select`] / [`trimmed_sum_select`] — scalar selection over a
//!   single column via `select_nth_unstable` (introselect, expected
//!   O(n)) instead of the seed's O(n log n) sort, with the even-length
//!   midpoint taken without a second pass. These are the references the
//!   vectorized path is tested against, and the production path for
//!   rules that need an *unordered* partition (trimmed mean).
//!
//! * [`MedianNetwork`] — the coordinate-wise median of `n` equal-length
//!   rows, 16 coordinates at a time. It is Batcher's odd-even mergesort
//!   network for `n`, pruned backwards to the comparators whose outputs
//!   can reach the middle row (and the row below it for even `n`): 113
//!   of 140 comparators at `n = 25`, 49 of 59 at `n = 15`. Each pass
//!   loads 16 adjacent coordinates of every row straight from the rows
//!   into a small local block, applies every kept comparator as a
//!   16-lane `f32::min`/`f32::max` pair, and writes the middle row (or
//!   the midpoint of the two middle rows). One generic body is compiled
//!   for AVX-512F, for AVX2 and for the baseline target, and the widest
//!   one this CPU runs is picked once per process; on AVX-512 a
//!   comparator is one `vminps`/`vmaxps` pair plus the NaN fix-up on a
//!   single register.
//!
//! Why the bits never depend on the path or the pruning: each kept
//! comparator performs the min/max the full network performs, on the
//! same operands in the same order, and a dropped comparator's outputs
//! never reach a middle row. So every median equals the middle row of
//! the fully sorted network — the oracle the tests hold every compiled
//! path to, for inputs mixing NaN, ±0 and ±∞.
//!
//! NaN handling differs deliberately: the selection helpers order NaN
//! via `total_cmp` (above +∞, landing at the trimmed extremes), while
//! the network uses `f32::min`/`f32::max`, which *drop* a NaN operand
//! in favor of the other value — a Byzantine NaN payload cannot poison
//! the median either way, and nothing panics.

use std::sync::OnceLock;

use crate::buffer::with_scratch;

#[cfg(test)]
mod oracle;

/// Median of a mutable slice (rearranges it). Average of the two middle
/// order statistics for even lengths. Expected O(n).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_select(values: &mut [f32]) -> f32 {
    let n = values.len();
    assert!(!values.is_empty(), "median of an empty slice");
    let mid = n / 2;
    let (low, pivot, _) = values.select_nth_unstable_by(mid, f32::total_cmp);
    if n % 2 == 1 {
        *pivot
    } else {
        // The (mid−1)-th order statistic is the maximum of the left
        // partition — no second selection pass needed.
        let lo_max = low
            .iter()
            .copied()
            .max_by(f32::total_cmp)
            .expect("even length ⇒ nonempty left partition");
        0.5 * (lo_max + *pivot)
    }
}

/// Sum and count of the order statistics with ranks `[trim, n − trim)`
/// (i.e. everything but the `trim` smallest and `trim` largest values),
/// computed with two selection passes instead of a sort. Expected O(n).
///
/// Returns `(sum, count)`; the caller divides for the trimmed mean.
///
/// # Panics
///
/// Panics unless `n > 2·trim`.
pub fn trimmed_sum_select(values: &mut [f32], trim: usize) -> (f32, usize) {
    let n = values.len();
    assert!(n > 2 * trim, "trimmed sum needs more than 2·trim values");
    let kept = if trim == 0 {
        &values[..]
    } else {
        // Partition off the `trim` smallest…
        values.select_nth_unstable_by(trim, f32::total_cmp);
        let upper = &mut values[trim..];
        // …then the `trim` largest of the remainder. After this the
        // elements with ranks [trim, n − trim) occupy upper[0..=k].
        let k = upper.len() - trim - 1;
        upper.select_nth_unstable_by(k, f32::total_cmp);
        &upper[..=k]
    };
    (kept.iter().sum(), kept.len())
}

/// Coordinates one [`MedianNetwork`] pass carries: one 512-bit register
/// of `f32`.
const MEDIAN_LANES: usize = 16;

/// The comparators `(lo, hi)` of Batcher's odd-even mergesort for `n`
/// inputs, in the order they apply. After a comparator, `lo` holds the
/// minimum and `hi` the maximum.
fn batcher_comparators(n: usize) -> Vec<(usize, usize)> {
    let mut comparators = Vec::new();
    // Merge runs of p doubling; within a merge, comparator stride k
    // halves from p. A pair (a, a+k) is exchanged only when both land in
    // the same 2p run.
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    let a = i + j;
                    if a / (2 * p) == (a + k) / (2 * p) {
                        comparators.push((a, a + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    comparators
}

/// The coordinate-wise median of a fixed number of rows: Batcher's
/// odd-even mergesort network, pruned to the comparators that reach the
/// middle row(s). Built once per row count, then run over any number of
/// coordinates; see the [module docs](self) for why its output is
/// bit-identical to reading the middle of a full sort.
#[derive(Debug, Clone)]
pub struct MedianNetwork {
    rows: usize,
    comparators: Vec<(usize, usize)>,
}

impl MedianNetwork {
    /// The pruned network for `rows` inputs.
    pub fn new(rows: usize) -> Self {
        // Walk the full network backwards: a comparator stays when either
        // output is read later (or is a middle row), and then both of its
        // inputs are read.
        let mut live = vec![false; rows];
        if rows > 0 {
            // One middle row for odd `rows`, two for even.
            live[(rows - 1) / 2] = true;
            live[rows / 2] = true;
        }
        let mut comparators: Vec<(usize, usize)> = batcher_comparators(rows)
            .into_iter()
            .rev()
            .filter(|&(lo, hi)| {
                let kept = live[lo] || live[hi];
                if kept {
                    live[lo] = true;
                    live[hi] = true;
                }
                kept
            })
            .collect();
        comparators.reverse();
        MedianNetwork { rows, comparators }
    }

    /// Writes the median of `rows[·][j]` to `out[j]` for every `j`: the
    /// middle order statistic for an odd row count, the midpoint
    /// `0.5·(lo + hi)` of the two middle ones for an even count. A NaN
    /// is dropped for its partner at each comparator it meets.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds as many rows as the network was built
    /// for, each as long as `out`, and at least one when `out` is not
    /// empty.
    pub fn median(&self, rows: &[&[f32]], out: &mut [f32]) {
        assert_eq!(rows.len(), self.rows, "one row per network input");
        assert!(
            rows.iter().all(|r| r.len() == out.len()),
            "every row must be as long as the output"
        );
        if out.is_empty() {
            return;
        }
        assert!(self.rows > 0, "median of zero rows");
        self.median_on(MedianPath::detected(), rows, out);
    }

    /// [`median`](Self::median) on a given compiled path; `path` must be
    /// one this CPU supports.
    fn median_on(&self, path: MedianPath, rows: &[&[f32]], out: &mut [f32]) {
        with_scratch(self.rows * MEDIAN_LANES, |scratch| {
            let (block, _) = scratch.as_chunks_mut::<MEDIAN_LANES>();
            let comparators = &self.comparators[..];
            match path {
                MedianPath::Portable => median_body(comparators, rows, out, block),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Avx2` is only chosen where the CPU reports AVX2.
                MedianPath::Avx2 => unsafe { median_avx2(comparators, rows, out, block) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Avx512` is only chosen where the CPU reports
                // AVX-512F.
                MedianPath::Avx512 => unsafe { median_avx512(comparators, rows, out, block) },
            }
        });
    }
}

/// The compiled variants of the median body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MedianPath {
    /// The baseline target (SSE2 on x86-64).
    Portable,
    /// Two 256-bit registers per comparator side.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// One 512-bit register per comparator side.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl MedianPath {
    /// The widest path this CPU runs, probed once per process.
    fn detected() -> MedianPath {
        static PATH: OnceLock<MedianPath> = OnceLock::new();
        *PATH.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                return MedianPath::Avx512;
            } else if std::arch::is_x86_feature_detected!("avx2") {
                return MedianPath::Avx2;
            }
            MedianPath::Portable
        })
    }
}

/// The median body every path compiles: per [`MEDIAN_LANES`]-wide group,
/// load the group of every row into `block`, run the comparators, write
/// the middle. The ragged tail group leaves the previous group's values
/// in its unused lanes and writes only its own; lanes never mix, so
/// they cannot leak.
#[inline(always)]
fn median_body(
    comparators: &[(usize, usize)],
    rows: &[&[f32]],
    out: &mut [f32],
    block: &mut [[f32; MEDIAN_LANES]],
) {
    let n = rows.len();
    let mid = n / 2;
    for (g, dst) in out.chunks_mut(MEDIAN_LANES).enumerate() {
        let at = g * MEDIAN_LANES;
        let w = dst.len();
        if w == MEDIAN_LANES {
            for (lanes, row) in block.iter_mut().zip(rows) {
                lanes.copy_from_slice(&row[at..at + MEDIAN_LANES]);
            }
        } else {
            for (lanes, row) in block.iter_mut().zip(rows) {
                lanes[..w].copy_from_slice(&row[at..]);
            }
        }
        for &(lo, hi) in comparators {
            let (mut x, mut y) = (block[lo], block[hi]);
            for (a, b) in x.iter_mut().zip(y.iter_mut()) {
                let (p, q) = (*a, *b);
                *a = p.min(q);
                *b = p.max(q);
            }
            block[lo] = x;
            block[hi] = y;
        }
        if n % 2 == 1 {
            dst.copy_from_slice(&block[mid][..w]);
        } else {
            for ((o, &p), &q) in dst.iter_mut().zip(&block[mid - 1]).zip(&block[mid]) {
                *o = 0.5 * (p + q);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn median_avx2(
    comparators: &[(usize, usize)],
    rows: &[&[f32]],
    out: &mut [f32],
    block: &mut [[f32; MEDIAN_LANES]],
) {
    median_body(comparators, rows, out, block);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn median_avx512(
    comparators: &[(usize, usize)],
    rows: &[&[f32]],
    out: &mut [f32],
    block: &mut [[f32; MEDIAN_LANES]],
) {
    median_body(comparators, rows, out, block);
}

#[cfg(test)]
mod tests {
    use super::oracle::{mixed_rows, sort_columns, sorted_median, FAMILIES};
    use super::*;
    use proptest::prelude::*;

    /// Every compiled median path this CPU runs; a path whose feature is
    /// absent is reported as `skipped:` instead of passing silently.
    fn median_paths() -> Vec<MedianPath> {
        let mut paths = vec![MedianPath::Portable];
        #[cfg(target_arch = "x86_64")]
        for (feature, present, path) in [
            (
                "avx2",
                std::arch::is_x86_feature_detected!("avx2"),
                MedianPath::Avx2,
            ),
            (
                "avx512f",
                std::arch::is_x86_feature_detected!("avx512f"),
                MedianPath::Avx512,
            ),
        ] {
            if present {
                paths.push(path);
            } else {
                eprintln!("skipped: no {feature} on this CPU, its median path is not exercised");
            }
        }
        paths
    }

    /// Asserts that every path's median of `rows` equals the full-sort
    /// oracle's, bit for bit.
    fn assert_paths_match_oracle(rows: &[Vec<f32>], what: &str) {
        let rows: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let d = rows.first().map_or(0, |r| r.len());
        let want = if rows.is_empty() {
            Vec::new()
        } else {
            sorted_median(&rows)
        };
        let network = MedianNetwork::new(rows.len());
        for path in median_paths() {
            let mut got = vec![7.0f32; d];
            if d > 0 {
                network.median_on(path, &rows, &mut got);
            }
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what} {path:?} coordinate {j}: {g} vs {w}"
                );
            }
        }
    }

    /// Output lengths at the 16-lane and 4096-coordinate chunk edges.
    const EDGE_LENGTHS: [usize; 22] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 4095, 4096, 4097, 9000,
    ];

    #[test]
    fn median_network_prunes_to_the_middle_rows() {
        for (n, full, kept) in [(25, 140, 113), (15, 59, 49), (1, 0, 0), (2, 1, 1)] {
            assert_eq!(batcher_comparators(n).len(), full, "n={n}");
            assert_eq!(MedianNetwork::new(n).comparators.len(), kept, "n={n}");
        }
    }

    #[test]
    fn median_network_matches_full_sort_for_every_n() {
        for n in 1..=40usize {
            for family in 0..FAMILIES {
                for d in [1usize, 15, 16, 17, 33] {
                    let rows = mixed_rows(n, d, family, (n * 131 + d) as u64);
                    assert_paths_match_oracle(&rows, &format!("n={n} d={d} family={family}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn median_network_matches_full_sort_oracle(
            n in 1usize..=40,
            d in prop::sample::select(EDGE_LENGTHS.to_vec()),
            family in 0..FAMILIES,
            seed in any::<u64>(),
        ) {
            let rows = mixed_rows(n, d, family, seed);
            assert_paths_match_oracle(&rows, &format!("n={n} d={d} family={family} seed={seed}"));
        }
    }

    #[test]
    fn median_network_drops_nan_for_its_partner() {
        let rows: [&[f32]; 5] = [&[1.0], &[f32::NAN], &[2.0], &[1.5], &[1.2]];
        let mut out = [0.0f32];
        MedianNetwork::new(5).median(&rows, &mut out);
        assert!(out[0].is_finite(), "got {}", out[0]);
    }

    #[test]
    fn median_network_handles_empty_output() {
        MedianNetwork::new(0).median(&[], &mut []);
        let rows: [&[f32]; 3] = [&[], &[], &[]];
        MedianNetwork::new(3).median(&rows, &mut []);
    }

    #[test]
    #[should_panic(expected = "one row per network input")]
    fn median_network_rejects_a_wrong_row_count() {
        let rows: [&[f32]; 2] = [&[1.0], &[2.0]];
        MedianNetwork::new(3).median(&rows, &mut [0.0]);
    }

    fn median_sorted(values: &[f32]) -> f32 {
        let mut v = values.to_vec();
        v.sort_by(f32::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    #[test]
    fn odd_and_even_medians() {
        let mut odd = [3.0f32, 1.0, 2.0];
        assert_eq!(median_select(&mut odd), 2.0);
        let mut even = [10.0f32, 1.0, 2.0, 3.0];
        assert_eq!(median_select(&mut even), 2.5);
        let mut single = [7.0f32];
        assert_eq!(median_select(&mut single), 7.0);
        let mut pair = [4.0f32, -2.0];
        assert_eq!(median_select(&mut pair), 1.0);
    }

    #[test]
    fn agrees_with_sort_based_median() {
        for seed in 0..50u32 {
            let n = 1 + (seed as usize * 7) % 24;
            let values: Vec<f32> = (0..n)
                .map(|i| (((seed as usize * 31 + i * 17) % 101) as f32) * 0.37 - 18.0)
                .collect();
            let mut scratch = values.clone();
            assert_eq!(
                median_select(&mut scratch),
                median_sorted(&values),
                "n={n} seed={seed}"
            );
        }
    }

    #[test]
    fn nan_does_not_panic() {
        let mut v = [1.0f32, f32::NAN, 2.0, 1.5, 1.2];
        let m = median_select(&mut v);
        assert!(m.is_finite());
    }

    #[test]
    fn trimmed_sum_drops_extremes() {
        let mut v = [-100.0f32, 1.0, 2.0, 3.0, 100.0];
        let (sum, count) = trimmed_sum_select(&mut v, 1);
        assert_eq!(count, 3);
        assert_eq!(sum, 6.0);

        let mut v = [5.0f32, 1.0];
        let (sum, count) = trimmed_sum_select(&mut v, 0);
        assert_eq!((sum, count), (6.0, 2));
    }

    #[test]
    fn sort_columns_sorts_every_column_for_all_small_n() {
        // The comparator sequence depends only on n — checking random
        // data for every n up to twice the realistic worker count
        // exercises every network this crate will ever run.
        for n in 1..=40usize {
            for width in [1usize, 3, 8] {
                let mut block: Vec<f32> = (0..n * width)
                    .map(|i| {
                        let x = (i as u32)
                            .wrapping_mul(2654435761)
                            .wrapping_add(97 * n as u32);
                        ((x >> 7) & 0x3fff) as f32 * 0.01 - 80.0
                    })
                    .collect();
                let mut want: Vec<Vec<f32>> = (0..width)
                    .map(|c| {
                        let mut col: Vec<f32> = (0..n).map(|r| block[r * width + c]).collect();
                        col.sort_by(f32::total_cmp);
                        col
                    })
                    .collect();
                sort_columns(&mut block, n, width);
                for c in 0..width {
                    let got: Vec<f32> = (0..n).map(|r| block[r * width + c]).collect();
                    assert_eq!(got, want.remove(0), "n={n} width={width} col={c}");
                }
            }
        }
    }

    #[test]
    fn sort_columns_drops_nan_without_panicking() {
        let mut block = vec![2.0f32, f32::NAN, 1.0, 3.0]; // one column of 4
        sort_columns(&mut block, 4, 1);
        assert!(block.iter().all(|v| v.is_finite()));
        assert!(block.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trimmed_sum_matches_sorted_reference() {
        for seed in 0..30u32 {
            let n = 5 + (seed as usize) % 20;
            let trim = (seed as usize) % (n / 2);
            let values: Vec<f32> = (0..n)
                .map(|i| (((seed as usize * 13 + i * 29) % 97) as f32) * 0.11 - 5.0)
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(f32::total_cmp);
            let expect: f32 = sorted[trim..n - trim].iter().sum();
            let mut scratch = values.clone();
            let (sum, count) = trimmed_sum_select(&mut scratch, trim);
            assert_eq!(count, n - 2 * trim);
            assert!((sum - expect).abs() < 1e-4, "n={n} trim={trim}");
        }
    }
}
