//! The full-sort oracle the median network is tested against: Batcher's
//! odd-even mergesort applied to whole rows, every comparator kept. It
//! is the production median path this crate shipped before the pruned
//! [`MedianNetwork`](super::MedianNetwork), kept verbatim and compiled
//! only into tests.

/// Sorts each column of an `n`×`width` row-major block ascending (row 0
/// smallest) with Batcher's odd-even mergesort network.
///
/// Every compare-exchange in the network is applied to two whole rows as
/// an element-wise `min`/`max` sweep — contiguous, branchless, and
/// auto-vectorized — so all `width` columns are sorted simultaneously.
/// The comparator sequence depends only on `n`, making the data movement
/// (and therefore every downstream float operation) fully deterministic.
///
/// NaN: `f32::min`/`f32::max` return the non-NaN operand, so a NaN is
/// replaced by its comparison partner's value as it meets the network —
/// the surviving block stays NaN-free (robust aggregation treats NaN as
/// a discardable Byzantine payload).
///
/// # Panics
///
/// Panics if `block.len() != n * width`.
pub fn sort_columns(block: &mut [f32], n: usize, width: usize) {
    assert_eq!(block.len(), n * width, "block must be n × width");
    if n <= 1 {
        return;
    }
    // Batcher's odd-even mergesort for arbitrary n: merge runs of p
    // doubling; within a merge, comparator stride k halves from p. A
    // pair (a, a+k) is exchanged only when both land in the same 2p run.
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    let a = i + j;
                    if a / (2 * p) == (a + k) / (2 * p) {
                        compare_exchange_rows(block, a, a + k, width);
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// One comparator of the network: row `lo` takes the element-wise
/// minimum, row `hi` the maximum.
#[inline]
fn compare_exchange_rows(block: &mut [f32], lo: usize, hi: usize, width: usize) {
    debug_assert!(lo < hi);
    let (head, tail) = block.split_at_mut(hi * width);
    let row_lo = &mut head[lo * width..(lo + 1) * width];
    let row_hi = &mut tail[..width];
    for (x, y) in row_lo.iter_mut().zip(row_hi.iter_mut()) {
        let (a, b) = (*x, *y);
        *x = a.min(b);
        *y = a.max(b);
    }
}

/// The coordinate-wise median of equal-length `rows`, read off the
/// middle of the fully sorted columns — the value
/// [`MedianNetwork::median`](super::MedianNetwork::median) must match
/// bit for bit.
///
/// # Panics
///
/// Panics if `rows` is empty or the rows differ in length.
pub fn sorted_median(rows: &[&[f32]]) -> Vec<f32> {
    let n = rows.len();
    let d = rows[0].len();
    let mut block = Vec::with_capacity(n * d);
    for row in rows {
        assert_eq!(row.len(), d, "rows must be equally long");
        block.extend_from_slice(row);
    }
    sort_columns(&mut block, n, d);
    let mid = n / 2;
    (0..d)
        .map(|j| {
            if n % 2 == 1 {
                block[mid * d + j]
            } else {
                0.5 * (block[(mid - 1) * d + j] + block[mid * d + j])
            }
        })
        .collect()
}

/// Value families the median tests mix: `0` ordinary floats, `1` mostly
/// specials, `2` ordinary floats with a tenth specials, `3` a handful of
/// tied values around ±0. The specials are quiet and signalling NaNs of
/// both signs, ±0 and ±∞.
pub const FAMILIES: u32 = 4;

/// `n` rows of `d` values from `family`, a pure function of `seed`.
pub fn mixed_rows(n: usize, d: usize, family: u32, seed: u64) -> Vec<Vec<f32>> {
    const SPECIALS: [u32; 8] = [
        0x7fc0_0000, // NaN
        0xffc0_0000, // −NaN
        0x7f80_0001, // signalling NaN
        0x0000_0000, // +0
        0x8000_0000, // −0
        0x7f80_0000, // +∞
        0xff80_0000, // −∞
        0x7fc0_1234, // NaN with a payload
    ];
    const TIED: [f32; 5] = [0.0, -0.0, 1.0, -1.0, 0.5];
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut value = || {
        let x = next();
        let ordinary = ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0;
        let special = f32::from_bits(SPECIALS[((x >> 8) % 8) as usize]);
        match family {
            0 => ordinary,
            1 if x % 4 != 0 => special,
            2 if x % 10 == 0 => special,
            3 => TIED[((x >> 16) % 5) as usize],
            _ => ordinary,
        }
    };
    (0..n).map(|_| (0..d).map(|_| value()).collect()).collect()
}
