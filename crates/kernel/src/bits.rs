//! Bit-pattern kernels of the exact-equality vote.
//!
//! The vote over gradient replicas never does float arithmetic: two
//! replicas agree iff their storage is byte-identical, and a winner is
//! identified by a hash of its storage. Both loops run over `d` floats
//! per replica per round, so they are written to run at memory speed:
//!
//! * [`bits_eq`] compares the raw f32 storage with one `memcmp`;
//! * [`FingerprintFold`] hashes 64-bit words (coordinate pairs) into
//!   eight independent multiply chains, the lane picked by the word's
//!   **absolute** index in the vector, not by its place in the slice
//!   being folded.
//!
//! Beside them sits the wire's frame checksum, [`ChecksumFold`]: the same
//! FNV step over 64 lanes of bytes, at vector width.
//!
//! # Why the fold composes across shards
//!
//! Word `w` (coordinates `2w`, `2w + 1`) always lands in lane `w % 8`,
//! and each lane is a left fold over its own words in ascending order.
//! A fold carries how many coordinates it has consumed, so however a
//! vector is cut into consecutive ranges — any widths, including odd
//! ones that split a word, whose low half is then carried across the
//! boundary — every lane sees exactly the word sequence it would see
//! over the whole vector. [`FingerprintFold::finish`] combines the lanes
//! with the total length. Hence feeding the ranges of any partition in
//! ascending order equals [`gradient_fingerprint`] of the whole.

use std::sync::OnceLock;

/// The raw storage of a run of f32s.
fn as_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: f32 has no padding and u8 has alignment 1, so the same
    // `size_of_val(values)` bytes are valid to read as u8 for as long as
    // the borrow of `values` lasts.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// Bit-pattern equality of two gradients — the one replica-grouping
/// predicate of the vote. NaN payloads, signed zeros and denormals all
/// compare by their exact bits, never by float semantics.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    as_bytes(a) == as_bytes(b)
}

/// Enough independent chains to keep the multiplier busy every cycle: a
/// chain step is a 1-cycle xor plus a 3–4-cycle multiply.
const LANES: usize = 8;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn word(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
}

/// Resumable fingerprint over f32 bit patterns: the streaming form of
/// [`gradient_fingerprint`], composable over any partition of the vector
/// into consecutive ranges (see the module docs).
#[derive(Debug, Clone)]
pub struct FingerprintFold {
    lanes: [u64; LANES],
    /// Coordinates folded so far — the absolute offset of the next one.
    pos: usize,
    /// Low coordinate of a word split by a range boundary (`pos` odd).
    half: f32,
}

impl Default for FingerprintFold {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintFold {
    /// The fold over the empty prefix.
    pub fn new() -> Self {
        FingerprintFold {
            lanes: std::array::from_fn(|lane| OFFSET.rotate_left(8 * lane as u32)),
            pos: 0,
            half: 0.0,
        }
    }

    /// Folds word `pos / 2` — the coordinate pair `(lo, hi)` — into the
    /// lane its absolute index selects, and moves `pos` past it.
    fn fold_word(&mut self, lo: f32, hi: f32) {
        let index = self.pos / 2;
        let lane = &mut self.lanes[index % LANES];
        *lane = (*lane ^ word(lo, hi)).wrapping_mul(PRIME);
        self.pos = 2 * index + 2;
    }

    /// Folds the whole words of `coords` one at a time; returns the odd
    /// coordinate left over, if any. `self.pos` must be even.
    fn fold_words<'a>(&mut self, coords: &'a [f32]) -> &'a [f32] {
        let mut pairs = coords.chunks_exact(2);
        for pair in &mut pairs {
            self.fold_word(pair[0], pair[1]);
        }
        pairs.remainder()
    }

    /// Folds the next coordinate range into the running hash.
    pub fn update(&mut self, mut shard: &[f32]) {
        // Complete a word the previous range split.
        if self.pos % 2 == 1 {
            let Some((&hi, rest)) = shard.split_first() else {
                return;
            };
            self.fold_word(self.half, hi);
            shard = rest;
        }
        // Words up to the next lane-0 boundary, then whole lane rows —
        // the independent multiply chains — then the ragged tail.
        let to_row = (LANES - self.pos / 2 % LANES) % LANES * 2;
        let (head, body) = shard.split_at(to_row.min(shard.len()));
        let mut tail = self.fold_words(head);
        if tail.is_empty() {
            let mut lanes = self.lanes;
            let mut rows = body.chunks_exact(2 * LANES);
            for row in &mut rows {
                for (lane, pair) in lanes.iter_mut().zip(row.chunks_exact(2)) {
                    *lane = (*lane ^ word(pair[0], pair[1])).wrapping_mul(PRIME);
                }
            }
            self.lanes = lanes;
            self.pos += body.len() - rows.remainder().len();
            tail = self.fold_words(rows.remainder());
        }
        if let [lo] = tail {
            self.half = *lo;
            self.pos += 1;
        }
    }

    /// The fingerprint of everything folded so far.
    pub fn finish(&self) -> u64 {
        let mut done = self.clone();
        if done.pos % 2 == 1 {
            // A trailing half word folds as (lo, +0.0); the length below
            // tells it apart from a vector that really ends in +0.0.
            done.fold_word(done.half, 0.0);
        }
        let mut hash = (OFFSET ^ self.pos as u64).wrapping_mul(PRIME);
        for lane in done.lanes {
            hash = (hash ^ lane).wrapping_mul(PRIME);
        }
        hash ^ hash >> 32
    }
}

/// Fingerprint of a gradient's f32 bit patterns — the winning-group
/// identity carried by a vote audit.
pub fn gradient_fingerprint(gradient: &[f32]) -> u64 {
    let mut fold = FingerprintFold::new();
    fold.update(gradient);
    fold.finish()
}

/// Lanes of the frame checksum: one per 8-byte word of a row.
pub const CHECKSUM_LANES: usize = 64;

/// Bytes per checksum row — [`CHECKSUM_LANES`] little-endian words.
pub const CHECKSUM_ROW: usize = 8 * CHECKSUM_LANES;

/// Every lane's state before the first row: the FNV offset basis,
/// rotated so no two lanes start equal. Lane 0 is further seeded by the
/// caller's byte in [`ChecksumFold::new`].
const CHECKSUM_START: [u64; CHECKSUM_LANES] = {
    let mut lanes = [0u64; CHECKSUM_LANES];
    let mut i = 0;
    while i < CHECKSUM_LANES {
        lanes[i] = OFFSET.rotate_left(i as u32);
        i += 1;
    }
    lanes
};

/// Resumable 64-lane FNV over bytes — the frame checksum.
///
/// Lane `i` folds words `i, i + 64, …` of the input (the `i`-th word of
/// every 512-byte row) with the FNV step `(lane ^ w) · P`, and lane 0
/// starts from the seed byte. [`rows`](Self::rows) folds whole rows, in
/// any number of calls; [`finish`](Self::finish) folds a last partial
/// row's whole words into lanes 0, 1, … in order, then the lanes into
/// one hash (lane 0 first), then the last < 8 bytes one at a time.
///
/// Each step is a bijection of its lane's state for a fixed word, and an
/// injection of the word for a fixed state, so a corruption confined to
/// one lane — any single-bit flip, any change to one word — always
/// changes the hash. Words are read little-endian, so the value does not
/// depend on the platform, and every compiled path ([`ChecksumPath`])
/// computes the same function.
#[derive(Debug, Clone)]
pub struct ChecksumFold {
    lanes: [u64; CHECKSUM_LANES],
}

impl ChecksumFold {
    /// The fold over no bytes, seeded by `seed`.
    pub fn new(seed: u8) -> Self {
        let mut lanes = CHECKSUM_START;
        lanes[0] = (OFFSET ^ u64::from(seed)).wrapping_mul(PRIME);
        ChecksumFold { lanes }
    }

    /// Folds whole rows, on the widest path this CPU runs.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of [`CHECKSUM_ROW`].
    pub fn rows(&mut self, rows: &[u8]) {
        self.rows_on(ChecksumPath::detected(), rows);
    }

    /// [`rows`](Self::rows) on a given path.
    ///
    /// # Panics
    ///
    /// Panics if this CPU lacks the path's features, or if `rows.len()`
    /// is not a multiple of [`CHECKSUM_ROW`].
    pub fn rows_on(&mut self, path: ChecksumPath, rows: &[u8]) {
        assert!(
            rows.len().is_multiple_of(CHECKSUM_ROW),
            "checksum rows must be whole {CHECKSUM_ROW}-byte rows"
        );
        assert!(path.is_supported(), "{path:?} is not supported by this CPU");
        let lanes = &mut self.lanes;
        match path {
            ChecksumPath::Portable => rows_portable(lanes, rows),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the path was just checked against this CPU's features.
            ChecksumPath::Avx2 => unsafe { rows_avx2(lanes, rows) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the path was just checked against this CPU's features.
            ChecksumPath::Avx512 => unsafe { rows_avx512(lanes, rows) },
        }
    }

    /// The checksum of everything folded so far followed by `tail`, a
    /// last partial row.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is a whole row or longer.
    pub fn finish(&self, tail: &[u8]) -> u64 {
        assert!(tail.len() < CHECKSUM_ROW, "the tail is a partial row");
        let mut lanes = self.lanes;
        let mut words = tail.chunks_exact(8);
        for (lane, w) in lanes.iter_mut().zip(&mut words) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
        let mut hash = lanes[0];
        for &lane in &lanes[1..] {
            hash = (hash ^ lane).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
        hash
    }
}

/// The 64-lane checksum of `bytes` seeded by `seed` (see
/// [`ChecksumFold`]), in one call.
pub fn lane_checksum(seed: u8, bytes: &[u8]) -> u64 {
    lane_checksum_on(ChecksumPath::detected(), seed, bytes)
}

/// [`lane_checksum`] on a given path.
///
/// # Panics
///
/// Panics if this CPU lacks the path's features.
pub fn lane_checksum_on(path: ChecksumPath, seed: u8, bytes: &[u8]) -> u64 {
    let whole = bytes.len() - bytes.len() % CHECKSUM_ROW;
    let mut fold = ChecksumFold::new(seed);
    fold.rows_on(path, &bytes[..whole]);
    fold.finish(&bytes[whole..])
}

/// The compiled variants of the checksum's row fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumPath {
    /// The baseline target: eight scalar lanes at a time, over blocks of
    /// rows that stay in L1.
    Portable,
    /// 32 lanes (eight 256-bit registers) at a time.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// All 64 lanes in eight 512-bit registers, multiplied by `vpmullq`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl ChecksumPath {
    /// The widest path this CPU runs, probed once per process.
    pub fn detected() -> ChecksumPath {
        static PATH: OnceLock<ChecksumPath> = OnceLock::new();
        *PATH.get_or_init(|| {
            ChecksumPath::compiled()
                .into_iter()
                .rev()
                .find(|path| path.is_supported())
                .expect("the portable path runs everywhere")
        })
    }

    /// Every compiled path, narrowest first — supported by this CPU or
    /// not.
    pub fn compiled() -> Vec<ChecksumPath> {
        vec![
            ChecksumPath::Portable,
            #[cfg(target_arch = "x86_64")]
            ChecksumPath::Avx2,
            #[cfg(target_arch = "x86_64")]
            ChecksumPath::Avx512,
        ]
    }

    /// Whether this CPU has the path's target features.
    pub fn is_supported(self) -> bool {
        match self {
            ChecksumPath::Portable => true,
            #[cfg(target_arch = "x86_64")]
            ChecksumPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            ChecksumPath::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
        }
    }
}

/// The row fold every path compiles: `G` lanes at a time held in
/// registers, over blocks of `BLOCK` rows, so a group narrower than the
/// row re-reads its block from L1 rather than from memory. A group is
/// `G / C` runs of `C` neighbouring lanes spread evenly over the row:
/// the vector paths take one contiguous run (`C = G`) their registers
/// load whole; the portable path takes eight lanes a row-eighth apart
/// (`C = 1`), which no vectorizer packs into the baseline target's
/// 64-bit-multiply-less vectors and which therefore stay eight
/// independent scalar multiply chains.
#[inline(always)]
fn rows_body<const G: usize, const C: usize, const BLOCK: usize>(
    lanes: &mut [u64; CHECKSUM_LANES],
    rows: &[u8],
) {
    let spacing = CHECKSUM_LANES / G * C;
    let lane = |g: usize, k: usize| k / C * spacing + g * C + k % C;
    for block in rows.chunks(BLOCK * CHECKSUM_ROW) {
        for g in 0..CHECKSUM_LANES / G {
            let mut acc: [u64; G] = std::array::from_fn(|k| lanes[lane(g, k)]);
            for row in block.chunks_exact(CHECKSUM_ROW) {
                let row: &[u8; CHECKSUM_ROW] = row.try_into().expect("one row");
                for (k, a) in acc.iter_mut().enumerate() {
                    let at = 8 * lane(g, k);
                    let w = u64::from_le_bytes(row[at..at + 8].try_into().expect("8-byte word"));
                    *a = (*a ^ w).wrapping_mul(PRIME);
                }
            }
            for (k, &a) in acc.iter().enumerate() {
                lanes[lane(g, k)] = a;
            }
        }
    }
}

fn rows_portable(lanes: &mut [u64; CHECKSUM_LANES], rows: &[u8]) {
    rows_body::<8, 1, 8>(lanes, rows);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2(lanes: &mut [u64; CHECKSUM_LANES], rows: &[u8]) {
    rows_body::<32, 32, 8>(lanes, rows);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn rows_avx512(lanes: &mut [u64; CHECKSUM_LANES], rows: &[u8]) {
    rows_body::<64, 64, 64>(lanes, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_bits(bits: &[u32]) -> Vec<f32> {
        bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    #[test]
    fn equality_is_by_bits_not_by_float_semantics() {
        let nan = f32::from_bits(0x7fc0_0001);
        assert!(bits_eq(&[nan, 1.0], &[nan, 1.0]));
        assert!(!bits_eq(&[nan], &[f32::from_bits(0x7fc0_0002)]));
        assert!(!bits_eq(&[0.0], &[-0.0]));
        assert!(!bits_eq(&[1.0], &[1.0, 1.0]));
        assert!(bits_eq(&[], &[]));
    }

    #[test]
    fn length_is_part_of_the_fingerprint() {
        assert_ne!(gradient_fingerprint(&[]), gradient_fingerprint(&[0.0]));
        assert_ne!(
            gradient_fingerprint(&[3.5]),
            gradient_fingerprint(&[3.5, 0.0])
        );
        assert_ne!(
            gradient_fingerprint(&[0.0; 8]),
            gradient_fingerprint(&[0.0; 16])
        );
    }

    /// The checksum's definition one word at a time: word `i` into lane
    /// `i % 64` (a partial last row's words land in lanes 0, 1, …), then
    /// the lanes in order, then the bytes past the last whole word.
    fn checksum_reference(seed: u8, bytes: &[u8]) -> u64 {
        let mut lanes = ChecksumFold::new(seed).lanes;
        let mut words = bytes.chunks_exact(8);
        for (i, w) in (&mut words).enumerate() {
            let lane = &mut lanes[i % CHECKSUM_LANES];
            *lane = (*lane ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
        }
        let mut hash = lanes[0];
        for &lane in &lanes[1..] {
            hash = (hash ^ lane).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
        hash
    }

    /// The compiled checksum paths this CPU runs; a missing feature is
    /// reported, not silently passed.
    fn checksum_paths() -> Vec<ChecksumPath> {
        let mut paths = Vec::new();
        for path in ChecksumPath::compiled() {
            if path.is_supported() {
                paths.push(path);
            } else {
                eprintln!("skipped: {path:?} is not supported by this CPU, its checksum path is not exercised");
            }
        }
        paths
    }

    #[test]
    fn every_checksum_path_matches_the_definition() {
        // Every length from empty to three rows + 17 bytes, at every
        // misalignment of the first word: a frame body starts at frame
        // offset 17.
        let max = 3 * CHECKSUM_ROW + 17;
        let data: Vec<u8> = (0..max as u64 + 8)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        let paths = checksum_paths();
        assert_eq!(paths[0], ChecksumPath::Portable);
        for start in 0..8 {
            for len in 0..=max {
                let bytes = &data[start..start + len];
                let want = checksum_reference(0x5a, bytes);
                for &path in &paths {
                    assert_eq!(
                        lane_checksum_on(path, 0x5a, bytes),
                        want,
                        "{path:?}, start {start}, {len} bytes"
                    );
                }
            }
        }
        assert_eq!(
            lane_checksum(0x5a, &data[3..]),
            checksum_reference(0x5a, &data[3..])
        );
    }

    #[test]
    fn checksum_rows_fold_across_calls() {
        // A builder folds rows as its entries land: any split of the rows
        // into calls is one call.
        let data: Vec<u8> = (0..7 * CHECKSUM_ROW + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let whole = 7 * CHECKSUM_ROW;
        let want = lane_checksum(6, &data);
        for split in [0, 1, 3, 7] {
            let mut fold = ChecksumFold::new(6);
            fold.rows(&data[..split * CHECKSUM_ROW]);
            fold.rows(&[]);
            fold.rows(&data[split * CHECKSUM_ROW..whole]);
            assert_eq!(
                fold.finish(&data[whole..]),
                want,
                "split after {split} rows"
            );
        }
    }

    #[test]
    fn checksum_seed_and_length_matter() {
        assert_ne!(lane_checksum(1, &[]), lane_checksum(3, &[]));
        assert_ne!(lane_checksum(1, &[]), lane_checksum(1, &[0]));
        assert_ne!(lane_checksum(1, &[0; 8]), lane_checksum(1, &[0; 9]));
    }

    #[test]
    #[should_panic(expected = "whole 512-byte rows")]
    fn checksum_rows_refuse_a_partial_row() {
        ChecksumFold::new(0).rows(&[0; CHECKSUM_ROW + 8]);
    }

    proptest! {
        /// Any partition into consecutive ranges — fixed widths that are
        /// not multiples of the lane count, and ragged mixes of them —
        /// folds to the whole-vector fingerprint.
        #[test]
        fn any_partition_folds_to_the_whole_fingerprint(
            bits in proptest::collection::vec(any::<u32>(), 0..3000),
            cuts in proptest::collection::vec(0usize..5, 0..64),
        ) {
            const WIDTHS: [usize; 5] = [1, 3, 7, 64, 977];
            let v = from_bits(&bits);
            let whole = gradient_fingerprint(&v);
            for width in WIDTHS {
                let mut fold = FingerprintFold::new();
                for range in v.chunks(width) {
                    fold.update(range);
                }
                prop_assert_eq!(fold.finish(), whole, "width {}", width);
            }
            let mut fold = FingerprintFold::new();
            let mut rest = v.as_slice();
            for cut in cuts {
                let (range, tail) = rest.split_at(WIDTHS[cut].min(rest.len()));
                fold.update(range);
                fold.update(&[]);
                rest = tail;
            }
            fold.update(rest);
            prop_assert_eq!(fold.finish(), whole);
        }

        /// A single-bit flip, a swap of two adjacent coordinates and a
        /// swap of two words that live in different lanes each change
        /// the fingerprint.
        #[test]
        fn local_edits_change_the_fingerprint(
            bits in proptest::collection::vec(any::<u32>(), 16..600),
            at in any::<usize>(),
            bit in 0u32..32,
        ) {
            let whole = gradient_fingerprint(&from_bits(&bits));

            let mut flipped = bits.clone();
            flipped[at % bits.len()] ^= 1 << bit;
            prop_assert_ne!(gradient_fingerprint(&from_bits(&flipped)), whole);

            let i = at % (bits.len() - 1);
            prop_assume!(bits[i] != bits[i + 1]);
            let mut adjacent = bits.clone();
            adjacent.swap(i, i + 1);
            prop_assert_ne!(gradient_fingerprint(&from_bits(&adjacent)), whole);

            // Words w and w + 1 sit in neighbouring lanes.
            let w = at % (bits.len() / 2 - 1);
            prop_assume!(bits[2 * w..2 * w + 2] != bits[2 * w + 2..2 * w + 4]);
            let mut crossed = bits.clone();
            crossed.swap(2 * w, 2 * w + 2);
            crossed.swap(2 * w + 1, 2 * w + 3);
            prop_assert_ne!(gradient_fingerprint(&from_bits(&crossed)), whole);
        }
    }
}
