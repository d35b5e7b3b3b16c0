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
