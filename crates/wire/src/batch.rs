//! Batched gradient frames: one frame per worker per round.
//!
//! The original protocol sent one frame per `(worker, file)` replica
//! (kind 2, since retired) — `K·l` frames per round, each paying a
//! header, a checksum pass, and a per-element `f32` copy on both sides.
//! This codec batches every file a worker computed into a single
//! length-prefixed frame:
//!
//! ```text
//! header:  magic | kind = 6 | body_len | checksum      (see message.rs)
//! body:    iteration: u64
//!          worker:    u32
//!          count:     u32
//!          entries:   count × (file: u32, len: u32, f32 × len)
//! ```
//!
//! A worker that computes its gradients anyway can compute them *inside*
//! the frame: [`BatchFrameBuilder`] hands out each entry's payload as an
//! aligned `&mut [f32]` slot, so the gradient bytes are written once,
//! and folds each committed entry into the frame checksum while it is
//! still in cache — sending costs a header, not a second pass.
//!
//! Decoding is zero-copy: [`GradientBatchView`] keeps each entry's
//! payload as a [`Bytes`] slice of the (refcounted) frame, and the
//! parameter server votes those slices in place when they are 4-aligned
//! (see [`RoundCore::ingest`](crate::RoundCore::ingest)). Truncated or
//! corrupted frames fail with a [`WireError`] and degrade like dropped
//! frames; nothing in this module panics on wire input.

use crate::message::{check_frame, seal_in_place, write_header, BodyReader, KIND_GRADIENT_BATCH};
use crate::{extend_f32s_le, put_f32s_le, WireError, FRAME_HEADER_LEN};
use bytes::{BufMut, Bytes, BytesMut};
use byz_kernel::{ChecksumFold, CHECKSUM_ROW};

/// Fixed body bytes before the entries (`iteration + worker + count`).
const BATCH_PREFIX_LEN: usize = 8 + 4 + 4;

/// Per-entry header bytes (`file + len`).
const ENTRY_HEADER_LEN: usize = 4 + 4;

/// Frame offset of the first entry.
const ENTRIES_START: usize = FRAME_HEADER_LEN + BATCH_PREFIX_LEN;

/// Every entry payload's frame offset, mod 4 (entry lengths are whole
/// floats): 1.
pub(crate) const PAYLOAD_PHASE: usize = (ENTRIES_START + ENTRY_HEADER_LEN) % 4;

/// Encodes one worker's whole round of gradient returns as a single
/// checksummed frame. Entries keep the caller's order (ascending file
/// order by convention — the decoder does not reorder).
pub fn encode_gradient_batch(iteration: u64, worker: u32, entries: &[(u32, &[f32])]) -> Bytes {
    encode_gradient_batch_into(iteration, worker, entries, BytesMut::new())
}

/// [`encode_gradient_batch`], but writing header + body into `scratch`
/// (cleared first) so its capacity is reused. Feed back last round's
/// frame via `BytesMut::try_from(frame)` once the parameter server has
/// dropped its views and steady-state encoding allocates nothing.
///
/// Unlike the staged `seal_frame` path, this writes the frame in a
/// single pass: placeholder header and prefix, then the entries, then
/// both sealed in place — one buffer, zero staging copies.
pub fn encode_gradient_batch_into(
    iteration: u64,
    worker: u32,
    entries: &[(u32, &[f32])],
    mut scratch: BytesMut,
) -> Bytes {
    let payload: usize = entries.iter().map(|(_, g)| g.len() * 4).sum();
    scratch.clear();
    scratch.reserve(ENTRIES_START + entries.len() * ENTRY_HEADER_LEN + payload);

    scratch.extend_from_slice(&[0u8; ENTRIES_START]); // sealed below
    for (file, gradient) in entries {
        scratch.put_u32_le(*file);
        scratch.put_u32_le(gradient.len() as u32);
        put_f32s_le(&mut scratch, gradient);
    }
    put_prefix(&mut scratch, iteration, worker, entries.len() as u32);
    seal_in_place(KIND_GRADIENT_BATCH, &mut scratch);
    scratch.freeze()
}

/// Writes the batch prefix over its placeholder in `frame`.
fn put_prefix(frame: &mut [u8], iteration: u64, worker: u32, count: u32) {
    let prefix = &mut frame[FRAME_HEADER_LEN..ENTRIES_START];
    prefix[..8].copy_from_slice(&iteration.to_le_bytes());
    prefix[8..12].copy_from_slice(&worker.to_le_bytes());
    prefix[12..].copy_from_slice(&count.to_le_bytes());
}

/// Builds one worker's batch frame *around* its gradients: each entry's
/// payload is handed out as a `&mut [f32]` slot inside the frame buffer,
/// the caller computes (or forges) the gradient there, and the frame is
/// sealed as it grows — no staging `Vec` per gradient, no copy into the
/// frame, no second pass over it. The frame is byte-identical to
/// [`encode_gradient_batch`] over the committed entries.
///
/// ```text
/// builder.begin(iteration, worker, uploads); // the prefix, count included
/// let slot = builder.next_slot(d);           // payload of the next entry
/// model.gradient_sum_into(.., slot);
/// builder.commit(file);                      // or don't: the slot is handed out again
/// ..
/// link.send(builder.finish());
/// ```
///
/// The frame's `(iteration, worker, entries)` prefix opens the first
/// checksum row, so [`begin`](Self::begin) announces it before any slot;
/// [`commit`](Self::commit) then folds every whole 512-byte body row up
/// to the entry's end while the entry is still hot, and
/// [`finish`](Self::finish) folds the partial last row and writes the
/// header. Committing more entries than were begun, or finishing with
/// fewer, is a caller bug and panics: the prefix was already hashed.
///
/// Every payload sits at frame offset ≡ 1 (mod 4) (17-byte header,
/// 16-byte prefix, 8-byte entry headers), so the frame starts `lead`
/// bytes into the allocation, `lead` chosen from the buffer's address to
/// put the payloads on 4-byte boundaries. The buffer is zero-initialised
/// and sized once, at `begin`, so slots never move.
#[derive(Debug)]
pub struct BatchFrameBuilder {
    /// Most entries / payload floats one frame may hold.
    max_entries: usize,
    max_floats: usize,
    /// `lead` slack bytes, then the frame. Empty between frames.
    buf: Vec<u8>,
    lead: usize,
    /// Frame bytes holding the header, prefix and committed entries.
    len: usize,
    count: u32,
    /// Floats in the slot handed out since the last commit.
    pending: Option<usize>,
    /// The frame between `begin` and `finish`.
    open: Option<OpenFrame>,
}

/// A begun frame's announced entry count and its checksum so far.
#[derive(Debug)]
struct OpenFrame {
    entries: u32,
    fold: ChecksumFold,
    /// Body bytes folded: whole rows only.
    folded: usize,
}

impl BatchFrameBuilder {
    /// A builder for frames of at most `max_entries` entries totalling
    /// at most `max_floats` payload coordinates. Allocates nothing until
    /// each frame's [`begin`](Self::begin).
    pub fn new(max_entries: usize, max_floats: usize) -> Self {
        BatchFrameBuilder {
            max_entries,
            max_floats,
            buf: Vec::new(),
            lead: 0,
            len: ENTRIES_START,
            count: 0,
            pending: None,
            open: None,
        }
    }

    /// Opens a frame of exactly `entries` entries from `worker` for
    /// `iteration`.
    ///
    /// # Panics
    ///
    /// Panics if a frame is already open or `entries` exceeds the
    /// capacity given to [`new`](Self::new).
    pub fn begin(&mut self, iteration: u64, worker: u32, entries: usize) {
        assert!(self.open.is_none(), "begin follows finish");
        assert!(
            entries <= self.max_entries,
            "{entries} entries exceed the builder's capacity"
        );
        let frame_cap = ENTRIES_START + self.max_entries * ENTRY_HEADER_LEN + self.max_floats * 4;
        self.buf = vec![0u8; 3 + frame_cap];
        let first_payload = self.buf.as_ptr() as usize + ENTRIES_START + ENTRY_HEADER_LEN;
        self.lead = first_payload.wrapping_neg() % 4;
        put_prefix(
            &mut self.buf[self.lead..],
            iteration,
            worker,
            entries as u32,
        );
        self.open = Some(OpenFrame {
            entries: entries as u32,
            fold: ChecksumFold::new(KIND_GRADIENT_BATCH),
            folded: 0,
        });
    }

    /// The payload of the next entry: `len` coordinates inside the frame,
    /// for the caller to fill. An uncommitted slot is handed out again
    /// (contents unspecified but initialised).
    ///
    /// # Panics
    ///
    /// Panics outside `begin`…`finish`, or if the slot would exceed the
    /// capacity given to [`new`](Self::new).
    pub fn next_slot(&mut self, len: usize) -> &mut [f32] {
        assert!(self.open.is_some(), "next_slot follows begin");
        let start = self.lead + self.len + ENTRY_HEADER_LEN;
        assert!(
            (self.count as usize) < self.max_entries && start + len * 4 <= self.buf.len(),
            "slot exceeds the builder's capacity"
        );
        self.pending = Some(len);
        // SAFETY: every bit pattern is a valid f32 and the bytes are
        // initialised (zeroed at allocation or written by an earlier
        // slot); `align_to_mut` itself keeps the view inside the slice.
        let (head, slot, tail) = unsafe { self.buf[start..start + len * 4].align_to_mut::<f32>() };
        assert!(
            head.is_empty() && tail.is_empty(),
            "batch frame slot is not 4-byte aligned"
        );
        slot
    }

    /// Keeps the slot handed out by the last [`next_slot`](Self::next_slot)
    /// as the frame's next entry, for `file`, and folds the frame's whole
    /// checksum rows up to the entry's end.
    ///
    /// # Panics
    ///
    /// Panics if no slot is outstanding, or if the frame already holds
    /// the entries [`begin`](Self::begin) announced.
    pub fn commit(&mut self, file: u32) {
        let len = self.pending.take().expect("commit follows next_slot");
        let open = self.open.as_mut().expect("commit follows begin");
        assert!(
            self.count < open.entries,
            "commit past the {} entries begun",
            open.entries
        );
        let frame = &mut self.buf[self.lead..];
        let entry = &mut frame[self.len..self.len + ENTRY_HEADER_LEN + len * 4];
        entry[..4].copy_from_slice(&file.to_le_bytes());
        entry[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        // The slot was filled as native f32s; the wire is little-endian.
        #[cfg(target_endian = "big")]
        for word in entry[ENTRY_HEADER_LEN..].chunks_exact_mut(4) {
            word.reverse();
        }
        self.len += ENTRY_HEADER_LEN + len * 4;
        self.count += 1;
        let body = &frame[FRAME_HEADER_LEN..self.len];
        let whole = body.len() - body.len() % CHECKSUM_ROW;
        open.fold.rows(&body[open.folded..whole]);
        open.folded = whole;
    }

    /// Seals the frame — folds the last partial checksum row and writes
    /// the header — and resets the builder for the next one.
    ///
    /// # Panics
    ///
    /// Panics without a [`begin`](Self::begin), or if fewer entries were
    /// committed than it announced.
    pub fn finish(&mut self) -> Bytes {
        let open = self.open.take().expect("finish follows begin");
        assert!(
            self.count == open.entries,
            "finish after {} of the {} entries begun",
            self.count,
            open.entries
        );
        let (lead, len) = (self.lead, self.len);
        let mut buf = std::mem::take(&mut self.buf);
        let frame = &mut buf[lead..lead + len];
        let checksum = open.fold.finish(&frame[FRAME_HEADER_LEN + open.folded..]);
        write_header(KIND_GRADIENT_BATCH, checksum, frame);
        *self = BatchFrameBuilder::new(self.max_entries, self.max_floats);
        Bytes::from(buf).slice(lead..lead + len)
    }
}

/// One decoded batch entry: the file index plus its gradient payload as
/// a zero-copy slice of the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// File index the gradient belongs to.
    pub file: u32,
    payload: Bytes,
}

impl BatchEntry {
    /// Number of `f32` coordinates in the payload.
    pub fn len(&self) -> usize {
        self.payload.len() / 4
    }

    /// Whether the gradient is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Appends the gradient to `out` via the bulk little-endian path.
    pub fn extend_into(&self, out: &mut Vec<f32>) {
        extend_f32s_le(out, &self.payload);
    }

    /// The payload as a refcounted slice of the frame, for the round
    /// engine to vote in place.
    pub(crate) fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The gradient as an owned vector (allocates; prefer
    /// [`BatchEntry::extend_into`] on the hot path).
    pub fn to_vec(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.extend_into(&mut out);
        out
    }

    /// The raw little-endian payload bytes.
    pub fn raw(&self) -> &[u8] {
        &self.payload
    }
}

/// A decoded gradient batch: borrowed views into one worker's frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradientBatchView {
    /// Iteration the batch belongs to.
    pub iteration: u64,
    /// Sender worker id.
    pub worker: u32,
    /// The per-file entries, in the order the worker encoded them.
    pub entries: Vec<BatchEntry>,
}

impl GradientBatchView {
    /// Total `f32` coordinates across all entries.
    pub fn total_len(&self) -> usize {
        self.entries.iter().map(BatchEntry::len).sum()
    }
}

/// Returns whether a frame is a gradient batch, without decoding the
/// body (header + checksum are still verified by the full decode).
pub fn is_gradient_batch(frame: &[u8]) -> bool {
    frame.len() > 4 && frame[4] == KIND_GRADIENT_BATCH
}

/// Decodes a batched gradient frame into zero-copy entry views.
///
/// # Errors
///
/// [`WireError`] on truncation, bad magic, checksum mismatch, a
/// non-batch kind, or a body whose entry lengths disagree with the
/// declared body length ([`WireError::MalformedBody`]). Malformed input
/// never panics — a corrupt batch degrades exactly like a dropped frame.
pub fn decode_gradient_batch(frame: &Bytes) -> Result<GradientBatchView, WireError> {
    let (kind, body) = check_frame(frame)?;
    if kind != KIND_GRADIENT_BATCH {
        return Err(WireError::UnknownKind(kind));
    }
    // Body offset within the frame, for zero-copy payload slicing.
    let body_start = FRAME_HEADER_LEN;

    let mut reader = BodyReader::new(body);
    let iteration = reader.u64_le()?;
    let worker = reader.u32_le()?;
    let count = reader.u32_le()? as usize;
    // Each entry needs at least its header; an impossible count is
    // rejected before any allocation is sized from it.
    if count > reader.remaining() / ENTRY_HEADER_LEN {
        return Err(WireError::MalformedBody);
    }

    let mut entries = Vec::with_capacity(count);
    let mut offset = BATCH_PREFIX_LEN;
    for _ in 0..count {
        let file = reader.u32_le()?;
        let len = reader.u32_le()? as usize;
        let byte_len = len.checked_mul(4).ok_or(WireError::MalformedBody)?;
        reader.take(byte_len)?;
        offset += ENTRY_HEADER_LEN;
        entries.push(BatchEntry {
            file,
            payload: frame.slice(body_start + offset..body_start + offset + byte_len),
        });
        offset += byte_len;
    }
    if reader.remaining() != 0 {
        return Err(WireError::MalformedBody);
    }

    Ok(GradientBatchView {
        iteration,
        worker,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn encode_pairs(iteration: u64, worker: u32, grads: &[(u32, Vec<f32>)]) -> Bytes {
        let entries: Vec<(u32, &[f32])> = grads.iter().map(|(f, g)| (*f, g.as_slice())).collect();
        encode_gradient_batch(iteration, worker, &entries)
    }

    #[test]
    fn roundtrip_basic() {
        let grads = vec![
            (3u32, vec![1.0f32, -2.5, 0.0]),
            (7, vec![f32::NAN, f32::INFINITY]),
            (11, vec![]),
        ];
        let frame = encode_pairs(9, 4, &grads);
        assert!(is_gradient_batch(&frame));
        let view = decode_gradient_batch(&frame).unwrap();
        assert_eq!(view.iteration, 9);
        assert_eq!(view.worker, 4);
        assert_eq!(view.entries.len(), 3);
        for ((file, grad), entry) in grads.iter().zip(&view.entries) {
            assert_eq!(entry.file, *file);
            assert_eq!(entry.len(), grad.len());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&entry.to_vec()), bits(grad));
        }
        assert_eq!(view.total_len(), 5);
    }

    #[test]
    fn payloads_are_views_not_copies() {
        let grads = vec![(0u32, vec![1.0f32; 64]), (1, vec![2.0f32; 64])];
        let frame = encode_pairs(1, 0, &grads);
        let view = decode_gradient_batch(&frame).unwrap();
        // Entry payloads point inside the frame's allocation.
        let frame_base = frame.as_ref().as_ptr() as usize;
        let frame_end = frame_base + frame.len();
        for entry in &view.entries {
            let p = entry.raw().as_ptr() as usize;
            assert!(p >= frame_base && p + entry.raw().len() <= frame_end);
        }
    }

    #[test]
    fn recycled_scratch_reuses_the_allocation() {
        let grads = [(0u32, vec![1.5f32; 256]), (3, vec![-2.0f32; 256])];
        let entries: Vec<(u32, &[f32])> = grads.iter().map(|(f, g)| (*f, g.as_slice())).collect();
        let frame = encode_gradient_batch(7, 2, &entries);
        let base = frame.as_ref().as_ptr() as usize;
        let first = decode_gradient_batch(&frame).unwrap();

        // While the PS still holds views, the frame cannot be recycled.
        let frame = BytesMut::try_from(frame).expect_err("views keep the frame frozen");

        // Views dropped → the allocation comes back and the next round's
        // frame reuses it byte-for-byte.
        drop(first);
        let scratch = BytesMut::try_from(frame).expect("sole handle recovers");
        let next = encode_gradient_batch_into(8, 2, &entries, scratch);
        assert_eq!(
            next.as_ref().as_ptr() as usize,
            base,
            "allocation was reused"
        );
        let view = decode_gradient_batch(&next).unwrap();
        assert_eq!(view.iteration, 8);
        assert_eq!(view.entries.len(), 2);
    }

    /// Builds `grads` through the slot API, committing only the entries
    /// whose `keep` flag is set.
    fn build_in_place(iteration: u64, worker: u32, grads: &[(u32, Vec<f32>, bool)]) -> Bytes {
        let floats = grads.iter().map(|(_, g, _)| g.len()).sum();
        let mut builder = BatchFrameBuilder::new(grads.len(), floats);
        let kept = grads.iter().filter(|(_, _, keep)| *keep).count();
        builder.begin(iteration, worker, kept);
        for (file, grad, keep) in grads {
            let slot = builder.next_slot(grad.len());
            assert_eq!(slot.as_ptr() as usize % 4, 0, "slot is 4-aligned");
            slot.copy_from_slice(grad);
            if *keep {
                builder.commit(*file);
            }
        }
        builder.finish()
    }

    #[test]
    fn builder_with_nothing_committed_is_the_empty_batch() {
        // The "every replica dropped" frame, with and without slots
        // having been handed out.
        let want = encode_gradient_batch(4, 9, &[]);
        let mut empty = BatchFrameBuilder::new(0, 0);
        empty.begin(4, 9, 0);
        assert_eq!(empty.finish(), want);
        let dropped = [(1u32, vec![1.0f32; 5], false), (2, vec![2.0; 3], false)];
        assert_eq!(build_in_place(4, 9, &dropped), want);
    }

    #[test]
    fn builder_resets_between_frames() {
        let mut builder = BatchFrameBuilder::new(2, 8);
        for round in 1..=3u64 {
            builder.begin(round, 1, 1);
            builder.next_slot(3).copy_from_slice(&[round as f32; 3]);
            builder.commit(7);
            let frame = builder.finish();
            let want = encode_gradient_batch(round, 1, &[(7, &[round as f32; 3])]);
            assert_eq!(frame, want);
        }
    }

    #[test]
    #[should_panic(expected = "slot exceeds the builder's capacity")]
    fn builder_refuses_slots_past_its_capacity() {
        let mut builder = BatchFrameBuilder::new(1, 4);
        builder.begin(0, 0, 1);
        builder.next_slot(5);
    }

    #[test]
    fn builder_frame_is_the_encoded_frame_across_row_boundaries() {
        // 128 floats are one 512-byte checksum row: d = 127, 128, 129
        // put entry ends just before, on and after row boundaries, and
        // the deployed d = 264 970 folds thousands of rows per commit.
        for d in [1usize, 127, 128, 129, 264_970] {
            for n in 0..=5u32 {
                let grads: Vec<(u32, Vec<f32>, bool)> = (0..n)
                    .map(|f| {
                        let g = (0..d)
                            .map(|i| (i as f32 + 0.5) * (f as f32 - 2.5))
                            .collect();
                        (3 * f + 1, g, true)
                    })
                    .collect();
                let kept: Vec<(u32, Vec<f32>)> =
                    grads.iter().map(|(f, g, _)| (*f, g.clone())).collect();
                assert_eq!(
                    build_in_place(11, 7, &grads),
                    encode_pairs(11, 7, &kept),
                    "d = {d}, {n} entries"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "commit past the 2 entries begun")]
    fn builder_refuses_a_commit_past_the_count_begun() {
        let mut builder = BatchFrameBuilder::new(4, 4);
        builder.begin(1, 0, 2);
        for file in 0..3 {
            builder.next_slot(1)[0] = 1.0;
            builder.commit(file);
        }
    }

    #[test]
    #[should_panic(expected = "finish after 1 of the 2 entries begun")]
    fn builder_refuses_to_finish_short_of_the_count_begun() {
        let mut builder = BatchFrameBuilder::new(4, 4);
        builder.begin(1, 0, 2);
        builder.next_slot(1)[0] = 1.0;
        builder.commit(0);
        builder.finish();
    }

    #[test]
    fn non_batch_frame_rejected() {
        let frame = crate::Message::Shutdown.encode();
        assert!(matches!(
            decode_gradient_batch(&frame),
            Err(WireError::UnknownKind(_))
        ));
    }

    #[test]
    fn forged_entry_count_rejected() {
        // Hand-build a batch body claiming u32::MAX entries with none
        // present; the decoder must reject before sizing anything.
        let mut body = BytesMut::new();
        use bytes::BufMut;
        body.put_u64_le(1);
        body.put_u32_le(0);
        body.put_u32_le(u32::MAX);
        let frame = crate::message::seal_frame(KIND_GRADIENT_BATCH, body);
        assert_eq!(
            decode_gradient_batch(&frame).unwrap_err(),
            WireError::MalformedBody
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut body = BytesMut::new();
        use bytes::BufMut;
        body.put_u64_le(1);
        body.put_u32_le(0);
        body.put_u32_le(0);
        body.put_u32_le(0xFEED); // trailing bytes after the declared entries
        let frame = crate::message::seal_frame(KIND_GRADIENT_BATCH, body);
        assert_eq!(
            decode_gradient_batch(&frame).unwrap_err(),
            WireError::MalformedBody
        );
    }

    proptest! {
        /// Any batch of gradients roundtrips bit-exactly through the
        /// codec, whatever the file ids, lengths, and float payloads
        /// (including NaN bit patterns).
        #[test]
        fn roundtrip_any_batch(
            iteration in 0u64..u64::MAX,
            worker in 0u32..10_000,
            grads in proptest::collection::vec(
                (
                    0u32..1_000_000,
                    proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..40),
                ),
                0..12,
            ),
        ) {
            let frame = encode_pairs(iteration, worker, &grads);
            let view = decode_gradient_batch(&frame).unwrap();
            prop_assert_eq!(view.iteration, iteration);
            prop_assert_eq!(view.worker, worker);
            prop_assert_eq!(view.entries.len(), grads.len());
            for ((file, grad), entry) in grads.iter().zip(&view.entries) {
                prop_assert_eq!(entry.file, *file);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                prop_assert_eq!(bits(&entry.to_vec()), bits(grad));
            }
        }

        /// A frame built in place is the copying encoder's frame over
        /// the committed entries, byte for byte — ragged and empty
        /// entries, uncommitted slots reused by the next entry — and
        /// decodes back to them.
        #[test]
        fn builder_frame_is_the_encoded_frame(
            iteration in 0u64..u64::MAX,
            worker in 0u32..10_000,
            grads in proptest::collection::vec(
                (
                    0u32..1_000_000,
                    proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..40),
                    any::<u8>().prop_map(|b| b % 3 != 0),
                ),
                0..12,
            ),
        ) {
            let frame = build_in_place(iteration, worker, &grads);
            let kept: Vec<(u32, Vec<f32>)> = grads
                .iter()
                .filter(|(_, _, keep)| *keep)
                .map(|(file, grad, _)| (*file, grad.clone()))
                .collect();
            prop_assert_eq!(&frame, &encode_pairs(iteration, worker, &kept));
            let view = decode_gradient_batch(&frame).unwrap();
            prop_assert_eq!(view.entries.len(), kept.len());
            for ((file, grad), entry) in kept.iter().zip(&view.entries) {
                prop_assert_eq!(entry.file, *file);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                prop_assert_eq!(bits(&entry.to_vec()), bits(grad));
            }
        }

        /// Every strict prefix of a valid frame fails to decode with a
        /// typed error — truncation degrades, never panics.
        #[test]
        fn truncation_degrades_not_panics(
            cut in 0usize..200,
            grads in proptest::collection::vec(
                (0u32..100, proptest::collection::vec(-1e9f32..1e9, 0..16)),
                1..6,
            ),
        ) {
            let frame = encode_pairs(5, 2, &grads);
            let cut = cut.min(frame.len().saturating_sub(1));
            let truncated = frame.slice(0..cut);
            prop_assert!(decode_gradient_batch(&truncated).is_err());
        }

        /// Flipping any single byte of a valid frame is caught — by the
        /// checksum for body bytes, by the magic/kind/length checks for
        /// header bytes — and never panics.
        #[test]
        fn single_byte_corruption_degrades(
            pos_seed in 0usize..10_000,
            flip in 1u8..=255,
            grads in proptest::collection::vec(
                (0u32..100, proptest::collection::vec(-1e3f32..1e3, 1..8)),
                1..4,
            ),
        ) {
            let frame = encode_pairs(3, 1, &grads);
            let pos = pos_seed % frame.len();
            let mut corrupted = BytesMut::from_bytes(&frame);
            corrupted[pos] ^= flip;
            // Either the decode fails with a typed error, or — only when
            // the flipped byte lands in the checksum-covered body AND
            // collides (impossible for FNV on a single flip) — succeeds.
            // In practice: always an error for body flips; header flips
            // hit magic/kind/len/checksum checks.
            prop_assert!(decode_gradient_batch(&corrupted.freeze()).is_err());
        }
    }
}
