//! Binary message framing with checksums.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic: u32 = 0xB1Z5 (0xB125_51ED)   | sanity marker
//! kind:  u8                            | message discriminant
//! body_len: u32                        | length of the body in bytes
//! checksum: u64                        | 64-lane word FNV over kind + body
//! body: [u8; body_len]
//! ```
//!
//! A frame is exactly its header and its declared body: a byte past the
//! body is refused ([`WireError::TrailingBytes`]), so every byte a
//! decoder slices out is one the checksum covered.
//!
//! The codec is built for the round hot path: `f32` runs are moved with
//! bulk byte copies (never per-element `put_f32_le` loops), checksums
//! fold the body a 512-byte row at a time across 64 independent lanes
//! at vector width ([`byz_kernel::ChecksumFold`] — at gradient sizes the
//! checksum, not the copy, is the wire's CPU bound), and decoding slices
//! payloads out of the refcounted frame where a view suffices (see the
//! [`batch`](crate::batch) codec).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Frame magic marker.
pub(crate) const MAGIC: u32 = 0xB125_51ED;

/// Bytes of header before the body (`magic + kind + body_len + checksum`).
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 8;

const KIND_MODEL_BROADCAST: u8 = 1;
const KIND_SHUTDOWN: u8 = 3;
pub(crate) const KIND_GRADIENT_BATCH: u8 = 6;
pub(crate) const KIND_GRADIENT_CHUNK: u8 = 7;
// Kinds 8–10 are the socket-transport handshake (hello / welcome /
// reject), decoded in [`crate::handshake`]; `Message::decode` reports
// them as `UnknownKind` on purpose — they never appear inside a round.
pub(crate) const KIND_HELLO: u8 = 8;
pub(crate) const KIND_WELCOME: u8 = 9;
pub(crate) const KIND_REJECT: u8 = 10;
// Retired kinds, never reused — `UnknownKind` to every decoder:
//   2  per-file gradient return
//   4  vote-on-hash announce
//   5  vote-on-hash payload pull
//   11 join request   (a second way into a job, shipping a file set the
//   12 join welcome    spec already gives and a model the broadcast does)

/// Errors from frame decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a frame header.
    Truncated { needed: usize, got: usize },
    /// Wrong magic marker — not one of our frames.
    BadMagic(u32),
    /// Unknown message discriminant.
    UnknownKind(u8),
    /// The checksum does not match the payload: transport corruption.
    ChecksumMismatch { expected: u64, computed: u64 },
    /// Body shorter than its declared length.
    BodyTruncated { declared: usize, got: usize },
    /// Bytes past the declared body: the checksum does not cover them,
    /// so the frame is refused rather than read.
    TrailingBytes { declared: usize, got: usize },
    /// The body's internal structure disagrees with its own length
    /// fields (a batch entry running past the body end, a count that
    /// cannot fit, …) — corruption the checksum cannot rule out when the
    /// frame was forged whole.
    MalformedBody,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "frame truncated: need {needed} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::ChecksumMismatch { expected, computed } => {
                write!(
                    f,
                    "checksum mismatch: header says {expected:#x}, body hashes to {computed:#x}"
                )
            }
            WireError::BodyTruncated { declared, got } => {
                write!(f, "body truncated: declared {declared} bytes, got {got}")
            }
            WireError::TrailingBytes { declared, got } => {
                write!(
                    f,
                    "frame overruns its body: declared {declared} bytes, got {got}"
                )
            }
            WireError::MalformedBody => write!(f, "body structure inconsistent with its length"),
        }
    }
}

impl std::error::Error for WireError {}

/// Checksum of a frame: the 64-lane word FNV of
/// [`byz_kernel::ChecksumFold`] over the body, seeded by the kind byte.
///
/// Lane `i` folds body words `i, i + 64, …` (512-byte rows), so the
/// multiply chains are independent and the kernel runs at vector width
/// on whichever path the CPU has, every path computing the same value.
/// [`BatchFrameBuilder`](crate::BatchFrameBuilder) folds the same rows
/// while its entries land.
///
/// The checksum is protocol-internal — encode and verify both go
/// through this kernel — so its definition can change without changing
/// anything outside the frame's 8 checksum bytes.
pub(crate) fn frame_checksum(kind: u8, body: &[u8]) -> u64 {
    byz_kernel::lane_checksum(kind, body)
}

/// The bit patterns of `values`, in place.
pub(crate) fn f32_bits(values: &[f32]) -> &[u32] {
    // SAFETY: f32 and u32 have the same size and alignment, and every bit
    // pattern is a valid u32.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), values.len()) }
}

/// Appends `values` to `out` as little-endian `u32`s in one bulk copy.
///
/// On little-endian targets the in-memory representation *is* the wire
/// representation, so the whole run is a single `memcpy`; big-endian
/// targets fall back to a conversion loop.
pub(crate) fn put_u32s_le(out: &mut BytesMut, values: &[u32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: u32 has no padding and u8 has alignment 1, so viewing
        // the u32 run as raw bytes is always valid for reads.
        let raw =
            unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4) };
        out.extend_from_slice(raw);
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.reserve(values.len() * 4);
        for &v in values {
            out.put_u32_le(v);
        }
    }
}

/// Appends `values` to `out` as little-endian `f32`s in one bulk copy
/// (their bit patterns through `put_u32s_le`).
pub fn put_f32s_le(out: &mut BytesMut, values: &[f32]) {
    put_u32s_le(out, f32_bits(values));
}

/// Decodes a run of little-endian `f32` bytes into `out` (appended), in
/// bulk chunks instead of per-element `get_f32_le` calls.
///
/// # Panics
///
/// Panics if `raw.len()` is not a multiple of 4 — callers must have
/// validated the length against the frame's own length fields first.
pub fn extend_f32s_le(out: &mut Vec<f32>, raw: &[u8]) {
    assert!(
        raw.len().is_multiple_of(4),
        "f32 run length must be a multiple of 4"
    );
    let n = raw.len() / 4;
    out.reserve(n);
    #[cfg(target_endian = "little")]
    {
        let start = out.len();
        // SAFETY: capacity was just reserved; the byte copy fills
        // exactly the `n` new elements with their little-endian (= native)
        // representation, after which the length is extended over
        // initialized memory. Every u32 bit pattern is a valid f32.
        unsafe {
            std::ptr::copy_nonoverlapping(
                raw.as_ptr(),
                out.as_mut_ptr().add(start).cast::<u8>(),
                raw.len(),
            );
            out.set_len(start + n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.extend(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
}

/// Decodes a run of little-endian `f32` bytes into a fresh vector.
pub fn read_f32s_le(raw: &[u8]) -> Vec<f32> {
    let mut out = Vec::new();
    extend_f32s_le(&mut out, raw);
    out
}

/// A fresh copy of `src` placed so that its byte `at` sits on a 4-byte
/// boundary — where an `f32` run inside it must start to be read in
/// place.
pub(crate) fn copy_aligned(src: &[u8], at: usize) -> Bytes {
    let mut buf = Vec::with_capacity(src.len() + 3);
    let lead = (buf.as_ptr() as usize + at).wrapping_neg() % 4;
    buf.resize(lead, 0);
    buf.extend_from_slice(src);
    Bytes::from(buf).slice(lead..lead + src.len())
}

/// The native-order bytes of a run of floats.
pub(crate) fn float_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: `f32` has no padding and `u8` alignment 1, so the run of
    // floats is readable as its `4·len` native-order bytes.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// A 4-aligned run of whole native-order floats, read in place.
///
/// # Panics
///
/// Panics if `run` is not 4-aligned or not a whole number of floats.
pub(crate) fn floats(run: &[u8]) -> &[f32] {
    // SAFETY: every bit pattern is a valid `f32`, and `align_to` only
    // reinterprets the aligned middle of the bytes, which the assert
    // checks is all of them.
    let (head, floats, tail) = unsafe { run.align_to::<f32>() };
    assert!(
        head.is_empty() && tail.is_empty(),
        "a 4-aligned run of whole floats"
    );
    floats
}

/// [`floats`], writable.
pub(crate) fn floats_mut(run: &mut [u8]) -> &mut [f32] {
    // SAFETY: as in `floats`.
    let (head, floats, tail) = unsafe { run.align_to_mut::<f32>() };
    assert!(
        head.is_empty() && tail.is_empty(),
        "a 4-aligned run of whole floats"
    );
    floats
}

/// Where `len` floats start 4-aligned inside `block`, an allocation of
/// `4·len + 3` bytes.
pub(crate) fn float_span(block: &[u8], len: usize) -> std::ops::Range<usize> {
    let lead = block.as_ptr().align_offset(4);
    lead..lead + 4 * len
}

/// A fresh 4-aligned run of `len` native-order floats, written by `fill`.
pub(crate) fn aligned_floats(len: usize, fill: impl FnOnce(&mut [f32])) -> Bytes {
    let mut block = vec![0u8; 4 * len + 3];
    let span = float_span(&block, len);
    fill(floats_mut(&mut block[span.clone()]));
    Bytes::from(block).slice(span)
}

/// Validates a frame's header, length and checksum and returns
/// `(kind, body)`; the body is always `frame[FRAME_HEADER_LEN..]`.
///
/// This is the single header/integrity gate shared by [`Message::decode`]
/// and the batched-gradient codec — any byte-level corruption is caught
/// here, before a single body field is interpreted.
pub(crate) fn check_frame(frame: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let mut header = frame;
    if header.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            got: header.len(),
        });
    }
    let magic = header.get_u32_le();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let kind = header.get_u8();
    let body_len = header.get_u32_le() as usize;
    let checksum = header.get_u64_le();
    if header.len() < body_len {
        return Err(WireError::BodyTruncated {
            declared: body_len,
            got: header.len(),
        });
    }
    if header.len() > body_len {
        return Err(WireError::TrailingBytes {
            declared: body_len,
            got: header.len(),
        });
    }
    let body = header;
    let computed = frame_checksum(kind, body);
    if computed != checksum {
        return Err(WireError::ChecksumMismatch {
            expected: checksum,
            computed,
        });
    }
    Ok((kind, body))
}

/// A bounds-checked body reader: every read that would run past the end
/// yields [`WireError::MalformedBody`] instead of panicking, so a forged
/// frame with a self-consistent checksum can never take the PS down.
pub(crate) struct BodyReader<'a>(&'a [u8]);

impl<'a> BodyReader<'a> {
    pub(crate) fn new(body: &'a [u8]) -> Self {
        BodyReader(body)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::MalformedBody);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Wraps an encoded body into a checksummed frame.
pub(crate) fn seal_frame(kind: u8, body: BytesMut) -> Bytes {
    let checksum = frame_checksum(kind, &body);
    let mut frame = BytesMut::with_capacity(FRAME_HEADER_LEN + body.len());
    frame.put_u32_le(MAGIC);
    frame.put_u8(kind);
    frame.put_u32_le(body.len() as u32);
    frame.put_u64_le(checksum);
    frame.extend_from_slice(&body);
    frame.freeze()
}

/// Completes a frame whose body is already in place: `frame` is
/// [`FRAME_HEADER_LEN`] placeholder bytes followed by the finished body,
/// and the header (checksum included) is written over the placeholder —
/// the single-pass counterpart of [`seal_frame`], for encoders that size
/// the frame up front and never stage the body separately.
pub(crate) fn seal_in_place(kind: u8, frame: &mut [u8]) {
    let checksum = frame_checksum(kind, &frame[FRAME_HEADER_LEN..]);
    write_header(kind, checksum, frame);
}

/// Writes the header of `frame` — its [`FRAME_HEADER_LEN`] placeholder
/// bytes followed by the body — given the body's checksum, folded by
/// the caller (see [`BatchFrameBuilder`](crate::BatchFrameBuilder)).
pub(crate) fn write_header(kind: u8, checksum: u64, frame: &mut [u8]) {
    let (header, body) = frame.split_at_mut(FRAME_HEADER_LEN);
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = kind;
    header[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[9..].copy_from_slice(&checksum.to_le_bytes());
}

/// Encodes a [`Message::ModelBroadcast`] from borrowed parts — the PS
/// broadcasts its live parameter vector every round without cloning it
/// into a message first. Byte-identical to [`Message::encode`], which
/// calls this.
pub fn encode_model_broadcast(iteration: u64, params: &[f32], files: &[Vec<u32>]) -> Bytes {
    let index_words: usize = files.iter().map(|file| 1 + file.len()).sum();
    let body_len = 8 + 4 + params.len() * 4 + 4 + index_words * 4;
    let mut frame = BytesMut::with_capacity(FRAME_HEADER_LEN + body_len);
    frame.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    frame.put_u64_le(iteration);
    frame.put_u32_le(params.len() as u32);
    put_f32s_le(&mut frame, params);
    frame.put_u32_le(files.len() as u32);
    for file in files {
        frame.put_u32_le(file.len() as u32);
        for &idx in file {
            frame.put_u32_le(idx);
        }
    }
    seal_in_place(KIND_MODEL_BROADCAST, &mut frame);
    frame.freeze()
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// PS → worker: the global model for an iteration, plus the sample
    /// indices of every file (so workers know their work without shared
    /// memory).
    ModelBroadcast {
        /// Iteration number `t`.
        iteration: u64,
        /// Flat model parameters.
        params: Vec<f32>,
        /// `files[i]` = the dataset indices making up file `i`.
        files: Vec<Vec<u32>>,
    },
    /// PS → worker: training is over; the thread should exit.
    Shutdown,
}

impl Message {
    /// Serializes the message into a framed byte buffer. The returned
    /// [`Bytes`] is refcounted — fanning it out to `K` channels clones a
    /// pointer, not the payload.
    pub fn encode(&self) -> Bytes {
        match self {
            Message::ModelBroadcast {
                iteration,
                params,
                files,
            } => encode_model_broadcast(*iteration, params, files),
            Message::Shutdown => seal_frame(KIND_SHUTDOWN, BytesMut::new()),
        }
    }

    /// Parses a framed byte buffer back into a message.
    ///
    /// # Errors
    ///
    /// See [`WireError`]: truncation, bad magic, unknown kind, checksum
    /// mismatch, trailing bytes, inconsistent body structure.
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        Ok(match MessageView::decode(frame)? {
            MessageView::ModelBroadcast {
                iteration,
                params,
                files,
            } => Message::ModelBroadcast {
                iteration,
                params: read_f32s_le(params),
                files,
            },
            MessageView::Shutdown => Message::Shutdown,
        })
    }
}

/// A decoded [`Message`] whose broadcast parameters stay in the frame as
/// their little-endian bytes — the worker loads them into its model with
/// one copy ([`byz_nn::FastMlp::set_params_le`]) instead of staging a
/// parameter `Vec` first.
#[derive(Debug)]
pub(crate) enum MessageView<'a> {
    /// [`Message::ModelBroadcast`], parameters borrowed.
    ModelBroadcast {
        iteration: u64,
        /// The parameters: `4 · n` little-endian `f32` bytes.
        params: &'a [u8],
        files: Vec<Vec<u32>>,
    },
    /// [`Message::Shutdown`].
    Shutdown,
}

impl<'a> MessageView<'a> {
    /// [`Message::decode`], borrowing the parameters from `frame`.
    pub(crate) fn decode(frame: &'a [u8]) -> Result<MessageView<'a>, WireError> {
        let (kind, body) = check_frame(frame)?;
        let mut body = BodyReader::new(body);
        match kind {
            KIND_MODEL_BROADCAST => {
                let iteration = body.u64_le()?;
                let n = body.u32_le()? as usize;
                let params = body.take(n.checked_mul(4).ok_or(WireError::MalformedBody)?)?;
                let nf = body.u32_le()? as usize;
                let mut files = Vec::with_capacity(nf.min(body.remaining() / 4));
                for _ in 0..nf {
                    let fl = body.u32_le()? as usize;
                    let raw = body.take(fl.checked_mul(4).ok_or(WireError::MalformedBody)?)?;
                    files.push(
                        raw.chunks_exact(4)
                            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    );
                }
                if body.remaining() != 0 {
                    return Err(WireError::MalformedBody);
                }
                Ok(MessageView::ModelBroadcast {
                    iteration,
                    params,
                    files,
                })
            }
            KIND_SHUTDOWN if body.remaining() == 0 => Ok(MessageView::Shutdown),
            KIND_SHUTDOWN => Err(WireError::MalformedBody),
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_broadcast() {
        let msg = Message::ModelBroadcast {
            iteration: 42,
            params: vec![1.5, -2.25, 0.0],
            files: vec![vec![0, 7, 9], vec![3]],
        };
        let frame = msg.encode();
        assert_eq!(Message::decode(&frame).unwrap(), msg);

        // The borrowed single-pass encoder is the owned one, and both are
        // the documented layout sealed the staged way.
        let Message::ModelBroadcast { params, files, .. } = &msg else {
            unreachable!()
        };
        assert_eq!(encode_model_broadcast(42, params, files), frame);
        let mut body = BytesMut::new();
        body.put_u64_le(42);
        body.put_u32_le(params.len() as u32);
        put_f32s_le(&mut body, params);
        body.put_u32_le(2);
        for file in files {
            body.put_u32_le(file.len() as u32);
            file.iter().for_each(|&idx| body.put_u32_le(idx));
        }
        assert_eq!(seal_frame(KIND_MODEL_BROADCAST, body), frame);
    }

    #[test]
    fn roundtrip_shutdown() {
        let frame = Message::Shutdown.encode();
        assert_eq!(frame.len(), FRAME_HEADER_LEN);
        assert_eq!(Message::decode(&frame).unwrap(), Message::Shutdown);
    }

    #[test]
    fn f32_runs_roundtrip_bitwise() {
        // NaN payloads, signed zeros, denormals: the bulk path must be a
        // bit-pattern copy, not a float conversion.
        let values = vec![
            f32::NAN,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            -1.5e-38,
        ];
        let mut buf = BytesMut::new();
        put_f32s_le(&mut buf, &values);
        let back = read_f32s_le(&buf);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&back));
    }

    #[test]
    fn corruption_detected() {
        let msg = Message::ModelBroadcast {
            iteration: 1,
            params: vec![1.0, 2.0],
            files: vec![vec![0]],
        };
        // Corrupting a frame requires a mutable copy — made once, here,
        // where the corruption is intended.
        let mut bytes = BytesMut::from_bytes(&msg.encode());
        // Flip a body bit.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let frame = Message::Shutdown.encode();
        assert!(matches!(
            Message::decode(&frame[..5]),
            Err(WireError::Truncated { .. })
        ));
        let msg = Message::ModelBroadcast {
            iteration: 1,
            params: vec![1.0; 8],
            files: Vec::new(),
        };
        let full = msg.encode();
        assert!(matches!(
            Message::decode(&full[..FRAME_HEADER_LEN + 3]),
            Err(WireError::BodyTruncated { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = BytesMut::from_bytes(&Message::Shutdown.encode());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_kind_detected() {
        // Well-checksummed frames of a kind that never existed, and of
        // the three retired ones (the per-file gradient return and the
        // vote-on-hash announce / pull request).
        for kind in [99, 2, 4, 5] {
            let frame = seal_frame(kind, BytesMut::new());
            assert_eq!(
                Message::decode(&frame).unwrap_err(),
                WireError::UnknownKind(kind)
            );
        }
    }

    /// Whether a decoder accepts a frame.
    type Decodes = fn(&Bytes) -> bool;

    /// One valid frame of every kind a decoder reads, each through the
    /// decoder that reads it.
    fn every_decoder() -> Vec<(&'static str, Bytes, Decodes)> {
        use crate::{decode_gradient_batch, decode_gradient_chunk, encode_gradient_batch};
        use crate::{encode_gradient_chunks, ChunkConfig, Handshake};
        let g: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let broadcast = encode_model_broadcast(3, &g, &[vec![1, 2]]);
        let chunk = encode_gradient_chunks(3, 1, 0, &g, &ChunkConfig::dense(8)).remove(0);
        let hello = Handshake::Hello {
            job_id: 9,
            worker: 1,
        }
        .encode();
        vec![
            ("broadcast", broadcast, |f| Message::decode(f).is_ok()),
            ("shutdown", Message::Shutdown.encode(), |f| {
                Message::decode(f).is_ok()
            }),
            ("batch", encode_gradient_batch(3, 1, &[(0, &g)]), |f| {
                decode_gradient_batch(f).is_ok()
            }),
            ("chunk", chunk, |f| decode_gradient_chunk(f).is_ok()),
            ("handshake", hello, |f| Handshake::decode(f).is_ok()),
        ]
    }

    #[test]
    fn an_appended_byte_is_refused_by_every_decoder() {
        // Bytes past the declared body are not covered by the checksum;
        // a decoder that read them would vote bytes nobody verified.
        for (what, frame, decodes) in every_decoder() {
            assert!(decodes(&frame), "{what}: the frame itself decodes");
            let mut longer = BytesMut::from_bytes(&frame);
            longer.put_u8(0);
            let longer = longer.freeze();
            assert!(!decodes(&longer), "{what}: an appended byte decoded");
            assert_eq!(
                check_frame(&longer).unwrap_err(),
                WireError::TrailingBytes {
                    declared: frame.len() - FRAME_HEADER_LEN,
                    got: frame.len() - FRAME_HEADER_LEN + 1,
                },
                "{what}"
            );
        }
    }

    #[test]
    fn a_broadcast_with_unread_body_bytes_is_refused() {
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u32_le(1);
        put_f32s_le(&mut body, &[2.0]);
        body.put_u32_le(0); // no files
        let whole = seal_frame(KIND_MODEL_BROADCAST, body.clone());
        assert!(Message::decode(&whole).is_ok());
        body.put_u32_le(7); // inside the checksummed body, read by no field
        let frame = seal_frame(KIND_MODEL_BROADCAST, body);
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            WireError::MalformedBody
        );
        let shutdown = seal_frame(KIND_SHUTDOWN, BytesMut::from(&[0u8][..]));
        assert_eq!(
            Message::decode(&shutdown).unwrap_err(),
            WireError::MalformedBody
        );
    }

    /// A broadcast frame whose body spans three checksum rows and a
    /// ragged tail.
    fn three_row_frame() -> Bytes {
        let params: Vec<f32> = (0..400).map(|i| (i as f32 * 0.7).sin()).collect();
        encode_model_broadcast(5, &params, &[vec![4, 8, 15], vec![16, 23, 42]])
    }

    #[test]
    fn checksum_refuses_every_single_bit_flip() {
        let frame = three_row_frame();
        assert!(frame.len() > FRAME_HEADER_LEN + 3 * byz_kernel::CHECKSUM_ROW);
        for bit in 0..frame.len() * 8 {
            let mut bytes = BytesMut::from_bytes(&frame);
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(check_frame(&bytes).is_err(), "bit {bit} flipped unnoticed");
        }
    }

    #[test]
    fn checksum_refuses_word_swaps_and_row_moves() {
        let frame = three_row_frame();
        let word = |i: usize| FRAME_HEADER_LEN + 8 * i;
        let swapped = |i: usize, j: usize| {
            let mut bytes = BytesMut::from_bytes(&frame);
            for k in 0..8 {
                bytes.swap(word(i) + k, word(j) + k);
            }
            assert_ne!(
                frame[word(i)..word(i) + 8],
                frame[word(j)..word(j) + 8],
                "words {i} and {j} differ"
            );
            bytes
        };
        let lanes = byz_kernel::CHECKSUM_LANES;
        for i in [0, 5, 63, 64, 100, 130] {
            // Two words in different lanes trade places.
            for j in [i + 1, i + 37] {
                assert!(matches!(
                    check_frame(&swapped(i, j)),
                    Err(WireError::ChecksumMismatch { .. })
                ));
            }
            // A word moves into the next row, where its lane's next word
            // moves up to take its place.
            assert!(matches!(
                check_frame(&swapped(i, i + lanes)),
                Err(WireError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn checksum_frame_refuses_truncation_and_extension() {
        let frame = three_row_frame();
        assert!(check_frame(&frame).is_ok());
        for cut in 0..frame.len() {
            assert!(check_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        for extra in 1..=9 {
            let mut longer = BytesMut::from_bytes(&frame);
            longer.extend_from_slice(&vec![0u8; extra]);
            assert!(matches!(
                check_frame(&longer),
                Err(WireError::TrailingBytes { .. })
            ));
        }
    }

    #[test]
    fn oversized_count_is_malformed_not_panic() {
        // A forged broadcast whose parameter count exceeds the body: the
        // decoder must reject it, not slice past the end.
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u32_le(u32::MAX); // claims 16 GiB of f32s
        let frame = seal_frame(KIND_MODEL_BROADCAST, body);
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            WireError::MalformedBody
        );
    }
}
