//! Binary message framing with checksums.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic: u32 = 0xB1Z5 (0xB125_51ED)   | sanity marker
//! kind:  u8                            | message discriminant
//! body_len: u32                        | length of the body in bytes
//! checksum: u64                        | 4-lane word FNV over kind + body
//! body: [u8; body_len]
//! ```
//!
//! The codec is built for the round hot path: `f32` runs are moved with
//! bulk byte copies (never per-element `put_f32_le` loops), checksums
//! fold the body eight bytes at a time across four independent lanes
//! (never one multiply per byte — at gradient sizes the checksum, not
//! the copy, is the wire's CPU bound), and decoding slices payloads out
//! of the refcounted frame where a view suffices (see the
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
            WireError::MalformedBody => write!(f, "body structure inconsistent with its length"),
        }
    }
}

impl std::error::Error for WireError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Checksum of a frame: a four-lane word-folded FNV over the kind byte
/// then the body.
///
/// The seed's byte-at-a-time FNV-1a put one dependent multiply on every
/// body byte, capping the wire at a few hundred MB/s — at K = 25,
/// d = 1M a round moves ~1 GB through encode + verify, which made the
/// checksum (not the copy) the round's serial bottleneck. This variant
/// consumes 32-byte blocks across four independent FNV lanes (the
/// multiply chains pipeline instead of serializing), folds the lanes,
/// and finishes the tail byte-wise. Little-endian word loads keep the
/// value platform-independent.
///
/// The checksum is protocol-internal — encode and verify are the only
/// users and both call this one function — so the constant change from
/// the seed's scheme is invisible outside the frame.
pub(crate) fn frame_checksum(kind: u8, body: &[u8]) -> u64 {
    let mut lanes = [
        (FNV_OFFSET ^ u64::from(kind)).wrapping_mul(FNV_PRIME),
        FNV_OFFSET.rotate_left(17),
        FNV_OFFSET.rotate_left(31),
        FNV_OFFSET.rotate_left(47),
    ];
    let mut blocks = body.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in blocks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
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

/// Validates a frame's header and checksum and returns `(kind, body)`.
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
    let body = &header[..body_len];
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
    let (header, body) = frame.split_at_mut(FRAME_HEADER_LEN);
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = kind;
    header[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[9..].copy_from_slice(&frame_checksum(kind, body).to_le_bytes());
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
    /// mismatch, inconsistent body structure.
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        let (kind, body) = check_frame(frame)?;
        let mut body = BodyReader::new(body);
        match kind {
            KIND_MODEL_BROADCAST => {
                let iteration = body.u64_le()?;
                let n = body.u32_le()? as usize;
                let params =
                    read_f32s_le(body.take(n.checked_mul(4).ok_or(WireError::MalformedBody)?)?);
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
                Ok(Message::ModelBroadcast {
                    iteration,
                    params,
                    files,
                })
            }
            KIND_SHUTDOWN => Ok(Message::Shutdown),
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
