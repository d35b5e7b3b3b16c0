//! Chunked (and optionally sparsified) gradient frames.
//!
//! A [`KIND_GRADIENT_CHUNK`](crate::message) frame carries one
//! *coordinate range* of one `(worker, file)` replica, so a `d = 10M`
//! model streams through fixed-size reusable buffers instead of one
//! `d`-sized frame per worker — the receive side never needs more than
//! `O(chunk_len)` of decode scratch per frame (see
//! [`ShardedFileVoter`](crate::voter::ShardedFileVoter)).
//!
//! ```text
//! header:  magic | kind = 7 | body_len | checksum       (see message.rs)
//! body:    iteration:   u64
//!          worker:      u32
//!          file:        u32
//!          chunk_index: u32    | which range of the replica this is
//!          num_chunks:  u32    | ranges the replica was cut into
//!          start:       u32    | first coordinate of the range
//!          range_len:   u32    | coordinates in this range
//!          total_len:   u32    | full replica dimension d
//!          encoding:    u8     | 0 dense · 1 sparse top-k · 2 sign bits
//!          payload:     encoding-specific (see below)
//! ```
//!
//! Every chunk is its own checksummed frame, so corruption is detected
//! *per chunk*: one flipped bit costs one chunk (and thereby one
//! replica's vote — a dropped chunk degrades like a dropped replica),
//! never the round.
//!
//! Payloads:
//!
//! * **Dense** (`0`): `range_len` little-endian `f32`s — the bit-exact
//!   baseline.
//! * **Sparse** (`1`): `count: u32`, then `count` strictly-increasing
//!   range-relative `u32` indices, then `count` `f32` values — the
//!   seeded top-k encoding produced by [`sparsify_top_k`]. Because the
//!   selection is a pure function of the values and the shared seed,
//!   honest replicas sparsify **bit-identically**, so the exact-equality
//!   majority vote is unweakened; the encoder falls back to dense when
//!   `k / range_len ≥ dense_threshold` (a sparse entry costs 8 bytes
//!   against dense's 4).
//! * **Signs** (`2`): the two [`PackedSigns`] bit planes of the range
//!   (negative then zero mask), `2·⌈range_len/8⌉` bytes — the signSGD
//!   ternary encoding, 16× smaller than dense on the wire.
//!
//! Nothing in this module panics on wire input: forged counts,
//! out-of-range indices, non-monotone indices, ragged geometry and
//! trailing bytes all decode to [`WireError::MalformedBody`].

use crate::message::{
    check_frame, float_bytes, put_u32s_le, seal_in_place, BodyReader, KIND_GRADIENT_CHUNK,
};
use crate::topk::with_top_k;
use crate::{extend_f32s_le, put_f32s_le, PackedSigns, WireError, FRAME_HEADER_LEN};
use bytes::{BufMut, Bytes, BytesMut};

/// Fixed body bytes before the payload
/// (`iteration + worker + file + chunk_index + num_chunks + start +
/// range_len + total_len + encoding`).
pub const CHUNK_PREFIX_LEN: usize = 8 + 4 * 6 + 4 + 1;

const ENC_DENSE: u8 = 0;
const ENC_SPARSE: u8 = 1;
const ENC_SIGNS: u8 = 2;

/// How a replica's chunks are encoded on the wire — negotiated per
/// `ServerConfig`, so both sides derive identical geometry and the PS
/// can validate every arriving chunk against the agreed shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkScheme {
    /// Bit-exact `f32` ranges.
    Dense,
    /// Seeded top-k per chunk ([`sparsify_top_k`]), dense fallback when
    /// the sparse form would not be smaller.
    TopK(SparsifyConfig),
    /// Ternary sign bits ([`PackedSigns`] planes) per chunk.
    Signs,
}

/// The chunked-wire negotiation: range size plus encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkConfig {
    /// Coordinates per chunk (the last chunk of a replica may be
    /// shorter). Clamped to ≥ 1.
    pub chunk_len: usize,
    /// Payload encoding.
    pub scheme: ChunkScheme,
}

impl ChunkConfig {
    /// A dense chunking with the given range size.
    pub fn dense(chunk_len: usize) -> Self {
        ChunkConfig {
            chunk_len,
            scheme: ChunkScheme::Dense,
        }
    }

    /// The effective (≥ 1) chunk length.
    pub fn span_len(&self) -> usize {
        self.chunk_len.max(1)
    }
}

/// Seeded top-k sparsification parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsifyConfig {
    /// Coordinates kept per chunk.
    pub k: usize,
    /// Dense fallback threshold: when `k ≥ dense_threshold · range_len`
    /// the chunk is sent dense (sparse entries cost 8 bytes vs 4).
    pub dense_threshold: f64,
    /// Tie-break seed, shared by all honest workers so equal-magnitude
    /// ties resolve identically everywhere.
    pub seed: u64,
}

impl SparsifyConfig {
    /// Keep `k` coordinates per chunk with the default 0.5 fallback
    /// threshold.
    pub fn top_k(k: usize, seed: u64) -> Self {
        SparsifyConfig {
            k,
            dense_threshold: 0.5,
            seed,
        }
    }

    fn keeps_dense(&self, range_len: usize) -> bool {
        (self.k as f64) >= self.dense_threshold * (range_len as f64)
    }
}

/// Number of chunks a `total_len`-dimensional replica is cut into. An
/// empty replica still occupies one (empty) chunk so its vote can
/// complete.
pub fn num_chunks(total_len: usize, chunk_len: usize) -> usize {
    total_len.div_ceil(chunk_len.max(1)).max(1)
}

/// The `(start, len)` coordinate range of chunk `index`.
pub fn chunk_span(total_len: usize, chunk_len: usize, index: usize) -> (usize, usize) {
    let chunk_len = chunk_len.max(1);
    let start = (index * chunk_len).min(total_len);
    let len = chunk_len.min(total_len - start);
    (start, len)
}

/// One sparsified chunk: `indices[i]` (range-relative, strictly
/// increasing) holds value `values[i]`; every other coordinate of the
/// range is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseChunk {
    /// Coordinates in the full (densified) range.
    pub range_len: usize,
    /// Kept coordinate indices, sorted strictly increasing, `< range_len`.
    pub indices: Vec<u32>,
    /// Kept values, aligned with `indices`.
    pub values: Vec<f32>,
}

impl SparseChunk {
    /// Appends the densified range (zeros at dropped coordinates).
    pub fn densify_into(&self, out: &mut Vec<f32>) {
        let base = out.len();
        out.resize(base + self.range_len, 0.0);
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[base + i as usize] = v;
        }
    }

    /// Serialized payload size in bytes.
    pub fn wire_len(&self) -> usize {
        4 + self.indices.len() * 8
    }
}

/// Deterministic top-k of one chunk by |value|.
///
/// Selection order is a strict total order — magnitude descending
/// (NaN magnitudes rank largest, so a NaN coordinate is never silently
/// dropped in favor of a finite one), then seeded tie key, then index —
/// so the kept set is a pure function of `(values, k, seed, start)` and
/// honest replicas stay **bit-identical** after sparsification.
/// `chunk_start` is the chunk's global coordinate offset (it feeds the
/// tie key, making the ranking independent of chunk boundaries). The set
/// is found in `O(len)` by a sampled bound and a threshold select (see
/// the `topk` module); the frame encoder uses the same selector.
pub fn sparsify_top_k(chunk: &[f32], k: usize, seed: u64, chunk_start: usize) -> SparseChunk {
    with_top_k(chunk, k, seed, chunk_start, |indices, values| SparseChunk {
        range_len: chunk.len(),
        indices: indices.to_vec(),
        values: values.iter().map(|&bits| f32::from_bits(bits)).collect(),
    })
}

/// Applies the negotiated scheme to a whole gradient and returns the
/// values the PS will densify — the in-process reference the codec
/// and voter tests compare the wire against. Dense and Signs-free schemes:
/// for [`ChunkScheme::Dense`] this is the identity; for
/// [`ChunkScheme::TopK`] each chunk keeps its top-k (respecting the
/// dense fallback); for [`ChunkScheme::Signs`] coordinates collapse to
/// `{−1.0, 0.0, +1.0}`.
pub fn apply_scheme(gradient: &[f32], cfg: &ChunkConfig) -> Vec<f32> {
    match cfg.scheme {
        ChunkScheme::Dense => gradient.to_vec(),
        ChunkScheme::TopK(sp) => {
            let mut out = Vec::with_capacity(gradient.len());
            let span = cfg.span_len();
            for index in 0..num_chunks(gradient.len(), span) {
                let (start, len) = chunk_span(gradient.len(), span, index);
                let chunk = &gradient[start..start + len];
                if sp.keeps_dense(len) {
                    out.extend_from_slice(chunk);
                } else {
                    sparsify_top_k(chunk, sp.k, sp.seed, start).densify_into(&mut out);
                }
            }
            out
        }
        ChunkScheme::Signs => {
            let mut out = Vec::new();
            PackedSigns::pack(gradient).unpack_into(&mut out);
            out
        }
    }
}

/// Encodes chunk `chunk_index` of one `(worker, file)` replica under the
/// negotiated config, writing into `scratch` (cleared first). A top-k
/// chunk's kept indices and values go straight from the selector's
/// per-thread scratch into the frame.
///
/// The worker's send path passes a fresh `BytesMut` per chunk: a frame
/// handed to a [`Link`](crate::Link) never comes back. A caller that still
/// holds the only handle to an earlier frame may pass its allocation
/// back in (`BytesMut::try_from`).
///
/// # Panics
///
/// Panics if `chunk_index ≥ num_chunks(gradient.len(), cfg)` — chunk
/// geometry is caller-driven, not wire input.
pub fn encode_gradient_chunk_into(
    iteration: u64,
    worker: u32,
    file: u32,
    gradient: &[f32],
    chunk_index: usize,
    cfg: &ChunkConfig,
    mut scratch: BytesMut,
) -> Bytes {
    let span = cfg.span_len();
    let chunks = num_chunks(gradient.len(), span);
    assert!(
        chunk_index < chunks,
        "chunk index {chunk_index} out of {chunks}"
    );
    let (start, len) = chunk_span(gradient.len(), span, chunk_index);
    let range = &gradient[start..start + len];

    // Resolve the payload encoding (TopK may fall back to dense).
    let (encoding, payload_len) = match cfg.scheme {
        ChunkScheme::TopK(sp) if !sp.keeps_dense(len) => (ENC_SPARSE, 4 + 8 * sp.k.min(len)),
        ChunkScheme::Signs => (ENC_SIGNS, 2 * len.div_ceil(8)),
        _ => (ENC_DENSE, len * 4),
    };

    let body_len = CHUNK_PREFIX_LEN + payload_len;
    scratch.clear();
    scratch.reserve(FRAME_HEADER_LEN + body_len);
    scratch.extend_from_slice(&[0u8; FRAME_HEADER_LEN]); // sealed below
    scratch.put_u64_le(iteration);
    scratch.put_u32_le(worker);
    scratch.put_u32_le(file);
    scratch.put_u32_le(chunk_index as u32);
    scratch.put_u32_le(chunks as u32);
    scratch.put_u32_le(start as u32);
    scratch.put_u32_le(len as u32);
    scratch.put_u32_le(gradient.len() as u32);
    scratch.put_u8(encoding);
    match (cfg.scheme, encoding) {
        (ChunkScheme::TopK(sp), ENC_SPARSE) => {
            with_top_k(range, sp.k, sp.seed, start, |indices, values| {
                scratch.put_u32_le(indices.len() as u32);
                put_u32s_le(&mut scratch, indices);
                put_u32s_le(&mut scratch, values);
            });
        }
        (_, ENC_SIGNS) => {
            let packed = PackedSigns::pack(range);
            let (neg, zero) = packed.planes();
            scratch.extend_from_slice(neg);
            scratch.extend_from_slice(zero);
        }
        _ => put_f32s_le(&mut scratch, range),
    }
    debug_assert_eq!(scratch.len(), FRAME_HEADER_LEN + body_len);

    seal_in_place(KIND_GRADIENT_CHUNK, &mut scratch);
    scratch.freeze()
}

/// Encodes every chunk of one replica, each into a fresh allocation —
/// what the worker's send path does one chunk at a time with
/// [`encode_gradient_chunk_into`].
pub fn encode_gradient_chunks(
    iteration: u64,
    worker: u32,
    file: u32,
    gradient: &[f32],
    cfg: &ChunkConfig,
) -> Vec<Bytes> {
    (0..num_chunks(gradient.len(), cfg.span_len()))
        .map(|i| {
            encode_gradient_chunk_into(iteration, worker, file, gradient, i, cfg, BytesMut::new())
        })
        .collect()
}

/// The decoded payload of one chunk — zero-copy slices of the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ChunkPayload {
    Dense(Bytes),
    Sparse { indices: Bytes, values: Bytes },
    Signs { negative: Bytes, zero: Bytes },
}

/// A decoded gradient chunk: geometry fields plus a zero-copy payload
/// view. [`GradientChunkView::densify_into`] is the only place payload
/// bytes are copied, and it appends exactly `range_len` floats — the
/// `O(chunk)` decode bound the streaming PS relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientChunkView {
    /// Iteration the chunk belongs to.
    pub iteration: u64,
    /// Sender worker id.
    pub worker: u32,
    /// File index.
    pub file: u32,
    /// Which range of the replica this is.
    pub chunk_index: u32,
    /// Ranges the replica was cut into.
    pub num_chunks: u32,
    /// First coordinate of the range.
    pub start: u32,
    /// Coordinates in the range.
    pub range_len: u32,
    /// Full replica dimension `d`.
    pub total_len: u32,
    payload: ChunkPayload,
}

impl GradientChunkView {
    /// Appends the densified range (`range_len` floats) to `out`.
    /// Sparse chunks zero-fill then scatter; sign chunks synthesize
    /// `{−1.0, 0.0, +1.0}` from the bit planes.
    pub fn densify_into(&self, out: &mut Vec<f32>) {
        match &self.payload {
            ChunkPayload::Dense(raw) => extend_f32s_le(out, raw),
            _ => {
                let base = out.len();
                out.resize(base + self.range_len as usize, 0.0);
                self.densify_to(&mut out[base..]);
            }
        }
    }

    /// Writes the densified range over `out`, which must be exactly
    /// `range_len` floats — how a voter lands a chunk in place.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `range_len` floats long.
    pub fn densify_to(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.range_len as usize,
            "one float per coordinate"
        );
        match &self.payload {
            ChunkPayload::Dense(raw) => {
                for (o, w) in out.iter_mut().zip(raw.chunks_exact(4)) {
                    *o = f32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                }
            }
            ChunkPayload::Sparse { indices, values } => {
                out.fill(0.0);
                for (i, v) in indices.chunks_exact(4).zip(values.chunks_exact(4)) {
                    let idx = u32::from_le_bytes([i[0], i[1], i[2], i[3]]) as usize;
                    out[idx] = f32::from_le_bytes([v[0], v[1], v[2], v[3]]);
                }
            }
            ChunkPayload::Signs { negative, zero } => {
                const ONE_BITS: u32 = 1.0f32.to_bits();
                let planes = negative.iter().zip(zero.iter());
                for (lanes, (&neg, &zer)) in out.chunks_mut(8).zip(planes) {
                    for (bit, o) in lanes.iter_mut().enumerate() {
                        let z = u32::from(zer >> bit) & 1;
                        let n = u32::from(neg >> bit) & 1;
                        *o = f32::from_bits((ONE_BITS * (1 - z)) | ((n & (1 - z)) << 31));
                    }
                }
            }
        }
    }

    /// Whether the chunk densifies to exactly `resident`'s bits, read off
    /// the payload without densifying anything; `None` where the payload
    /// cannot tell (sign planes, or a dense payload on a big-endian host).
    /// A dense payload is `resident`'s bytes; a sparse one lists exactly
    /// `resident`'s coordinates that are not `+0.0`, whose count
    /// `nonzero` gives on demand.
    pub(crate) fn densifies_to(
        &self,
        resident: &[f32],
        nonzero: impl FnOnce() -> usize,
    ) -> Option<bool> {
        match &self.payload {
            ChunkPayload::Dense(raw) if cfg!(target_endian = "little") => {
                Some(float_bytes(resident) == &raw[..])
            }
            ChunkPayload::Sparse { indices, values } => {
                let mut listed_nonzero = 0;
                for (i, v) in indices.chunks_exact(4).zip(values.chunks_exact(4)) {
                    let at = u32::from_le_bytes([i[0], i[1], i[2], i[3]]) as usize;
                    let bits = u32::from_le_bytes([v[0], v[1], v[2], v[3]]);
                    if resident[at].to_bits() != bits {
                        return Some(false);
                    }
                    listed_nonzero += usize::from(bits != 0);
                }
                Some(listed_nonzero == nonzero())
            }
            _ => None,
        }
    }

    /// How many coordinates of the densified range are not `+0.0`, when
    /// the payload says so without a scan: a sparse chunk's.
    pub(crate) fn listed_nonzero(&self) -> Option<usize> {
        match &self.payload {
            ChunkPayload::Sparse { values, .. } => {
                Some(values.chunks_exact(4).filter(|v| v != &[0; 4]).count())
            }
            _ => None,
        }
    }

    /// For sign-encoded chunks, the range as a [`PackedSigns`] vector —
    /// the form [`packed_sign_majority`](crate::packed_sign_majority)
    /// tallies without unpacking to floats. `None` for other encodings.
    pub fn to_packed_signs(&self) -> Option<PackedSigns> {
        match &self.payload {
            ChunkPayload::Signs { negative, zero } => {
                PackedSigns::from_planes(self.range_len as usize, negative, zero)
            }
            _ => None,
        }
    }

    /// Payload bytes on the wire (excluding prefix and frame header).
    pub fn payload_wire_len(&self) -> usize {
        match &self.payload {
            ChunkPayload::Dense(raw) => raw.len(),
            ChunkPayload::Sparse { indices, values } => 4 + indices.len() + values.len(),
            ChunkPayload::Signs { negative, zero } => negative.len() + zero.len(),
        }
    }
}

/// Returns whether a frame is a gradient chunk, without decoding the
/// body (header + checksum are still verified by the full decode).
pub fn is_gradient_chunk(frame: &[u8]) -> bool {
    frame.len() > 4 && frame[4] == KIND_GRADIENT_CHUNK
}

/// Decodes a gradient-chunk frame into a zero-copy view.
///
/// # Errors
///
/// [`WireError`] on truncation, bad magic, checksum mismatch, a
/// non-chunk kind, or any internal inconsistency
/// ([`WireError::MalformedBody`]): zero/overflowing chunk counts, a
/// range outside `[0, total_len)`, an unknown encoding byte, payload
/// bytes disagreeing with the declared range, sparse counts exceeding
/// the range, non-strictly-increasing or out-of-range sparse indices,
/// or trailing bytes. Malformed input never panics — a forged chunk
/// degrades exactly like a dropped one.
pub fn decode_gradient_chunk(frame: &Bytes) -> Result<GradientChunkView, WireError> {
    let (kind, body) = check_frame(frame)?;
    if kind != KIND_GRADIENT_CHUNK {
        return Err(WireError::UnknownKind(kind));
    }
    let body_start = FRAME_HEADER_LEN;

    let mut reader = BodyReader::new(body);
    let iteration = reader.u64_le()?;
    let worker = reader.u32_le()?;
    let file = reader.u32_le()?;
    let chunk_index = reader.u32_le()?;
    let num_chunks = reader.u32_le()?;
    let start = reader.u32_le()?;
    let range_len = reader.u32_le()?;
    let total_len = reader.u32_le()?;
    let encoding = reader.take(1)?[0];

    if num_chunks == 0
        || chunk_index >= num_chunks
        || u64::from(start) + u64::from(range_len) > u64::from(total_len)
    {
        return Err(WireError::MalformedBody);
    }

    let len = range_len as usize;
    let payload_start = body_start + CHUNK_PREFIX_LEN;
    let payload = match encoding {
        ENC_DENSE => {
            let raw = reader.take(len * 4)?;
            debug_assert_eq!(raw.len(), len * 4);
            ChunkPayload::Dense(frame.slice(payload_start..payload_start + len * 4))
        }
        ENC_SPARSE => {
            let count = reader.u32_le()? as usize;
            if count > len {
                return Err(WireError::MalformedBody);
            }
            let idx_raw = reader.take(count * 4)?;
            reader.take(count * 4)?;
            // Indices must be strictly increasing and in range: checked
            // here, so densify can scatter without bounds surprises.
            let mut prev: i64 = -1;
            for c in idx_raw.chunks_exact(4) {
                let idx = i64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                if idx <= prev || idx >= len as i64 {
                    return Err(WireError::MalformedBody);
                }
                prev = idx;
            }
            ChunkPayload::Sparse {
                indices: frame.slice(payload_start + 4..payload_start + 4 + count * 4),
                values: frame.slice(payload_start + 4 + count * 4..payload_start + 4 + count * 8),
            }
        }
        ENC_SIGNS => {
            let plane = len.div_ceil(8);
            reader.take(2 * plane)?;
            ChunkPayload::Signs {
                negative: frame.slice(payload_start..payload_start + plane),
                zero: frame.slice(payload_start + plane..payload_start + 2 * plane),
            }
        }
        _ => return Err(WireError::MalformedBody),
    };
    if reader.remaining() != 0 {
        return Err(WireError::MalformedBody);
    }

    Ok(GradientChunkView {
        iteration,
        worker,
        file,
        chunk_index,
        num_chunks,
        start,
        range_len,
        total_len,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{tie_key, SAMPLE_STRIDE};
    use proptest::prelude::*;

    fn dense_cfg(chunk_len: usize) -> ChunkConfig {
        ChunkConfig::dense(chunk_len)
    }

    fn sparse_cfg(chunk_len: usize, k: usize, seed: u64) -> ChunkConfig {
        ChunkConfig {
            chunk_len,
            scheme: ChunkScheme::TopK(SparsifyConfig::top_k(k, seed)),
        }
    }

    fn densify_all(frames: &[Bytes]) -> Vec<f32> {
        let mut views: Vec<GradientChunkView> = frames
            .iter()
            .map(|f| decode_gradient_chunk(f).unwrap())
            .collect();
        views.sort_by_key(|v| v.chunk_index);
        let mut out = Vec::new();
        for v in &views {
            assert_eq!(v.start as usize, out.len());
            v.densify_into(&mut out);
        }
        assert_eq!(out.len(), views[0].total_len as usize);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(num_chunks(0, 4), 1);
        assert_eq!(num_chunks(1, 4), 1);
        assert_eq!(num_chunks(8, 4), 2);
        assert_eq!(num_chunks(9, 4), 3);
        assert_eq!(chunk_span(9, 4, 0), (0, 4));
        assert_eq!(chunk_span(9, 4, 2), (8, 1));
        assert_eq!(chunk_span(0, 4, 0), (0, 0));
        // chunk_len 0 is clamped, never a division by zero.
        assert_eq!(num_chunks(5, 0), 5);
    }

    #[test]
    fn dense_roundtrip_bitwise() {
        let g = vec![1.5f32, -0.0, f32::NAN, 3.0e-40, f32::INFINITY, -7.25, 0.1];
        let frames = encode_gradient_chunks(9, 4, 2, &g, &dense_cfg(3));
        assert_eq!(frames.len(), 3);
        for f in &frames {
            assert!(is_gradient_chunk(f));
            let v = decode_gradient_chunk(f).unwrap();
            assert_eq!((v.iteration, v.worker, v.file), (9, 4, 2));
            assert_eq!(v.num_chunks, 3);
            assert_eq!(v.total_len, 7);
        }
        assert_eq!(bits(&densify_all(&frames)), bits(&g));
    }

    #[test]
    fn empty_gradient_is_one_empty_chunk() {
        let frames = encode_gradient_chunks(1, 0, 0, &[], &dense_cfg(4096));
        assert_eq!(frames.len(), 1);
        let v = decode_gradient_chunk(&frames[0]).unwrap();
        assert_eq!((v.range_len, v.total_len, v.num_chunks), (0, 0, 1));
        assert_eq!(densify_all(&frames), Vec::<f32>::new());
    }

    #[test]
    fn sparse_roundtrip_matches_apply_scheme() {
        let g: Vec<f32> = (0..100)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.25)
            .collect();
        let cfg = sparse_cfg(32, 5, 0xFEED);
        let frames = encode_gradient_chunks(2, 1, 0, &g, &cfg);
        assert_eq!(frames.len(), 4);
        assert_eq!(bits(&densify_all(&frames)), bits(&apply_scheme(&g, &cfg)));
        // Sparse payloads are actually smaller than dense ones.
        let sparse_bytes: usize = frames.iter().map(Bytes::len).sum();
        let dense_bytes: usize = encode_gradient_chunks(2, 1, 0, &g, &dense_cfg(32))
            .iter()
            .map(Bytes::len)
            .sum();
        assert!(sparse_bytes < dense_bytes);
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let chunk = [0.1f32, -9.0, 0.0, 4.0, -0.2, 8.5];
        let sp = sparsify_top_k(&chunk, 3, 7, 0);
        assert_eq!(sp.indices, vec![1, 3, 5]);
        assert_eq!(sp.values, vec![-9.0, 4.0, 8.5]);
        let mut dense = Vec::new();
        sp.densify_into(&mut dense);
        assert_eq!(dense, vec![0.0, -9.0, 0.0, 4.0, 0.0, 8.5]);
        // k ≥ len keeps everything; k = 0 keeps nothing.
        assert_eq!(sparsify_top_k(&chunk, 9, 7, 0).indices.len(), 6);
        assert_eq!(sparsify_top_k(&chunk, 0, 7, 0).indices.len(), 0);
    }

    #[test]
    fn equal_magnitude_ties_break_by_seed_not_position() {
        // Four coordinates of equal magnitude: the kept pair is the two
        // smallest tie keys of the global indices 64..68. Seed 123 keeps
        // the last two positions, seed 2 the first two, so neither a
        // position order nor a seed-blind order passes both.
        let chunk = [2.0f32, -2.0, 2.0, 2.0];
        let by_tie_key = |seed: u64| {
            let mut order: Vec<u32> = (0..4).collect();
            order.sort_by_key(|&i| tie_key(seed, 64 + u64::from(i)));
            let mut pair = order[..2].to_vec();
            pair.sort_unstable();
            pair
        };
        for (seed, pair) in [(123u64, [2u32, 3]), (2, [0, 1])] {
            assert_eq!(by_tie_key(seed), pair, "seed {seed}");
            let kept = sparsify_top_k(&chunk, 2, seed, 64);
            assert_eq!(kept.indices, pair, "seed {seed}");
            assert_eq!(
                bits(&kept.values),
                bits(&[chunk[pair[0] as usize], chunk[pair[1] as usize]])
            );
        }
    }

    /// The comparison-order selector [`sparsify_top_k`] replaced, kept as
    /// its oracle: a `select_nth` over `(!magnitude, tie key, index)` —
    /// the order's definition, hashed on every comparison — then a sort
    /// of the kept set.
    fn reference_top_k(chunk: &[f32], k: usize, seed: u64, chunk_start: usize) -> SparseChunk {
        let len = chunk.len();
        let rank = |i: &u32| {
            let i = *i;
            let mag = chunk[i as usize].to_bits() & 0x7fff_ffff;
            (!mag, tie_key(seed, (chunk_start + i as usize) as u64), i)
        };
        let mut order: Vec<u32> = (0..len as u32).collect();
        let kept: &mut [u32] = if k >= len {
            &mut order
        } else if k == 0 {
            &mut []
        } else {
            let (head, _, _) = order.select_nth_unstable_by_key(k, rank);
            head
        };
        kept.sort_unstable();
        SparseChunk {
            range_len: len,
            values: kept.iter().map(|&i| chunk[i as usize]).collect(),
            indices: kept.to_vec(),
        }
    }

    fn assert_top_k_is_reference(chunk: &[f32], k: usize, seed: u64, start: usize) {
        let got = sparsify_top_k(chunk, k, seed, start);
        let want = reference_top_k(chunk, k, seed, start);
        let case = format!("len {} k {k} seed {seed} start {start}", chunk.len());
        assert_eq!(got.range_len, want.range_len, "{case}");
        assert_eq!(got.indices, want.indices, "{case}");
        assert_eq!(bits(&got.values), bits(&want.values), "{case}");
    }

    /// The oracle's value families.
    const FAMILIES: usize = 5;

    /// `len` values of one family: 0 arbitrary bit patterns (NaN
    /// payloads, ±∞ and subnormals salted in), 1 a ±0 mix, 2 all zero,
    /// 3 few distinct magnitudes, 4 gradient-like (half exact zeros).
    fn family_chunk(family: usize, len: usize, seed: u64) -> Vec<f32> {
        const SPECIAL: [u32; 8] = [
            0x7fc0_0000, // quiet NaN
            0xffc0_0001, // negative NaN, payload 1
            0x7f80_0001, // signalling NaN
            0x7f80_0000, // +∞
            0xff80_0000, // −∞
            0x0000_0001, // smallest subnormal
            0x8040_0000, // negative subnormal
            0x8000_0000, // −0
        ];
        (0..len as u64)
            .map(|i| {
                let r = tie_key(seed, i);
                let pick = |n: u64| (r >> 40) as usize % n as usize;
                match family {
                    0 if r.is_multiple_of(16) => f32::from_bits(SPECIAL[pick(8)]),
                    0 => f32::from_bits(r as u32),
                    1 => [0.0, -0.0, 0.75, -0.75][pick(4)],
                    2 => 0.0,
                    3 => [1.0, -1.0, 2.0, -2.0, 0.5, f32::NAN][pick(6)],
                    _ if r.is_multiple_of(2) => 0.0,
                    _ => (r >> 32) as i32 as f32 * 1e-12,
                }
            })
            .collect()
    }

    /// The `k`s the oracle checks at length `len`.
    fn oracle_ks(len: usize) -> [usize; 7] {
        [
            0,
            1,
            len / 10,
            (len / 2).saturating_sub(1),
            len.saturating_sub(1),
            len,
            len + 3,
        ]
    }

    #[test]
    fn top_k_matches_the_reference_at_the_edge_lengths() {
        for len in [0usize, 1, 2, 15, 16, 17, 4095, 4096, 4097] {
            for family in 0..FAMILIES {
                for k in oracle_ks(len) {
                    for seed in [0u64, 0xB12] {
                        let chunk = family_chunk(family, len, seed ^ len as u64);
                        assert_top_k_is_reference(&chunk, k, seed, 8192);
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_falls_back_when_the_sampled_bound_admits_too_few() {
        // The sampled coordinates are large, the rest tiny: whichever
        // sampled magnitude the bound is, it admits at most the 241
        // sampled coordinates, not 410.
        let chunk: Vec<f32> = (0..4096)
            .map(|i| {
                if i % SAMPLE_STRIDE == 0 {
                    1000.0 + i as f32
                } else {
                    i as f32 * 1e-3
                }
            })
            .collect();
        let least_sampled = chunk
            .iter()
            .step_by(SAMPLE_STRIDE)
            .fold(f32::INFINITY, |m, &v| m.min(v));
        assert!(chunk.iter().filter(|&&v| v >= least_sampled).count() < 410);
        assert_top_k_is_reference(&chunk, 410, 9, 4096);
    }

    #[test]
    fn top_k_frames_of_real_gradients_match_the_reference_bytes() {
        // The sparse workload's geometry: FastMlp 1024×256×10, one
        // sample per replica, 4096-float chunks keeping 410.
        use byz_data::{SyntheticConfig, SyntheticImages};
        use byz_nn::FastMlp;
        use rand::SeedableRng;
        let (data, _) = SyntheticImages::new(SyntheticConfig {
            num_classes: 10,
            channels: 1,
            hw: 32,
            train_samples: 3,
            test_samples: 1,
            noise: 0.4,
            max_shift: 1,
            seed: 11,
        })
        .generate();
        let model = FastMlp::new(&[1024, 256, 10], &mut rand::rngs::StdRng::seed_from_u64(5));
        let (chunk_len, k, seed) = (4096, 410, 0x5EED);
        let cfg = sparse_cfg(chunk_len, k, seed);
        let mut g = vec![0.0f32; model.num_params()];
        let chunks = num_chunks(g.len(), chunk_len);
        for sample in 0..3u32 {
            let (x, labels) = data.gather(&[sample as usize]);
            model.gradient_sum_into(&x, 1, &labels, &mut g);
            // ReLU-masked rows: a large share of exact zeros.
            assert!(g.iter().filter(|&&v| v == 0.0).count() * 4 > g.len());
            let frames = encode_gradient_chunks(4, 2, sample, &g, &cfg);
            assert_eq!(frames.len(), chunks);
            for (index, frame) in frames.iter().enumerate() {
                let (start, len) = chunk_span(g.len(), chunk_len, index);
                let want = reference_top_k(&g[start..start + len], k, seed, start);
                let mut body = BytesMut::new();
                body.put_u64_le(4);
                body.put_u32_le(2);
                body.put_u32_le(sample);
                body.put_u32_le(index as u32);
                body.put_u32_le(chunks as u32);
                body.put_u32_le(start as u32);
                body.put_u32_le(len as u32);
                body.put_u32_le(g.len() as u32);
                body.put_u8(ENC_SPARSE);
                body.put_u32_le(want.indices.len() as u32);
                put_u32s_le(&mut body, &want.indices);
                put_f32s_le(&mut body, &want.values);
                let want = crate::message::seal_frame(KIND_GRADIENT_CHUNK, body);
                assert_eq!(frame, &want, "sample {sample} chunk {index}");
            }
        }
    }

    #[test]
    fn dense_fallback_when_k_too_large() {
        let g: Vec<f32> = (0..16).map(|i| i as f32).collect();
        // k = 8 of chunk 16 hits the 0.5 threshold → dense frames.
        let cfg = sparse_cfg(16, 8, 1);
        let frames = encode_gradient_chunks(0, 0, 0, &g, &cfg);
        let v = decode_gradient_chunk(&frames[0]).unwrap();
        assert_eq!(v.payload_wire_len(), 16 * 4);
        assert_eq!(bits(&densify_all(&frames)), bits(&g));
        assert_eq!(bits(&apply_scheme(&g, &cfg)), bits(&g));
    }

    #[test]
    fn signs_roundtrip_matches_packed_unpack() {
        let g = vec![1.5f32, -0.25, 0.0, -0.0, 7.0, -1e-20, f32::NAN, 3.0, -4.0];
        let cfg = ChunkConfig {
            chunk_len: 4,
            scheme: ChunkScheme::Signs,
        };
        let frames = encode_gradient_chunks(3, 2, 1, &g, &cfg);
        assert_eq!(frames.len(), 3);
        assert_eq!(densify_all(&frames), PackedSigns::pack(&g).unpack());
        assert_eq!(apply_scheme(&g, &cfg), PackedSigns::pack(&g).unpack());
        // And the packed view feeds the fast majority tally directly.
        let v = decode_gradient_chunk(&frames[0]).unwrap();
        let packed = v.to_packed_signs().unwrap();
        assert_eq!(packed.unpack(), PackedSigns::pack(&g[..4]).unpack());
    }

    #[test]
    fn forged_geometry_rejected() {
        use crate::message::{seal_frame, KIND_GRADIENT_CHUNK};
        // Build chunk bodies by hand with inconsistent fields.
        let forge = |mutate: &dyn Fn(&mut BytesMut)| {
            let mut body = BytesMut::new();
            body.put_u64_le(1); // iteration
            body.put_u32_le(0); // worker
            body.put_u32_le(0); // file
            body.put_u32_le(0); // chunk_index
            body.put_u32_le(1); // num_chunks
            body.put_u32_le(0); // start
            body.put_u32_le(2); // range_len
            body.put_u32_le(2); // total_len
            body.put_u8(ENC_DENSE);
            put_f32s_le(&mut body, &[1.0, 2.0]);
            mutate(&mut body);
            seal_frame(KIND_GRADIENT_CHUNK, body)
        };
        assert!(decode_gradient_chunk(&forge(&|_| {})).is_ok());
        // Body offsets: iteration 0..8, worker 8..12, file 12..16,
        // chunk_index 16..20, num_chunks 20..24, start 24..28,
        // range_len 28..32, total_len 32..36, encoding 36.
        // chunk_index ≥ num_chunks
        assert_eq!(
            decode_gradient_chunk(&forge(&|b| b[16..20].copy_from_slice(&9u32.to_le_bytes())))
                .unwrap_err(),
            WireError::MalformedBody
        );
        // num_chunks = 0
        assert_eq!(
            decode_gradient_chunk(&forge(&|b| b[20..24].copy_from_slice(&0u32.to_le_bytes())))
                .unwrap_err(),
            WireError::MalformedBody
        );
        // start + range_len > total_len
        assert_eq!(
            decode_gradient_chunk(&forge(&|b| b[24..28].copy_from_slice(&7u32.to_le_bytes())))
                .unwrap_err(),
            WireError::MalformedBody
        );
        // unknown encoding byte
        assert_eq!(
            decode_gradient_chunk(&forge(&|b| b[36] = 9)).unwrap_err(),
            WireError::MalformedBody
        );
        // oversized range_len: payload shorter than declared
        assert_eq!(
            decode_gradient_chunk(&forge(&|b| {
                b[28..32].copy_from_slice(&1000u32.to_le_bytes());
                b[32..36].copy_from_slice(&1000u32.to_le_bytes());
            }))
            .unwrap_err(),
            WireError::MalformedBody
        );
    }

    #[test]
    fn forged_sparse_indices_rejected() {
        use crate::message::{seal_frame, KIND_GRADIENT_CHUNK};
        let forge = |indices: &[u32], count: u32, range_len: u32| {
            let mut body = BytesMut::new();
            body.put_u64_le(1);
            body.put_u32_le(0);
            body.put_u32_le(0);
            body.put_u32_le(0);
            body.put_u32_le(1);
            body.put_u32_le(0);
            body.put_u32_le(range_len);
            body.put_u32_le(range_len);
            body.put_u8(ENC_SPARSE);
            body.put_u32_le(count);
            for &i in indices {
                body.put_u32_le(i);
            }
            put_f32s_le(&mut body, &vec![1.0f32; indices.len()]);
            seal_frame(KIND_GRADIENT_CHUNK, body)
        };
        assert!(decode_gradient_chunk(&forge(&[0, 3], 2, 8)).is_ok());
        // Out-of-range index.
        assert_eq!(
            decode_gradient_chunk(&forge(&[0, 8], 2, 8)).unwrap_err(),
            WireError::MalformedBody
        );
        // Non-increasing (duplicate) indices.
        assert_eq!(
            decode_gradient_chunk(&forge(&[3, 3], 2, 8)).unwrap_err(),
            WireError::MalformedBody
        );
        // Decreasing indices.
        assert_eq!(
            decode_gradient_chunk(&forge(&[5, 2], 2, 8)).unwrap_err(),
            WireError::MalformedBody
        );
        // Count exceeding the range.
        assert_eq!(
            decode_gradient_chunk(&forge(&[0, 1, 2], 3, 2)).unwrap_err(),
            WireError::MalformedBody
        );
        // Count claiming more entries than the body holds.
        assert_eq!(
            decode_gradient_chunk(&forge(&[0, 3], 1000, 2000)).unwrap_err(),
            WireError::MalformedBody
        );
    }

    #[test]
    fn recycled_scratch_reuses_the_allocation() {
        let g = vec![1.0f32; 512];
        let cfg = dense_cfg(512);
        let frame = encode_gradient_chunk_into(1, 0, 0, &g, 0, &cfg, BytesMut::new());
        let base = frame.as_ref().as_ptr() as usize;
        let scratch = BytesMut::try_from(frame).expect("sole handle recovers");
        let next = encode_gradient_chunk_into(2, 0, 0, &g, 0, &cfg, scratch);
        assert_eq!(next.as_ref().as_ptr() as usize, base, "allocation reused");
        assert_eq!(decode_gradient_chunk(&next).unwrap().iteration, 2);
    }

    #[test]
    fn top_k_replica_is_at_least_four_times_smaller_than_its_batched_entry() {
        // The benchmark's `straggler_sparse_bounded` geometry: d = 264 970
        // in 4096-float chunks keeping the top 410 of each. Frame headers
        // and index words included, one replica's chunk frames must stay
        // under a quarter of its dense batch entry (header + 4·d bytes).
        let d = 264_970;
        let g: Vec<f32> = (0..d).map(|i| (i as f32 * 0.618).sin()).collect();
        let sparse: usize = encode_gradient_chunks(3, 1, 2, &g, &sparse_cfg(4096, 410, 0xB12))
            .iter()
            .map(Bytes::len)
            .sum();
        let batch_len =
            |entries: &[(u32, &[f32])]| crate::encode_gradient_batch(3, 1, entries).len();
        let dense_entry = batch_len(&[(2, &g)]) - batch_len(&[]);
        assert_eq!(dense_entry, 8 + 4 * d);
        assert!(
            sparse * 4 <= dense_entry,
            "sparse {sparse} B x 4 > dense entry {dense_entry} B"
        );
    }

    proptest! {
        /// Dense chunking roundtrips bit-exactly at arbitrary (d, chunk),
        /// including NaN payloads and chunk lengths larger than d.
        #[test]
        fn dense_roundtrip_any_geometry(
            g in proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..200),
            chunk_len in 1usize..64,
        ) {
            let frames = encode_gradient_chunks(1, 2, 3, &g, &dense_cfg(chunk_len));
            prop_assert_eq!(frames.len(), num_chunks(g.len(), chunk_len));
            prop_assert_eq!(bits(&densify_all(&frames)), bits(&g));
        }

        /// Sparsified chunking densifies to exactly `apply_scheme`'s
        /// reference at arbitrary (d, chunk, k) — the wire is a faithful
        /// transport of the sparsifier, whatever the geometry.
        #[test]
        fn sparse_roundtrip_any_geometry(
            g in proptest::collection::vec(-1e6f32..1e6, 0..200),
            chunk_len in 1usize..64,
            k in 0usize..32,
            seed in 0u64..1000,
        ) {
            let cfg = sparse_cfg(chunk_len, k, seed);
            let frames = encode_gradient_chunks(1, 2, 3, &g, &cfg);
            prop_assert_eq!(bits(&densify_all(&frames)), bits(&apply_scheme(&g, &cfg)));
        }

        /// Honest determinism: two independent encodes of the same
        /// gradient produce byte-identical frames — the property that
        /// keeps exact-equality voting sound under sparsification.
        #[test]
        fn sparsified_replicas_stay_bit_identical(
            g in proptest::collection::vec(-1e3f32..1e3, 1..120),
            chunk_len in 1usize..48,
            k in 0usize..16,
            seed in 0u64..1000,
        ) {
            let cfg = sparse_cfg(chunk_len, k, seed);
            let a = encode_gradient_chunks(5, 0, 7, &g, &cfg);
            let b = encode_gradient_chunks(5, 0, 7, &g, &cfg);
            prop_assert_eq!(a, b);
        }

        /// The threshold select keeps exactly the oracle's set, indices
        /// and value bits, at any length up to 5000 and every family.
        #[test]
        fn top_k_matches_the_reference_at_any_length(
            len in 0usize..=5000,
            family in 0usize..FAMILIES,
            which_k in 0usize..7,
            seed in any::<u64>(),
            start in 0usize..1_000_000,
        ) {
            let chunk = family_chunk(family, len, seed.rotate_left(17));
            assert_top_k_is_reference(&chunk, oracle_ks(len)[which_k], seed, start);
        }

        /// Every strict prefix and every single-byte corruption of a
        /// valid chunk frame decodes to a typed error, never a panic.
        #[test]
        fn corruption_degrades_not_panics(
            g in proptest::collection::vec(-1e3f32..1e3, 1..64),
            chunk_len in 1usize..32,
            pos_seed in 0usize..10_000,
            flip in 1u8..=255,
        ) {
            let frames = encode_gradient_chunks(1, 0, 0, &g, &dense_cfg(chunk_len));
            let frame = &frames[pos_seed % frames.len()];
            let cut = pos_seed % frame.len();
            prop_assert!(decode_gradient_chunk(&frame.slice(0..cut)).is_err());
            let mut corrupted = BytesMut::from_bytes(frame);
            corrupted[cut] ^= flip;
            prop_assert!(decode_gradient_chunk(&corrupted.freeze()).is_err());
        }
    }
}
