//! Property tests for the length-delimited TCP codec.
//!
//! A socket hands the decoder arbitrary slices of the byte stream —
//! 1-byte drips, coalesced multi-frame reads, cuts inside the length
//! prefix, cuts inside the payload. Whatever the segmentation, the
//! decoder must reassemble exactly the frames that were written; and on
//! hostile input (trailing garbage, random bytes) it must surface a
//! typed [`CodecError`] or keep waiting for more bytes — never panic,
//! never silently desynchronize ahead of the real frame boundary.
//!
//! Read through [`StreamDecoder::read_from`], the bytes land in the
//! decoder's own blocks: the block-reader properties below watch where
//! each read lands to check which frames come out as slices of a block
//! and how much of a block such slices pin.

use bytes::{Bytes, BytesMut};
use byz_wire::{
    decode_gradient_batch, encode_gradient_batch, encode_gradient_chunk_into, is_gradient_batch,
    num_chunks, write_frame, ChunkConfig, ChunkScheme, CodecError, Message, SparsifyConfig,
    StreamDecoder, LENGTH_PREFIX_LEN, READ_BLOCK_LEN,
};
use proptest::prelude::*;
use std::io::Read;

/// `len` seeded gradient values in (−1e3, 1e3), with repeats so top-k
/// sees ties.
fn seeded_gradient(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) % 2001) as f32 - 1000.0
        })
        .collect()
}

/// One chunk frame of a seeded replica: dense, top-k sparse (or its
/// dense fallback) or sign bits.
fn chunk_frame(max_len: usize) -> impl Strategy<Value = Bytes> {
    (any::<u64>(), 1usize..max_len, 1usize..max_len, 0u8..3).prop_map(
        |(seed, d, chunk_len, scheme)| {
            let gradient = seeded_gradient(seed, d);
            let scheme = match scheme {
                0 => ChunkScheme::Dense,
                1 => ChunkScheme::TopK(SparsifyConfig::top_k(chunk_len / 8 + 1, seed)),
                _ => ChunkScheme::Signs,
            };
            let cfg = ChunkConfig { chunk_len, scheme };
            let index = (seed >> 7) as usize % num_chunks(d, chunk_len);
            let worker = (seed >> 32) as u32;
            encode_gradient_chunk_into(seed, worker, 3, &gradient, index, &cfg, BytesMut::new())
        },
    )
}

fn arbitrary_frame() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(-1e3f32..1e3, 0..48),
        )
            .prop_map(|(iteration, worker, file, gradient)| {
                encode_gradient_batch(iteration, worker, &[(file, gradient.as_slice())])
            }),
        (
            any::<u64>(),
            prop::collection::vec(-1e3f32..1e3, 0..48),
            prop::collection::vec(prop::collection::vec(any::<u32>(), 0..4), 0..4),
        )
            .prop_map(|(iteration, params, files)| {
                Message::ModelBroadcast {
                    iteration,
                    params,
                    files,
                }
                .encode()
            }),
        Just(Message::Shutdown.encode()),
        chunk_frame(96),
    ]
}

fn arbitrary_frames() -> impl Strategy<Value = Vec<Bytes>> {
    prop::collection::vec(arbitrary_frame(), 0..8)
}

fn stream_of(frames: &[Bytes]) -> Vec<u8> {
    let mut stream = Vec::new();
    for frame in frames {
        write_frame(&mut stream, frame).expect("Vec<u8> write cannot fail");
    }
    stream
}

/// Drains every currently decodable frame into `out`.
fn drain(decoder: &mut StreamDecoder, out: &mut Vec<Bytes>) -> Result<(), CodecError> {
    while let Some(frame) = decoder.next_frame()? {
        out.push(frame);
    }
    Ok(())
}

proptest! {
    // The acceptance bar for this suite is 1k+ cases on the central
    // reassembly property.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any segmentation of the byte stream — cuts anywhere, including
    /// mid-prefix and mid-payload, and a single coalesced write as the
    /// degenerate no-cut case — reassembles the exact frame sequence.
    #[test]
    fn reassembles_under_any_segmentation(
        frames in arbitrary_frames(),
        cuts in prop::collection::vec(any::<usize>(), 0..48),
    ) {
        let stream = stream_of(&frames);
        let mut points: Vec<usize> = cuts.iter().map(|i| i % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.push(stream.len());

        let mut decoder = StreamDecoder::new();
        let mut out = Vec::new();
        let mut prev = 0;
        for point in points {
            decoder.feed(&stream[prev..point]);
            prev = point;
            drain(&mut decoder, &mut out).expect("clean stream must decode");
        }
        prop_assert_eq!(decoder.close(), Ok(()), "clean stream ended mid-frame?");
        prop_assert_eq!(out.len(), frames.len());
        for (got, want) in out.iter().zip(&frames) {
            prop_assert_eq!(got.as_ref(), want.as_ref());
        }
    }

    /// Whatever the segmentation, every batch frame comes out of the
    /// decoder with its payloads 4-aligned, so the PS votes them in
    /// place.
    #[test]
    fn batch_payloads_come_out_aligned_under_any_segmentation(
        frames in arbitrary_frames(),
        cuts in prop::collection::vec(any::<usize>(), 0..48),
    ) {
        let stream = stream_of(&frames);
        let mut points: Vec<usize> = cuts.iter().map(|i| i % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.push(stream.len());

        let mut decoder = StreamDecoder::new();
        let mut out = Vec::new();
        let mut prev = 0;
        for point in points {
            decoder.feed(&stream[prev..point]);
            prev = point;
            drain(&mut decoder, &mut out).expect("clean stream must decode");
        }
        for frame in out.iter().filter(|frame| is_gradient_batch(frame)) {
            let batch = decode_gradient_batch(frame).expect("a written batch frame decodes");
            for entry in &batch.entries {
                prop_assert!(entry.raw().as_ptr().cast::<f32>().is_aligned());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pathological socket: one byte per read.
    #[test]
    fn reassembles_one_byte_reads(frames in arbitrary_frames()) {
        let stream = stream_of(&frames);
        let mut decoder = StreamDecoder::new();
        let mut out = Vec::new();
        for byte in &stream {
            decoder.feed(std::slice::from_ref(byte));
            drain(&mut decoder, &mut out).expect("clean stream must decode");
        }
        prop_assert_eq!(decoder.close(), Ok(()));
        prop_assert_eq!(out.len(), frames.len());
        for (got, want) in out.iter().zip(&frames) {
            prop_assert_eq!(got.as_ref(), want.as_ref());
        }
    }

    /// Garbage after a clean prefix: every real frame is still delivered
    /// intact, and the garbage tail resolves to "need more bytes", a
    /// typed error, or a truncated close — never a panic, never a
    /// mangled real frame.
    #[test]
    fn trailing_garbage_is_contained(
        frames in arbitrary_frames(),
        garbage in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        let mut stream = stream_of(&frames);
        stream.extend_from_slice(&garbage);

        let mut decoder = StreamDecoder::new();
        decoder.feed(&stream);
        let mut out = Vec::new();
        let tail_error = drain(&mut decoder, &mut out).err();
        prop_assert!(
            out.len() >= frames.len(),
            "garbage tail swallowed {} real frame(s)",
            frames.len() - out.len()
        );
        for (got, want) in out.iter().take(frames.len()).zip(&frames) {
            prop_assert_eq!(got.as_ref(), want.as_ref(), "real frame mangled by garbage tail");
        }
        if tail_error.is_none() {
            // The tail parsed as an (incomplete) frame prefix; EOF must
            // then report the truncation rather than pass it off as clean
            // — unless the garbage happened to parse fully.
            let _ = decoder.close();
        }
    }

    /// Pure noise, arbitrarily chunked: the decoder yields errors or
    /// waits for more, and never panics.
    #[test]
    fn random_bytes_never_panic(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..16),
    ) {
        let mut decoder = StreamDecoder::new();
        let mut dead = false;
        'feed: for chunk in &chunks {
            decoder.feed(chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break 'feed;
                    }
                }
            }
        }
        // Close after whatever happened — still must not panic.
        let _ = decoder.close();
        let _ = dead;
    }
}

/// Where one read landed: stream bytes `[at, at + len)` were written to
/// `addr..addr + len`, inside the block that ends at `block_end`.
struct Landing {
    at: usize,
    len: usize,
    addr: usize,
    block_end: usize,
}

/// A socket stand-in: serves `stream` in reads of the scripted sizes
/// (cycled, and never past what the decoder offers) and records where
/// each read landed.
struct Segmented<'a> {
    stream: &'a [u8],
    sizes: &'a [usize],
    at: usize,
    landings: Vec<Landing>,
}

impl Read for Segmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.landings.len() % self.sizes.len()];
        let len = size.min(buf.len()).min(self.stream.len() - self.at);
        buf[..len].copy_from_slice(&self.stream[self.at..self.at + len]);
        if len > 0 {
            self.landings.push(Landing {
                at: self.at,
                len,
                addr: buf.as_ptr() as usize,
                block_end: buf.as_ptr() as usize + buf.len(),
            });
        }
        self.at += len;
        Ok(len)
    }
}

impl Segmented<'_> {
    /// The read that delivered stream byte `offset`.
    fn landing(&self, offset: usize) -> &Landing {
        let i = self.landings.partition_point(|l| l.at + l.len <= offset);
        &self.landings[i]
    }

    /// Where stream byte `offset` landed.
    fn addr(&self, offset: usize) -> usize {
        let landing = self.landing(offset);
        landing.addr + (offset - landing.at)
    }
}

/// Reads `stream` through the block reader, draining after every read
/// as a socket link does. Returns the frames, each with the index of the
/// read that completed it, and the reader's record.
fn read_blocks<'a>(stream: &'a [u8], sizes: &'a [usize]) -> (Vec<(Bytes, usize)>, Segmented<'a>) {
    let mut reader = Segmented {
        stream,
        sizes,
        at: 0,
        landings: Vec::new(),
    };
    let mut decoder = StreamDecoder::new();
    let mut out = Vec::new();
    while decoder
        .read_from(&mut reader)
        .expect("the stub never fails")
        > 0
    {
        while let Some(frame) = decoder.next_frame().expect("clean stream must decode") {
            out.push((frame, reader.landings.len() - 1));
        }
    }
    assert_eq!(decoder.close(), Ok(()), "clean stream ended mid-frame?");
    (out, reader)
}

/// Asserts the pin bound: in every block, the frames held as slices of
/// it fill at least half of it.
fn assert_pin_bound(frames: &[(Bytes, usize)], ends: &[usize], reader: &Segmented<'_>) {
    let mut sliced: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for ((frame, _), &end) in frames.iter().zip(ends) {
        let last = frame.as_ptr() as usize + frame.len() - 1;
        if last == reader.addr(end - 1) {
            *sliced.entry(reader.landing(end - 1).block_end).or_default() += frame.len();
        }
    }
    for (block, bytes) in sliced {
        assert!(
            2 * bytes >= READ_BLOCK_LEN,
            "block ending at {block:#x} pinned by {bytes} bytes of frames"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The block reader under arbitrary read sizes, frames straddling
    /// blocks: exact frames, 4-aligned batch payloads, zero-copy slices
    /// for frames that arrived inside one block alongside at least half
    /// a block of frames, and no block pinned by less than half its size.
    #[test]
    fn block_reader_cuts_exact_aligned_slices(
        frames in prop::collection::vec(prop_oneof![arbitrary_frame(), chunk_frame(8192)], 0..160),
        sizes in prop::collection::vec(
            prop_oneof![1usize..64, 1usize..8192, 1usize..2 * READ_BLOCK_LEN],
            1..24,
        ),
    ) {
        let stream = stream_of(&frames);
        let (out, reader) = read_blocks(&stream, &sizes);
        prop_assert_eq!(out.len(), frames.len());
        // Stream offsets where each frame (after its prefix) ends.
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |at, frame| {
                *at += LENGTH_PREFIX_LEN + frame.len();
                Some(*at)
            })
            .collect();
        // Bytes of non-batch frames each read completed.
        let mut completed = vec![0usize; reader.landings.len()];
        for (frame, read) in &out {
            if !is_gradient_batch(frame) {
                completed[*read] += frame.len();
            }
        }
        for (((got, read), want), &end) in out.iter().zip(&frames).zip(&ends) {
            prop_assert_eq!(got.as_ref(), want.as_ref());
            if is_gradient_batch(got) {
                let batch = decode_gradient_batch(got).expect("a written batch frame decodes");
                for entry in &batch.entries {
                    prop_assert!(entry.raw().as_ptr().cast::<f32>().is_aligned());
                }
                continue;
            }
            let start = end - want.len() - LENGTH_PREFIX_LEN;
            let arrived_in_one_block = reader.landing(start).block_end
                == reader.landing(end - 1).block_end
                && reader.addr(end - 1).checked_sub(reader.addr(start)) == Some(end - 1 - start);
            if arrived_in_one_block && 2 * completed[*read] >= READ_BLOCK_LEN {
                prop_assert_eq!(
                    got.as_ptr() as usize + got.len() - 1,
                    reader.addr(end - 1),
                    "frame copied out of a block it filled with its neighbours"
                );
            }
        }
        assert_pin_bound(&out, &ends, &reader);
    }
}

/// A stream of 21-byte frames, one per read, held as they come out: no
/// block may be pinned by less than half its size — so tiny frames in
/// nearly empty blocks leave as copies.
#[test]
fn tiny_frames_never_pin_a_block() {
    // A shutdown frame with four trailing bytes: 21 bytes, valid magic.
    let mut tiny = Message::Shutdown.encode().to_vec();
    tiny.extend_from_slice(&[1, 2, 3, 4]);
    assert_eq!(tiny.len(), 21);
    let frames = vec![Bytes::from(tiny); 3 * READ_BLOCK_LEN / 25];
    let stream = stream_of(&frames);
    let (out, reader) = read_blocks(&stream, &[LENGTH_PREFIX_LEN + 21]);
    assert_eq!(out.len(), frames.len());
    assert_eq!(reader.landings.len(), frames.len(), "one frame per read");
    let ends: Vec<usize> = (1..=frames.len()).map(|i| i * 25).collect();
    for ((got, _), want) in out.iter().zip(&frames) {
        assert_eq!(got, want);
    }
    assert_pin_bound(&out, &ends, &reader);
}

/// The error taxonomy is part of the public contract: a peer speaking a
/// different protocol produces a *typed* desync, not a hang or a panic.
#[test]
fn desync_errors_are_typed() {
    // Length prefix claiming more than the frame ceiling.
    let mut decoder = StreamDecoder::new();
    decoder.feed(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decoder.next_frame(),
        Err(CodecError::FrameTooLarge { .. })
    ));

    // Length prefix too small to hold a frame header.
    let mut decoder = StreamDecoder::new();
    decoder.feed(&3u32.to_le_bytes());
    assert!(matches!(
        decoder.next_frame(),
        Err(CodecError::FrameTooShort { declared: 3 })
    ));

    // Plausible length, wrong magic — an HTTP client, say.
    let mut decoder = StreamDecoder::new();
    decoder.feed(&64u32.to_le_bytes());
    decoder.feed(b"GET / HTTP/1.1\r\n");
    assert!(matches!(
        decoder.next_frame(),
        Err(CodecError::BadFrameMagic(_))
    ));

    // A stream that ends mid-frame reports how much was left hanging.
    let mut decoder = StreamDecoder::new();
    let frame = Message::Shutdown.encode();
    let mut stream = Vec::new();
    write_frame(&mut stream, &frame).unwrap();
    decoder.feed(&stream[..stream.len() - 1]);
    assert_eq!(decoder.next_frame(), Ok(None));
    assert!(matches!(
        decoder.close(),
        Err(CodecError::TruncatedStream { .. })
    ));
}
