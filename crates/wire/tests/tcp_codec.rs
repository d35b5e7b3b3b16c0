//! Property tests for the length-delimited TCP codec.
//!
//! A socket hands the decoder arbitrary slices of the byte stream —
//! 1-byte drips, coalesced multi-frame reads, cuts inside the length
//! prefix, cuts inside the payload. Whatever the segmentation, the
//! decoder must reassemble exactly the frames that were written; and on
//! hostile input (trailing garbage, random bytes) it must surface a
//! typed [`CodecError`] or keep waiting for more bytes — never panic,
//! never silently desynchronize ahead of the real frame boundary.

use bytes::Bytes;
use byz_wire::{
    decode_gradient_batch, encode_gradient_batch, is_gradient_batch, write_frame, CodecError,
    Message, StreamDecoder,
};
use proptest::prelude::*;

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
