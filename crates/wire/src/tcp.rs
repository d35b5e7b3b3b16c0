//! Length-delimited TCP transport for checksummed frames.
//!
//! A TCP stream has no message boundaries, so each checksummed frame is
//! shipped behind a 4-byte little-endian length prefix:
//!
//! ```text
//! len: u32 (LE)                  | bytes of the frame that follows
//! frame: [u8; len]               | magic + kind + body_len + checksum + body
//! ```
//!
//! [`StreamDecoder`] reassembles frames from arbitrarily segmented reads
//! (1-byte drips, coalesced bursts, frames straddling read boundaries)
//! and refuses to guess when the bytes stop looking like frames: a
//! declared length past [`MAX_FRAME_LEN`], a too-short declared length,
//! or a payload that does not open with the frame magic all yield a
//! typed [`CodecError`] — never a panic, never a silent resync. The
//! magic check matters because a desynced length prefix would otherwise
//! have the decoder patiently buffering gigabytes of misaligned garbage;
//! checking the first four payload bytes catches the desync at the point
//! of corruption (a forged magic in random garbage is a 2⁻³² event, and
//! the per-frame checksum still backstops it).
//!
//! [`TcpLink`] wraps a connected stream into the [`Link`] shape: writes
//! are `write_all` (partial writes retried by the stdlib loop), reads
//! run under `set_read_timeout` slices so a receive deadline maps onto
//! the PS round deadline, and every hard I/O error collapses to
//! [`LinkError::Closed`] — the same degraded path a dropped channel
//! takes.

use crate::batch::PAYLOAD_PHASE;
use crate::link::{Link, LinkError};
use crate::message::{copy_aligned, FRAME_HEADER_LEN};
use bytes::Bytes;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Number of bytes in the length prefix preceding every frame.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Upper bound on a single frame on the wire (1 GiB). Anything larger
/// is treated as a desynced or hostile stream, not a frame to buffer.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Errors from the length-delimited stream codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Declared frame length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The length the prefix declared.
        declared: usize,
        /// The codec's ceiling.
        max: usize,
    },
    /// Declared frame length cannot even hold a frame header.
    FrameTooShort {
        /// The length the prefix declared.
        declared: usize,
    },
    /// The delimited payload does not open with the frame magic — the
    /// stream has lost frame alignment.
    BadFrameMagic(u32),
    /// The stream closed mid-frame, leaving undecodable bytes behind.
    TruncatedStream {
        /// Bytes stranded in the buffer at close.
        buffered: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            CodecError::FrameTooShort { declared } => {
                write!(
                    f,
                    "declared frame length {declared} is below the {FRAME_HEADER_LEN}-byte header"
                )
            }
            CodecError::BadFrameMagic(m) => {
                write!(f, "delimited payload opens with {m:#010x}, not frame magic")
            }
            CodecError::TruncatedStream { buffered } => {
                write!(
                    f,
                    "stream closed with {buffered} undecodable bytes buffered"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Incremental reassembler of length-prefixed frames from a byte stream.
///
/// Feed it whatever the socket hands you ([`feed`](Self::feed)), then
/// drain complete frames ([`next_frame`](Self::next_frame)). On clean
/// connection close, [`close`](Self::close) verifies nothing was left
/// stranded mid-frame.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames (drained lazily so a
    /// burst of small frames does not memmove the buffer per frame).
    consumed: usize,
}

impl StreamDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends raw stream bytes to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] means the stream is desynced and the connection
    /// must be abandoned — the decoder makes no attempt to resync.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, CodecError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < LENGTH_PREFIX_LEN {
            return Ok(None);
        }
        let declared =
            u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(CodecError::FrameTooLarge {
                declared,
                max: MAX_FRAME_LEN,
            });
        }
        if declared < FRAME_HEADER_LEN {
            return Err(CodecError::FrameTooShort { declared });
        }
        let payload = &pending[LENGTH_PREFIX_LEN..];
        // Check frame alignment as soon as the magic is visible — do not
        // wait for a possibly-garbage multi-megabyte "frame" to buffer.
        if payload.len() >= 4 {
            let magic = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            if magic != crate::message::MAGIC {
                return Err(CodecError::BadFrameMagic(magic));
            }
        }
        if payload.len() < declared {
            return Ok(None);
        }
        // Placed so that batch payloads land 4-aligned: the PS votes
        // them inside the frame.
        let frame = copy_aligned(&payload[..declared], PAYLOAD_PHASE);
        self.consumed += LENGTH_PREFIX_LEN + declared;
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed >= (1 << 20) && self.consumed * 2 >= self.buf.len() {
            // Reclaim buffer space once the dead prefix dominates.
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(frame))
    }

    /// Declares the stream cleanly closed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TruncatedStream`] if bytes were stranded mid-frame.
    pub fn close(&self) -> Result<(), CodecError> {
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(CodecError::TruncatedStream { buffered }),
        }
    }
}

/// Writes one frame to `w` behind its length prefix.
///
/// # Errors
///
/// Propagates the underlying I/O error; `write_all` already retries
/// partial writes.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(frame.len()).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidInput, "frame exceeds u32 length prefix")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)
}

/// A [`Link`] over one connected TCP stream.
pub struct TcpLink {
    stream: TcpStream,
    decoder: StreamDecoder,
    scratch: Box<[u8; 64 * 1024]>,
    /// Set once the peer is known dead so later calls fail fast instead
    /// of re-poking a broken socket.
    dead: bool,
}

impl TcpLink {
    /// Wraps an already-connected stream. `TCP_NODELAY` is applied
    /// best-effort: protocol frames are latency-bound, not
    /// throughput-bound, and Nagle would serialize the vote rounds.
    pub fn from_stream(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        TcpLink {
            stream,
            decoder: StreamDecoder::new(),
            scratch: Box::new([0u8; 64 * 1024]),
            dead: false,
        }
    }

    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates connect/refused/timeout I/O errors.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(TcpLink::from_stream(stream))
    }

    /// The underlying stream (for shutdown in fault injection).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Hard-closes both directions of the connection.
    pub fn shutdown(&mut self) {
        self.dead = true;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Link for TcpLink {
    fn send(&mut self, frame: Bytes) -> Result<(), LinkError> {
        if self.dead {
            return Err(LinkError::Closed);
        }
        write_frame(&mut self.stream, &frame).map_err(|_| {
            self.dead = true;
            LinkError::Closed
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError> {
        if self.dead {
            return Err(LinkError::Closed);
        }
        // A frame may already be buffered from a previous read burst.
        match self.decoder.next_frame() {
            Ok(Some(frame)) => return Ok(frame),
            Ok(None) => {}
            Err(e) => {
                self.shutdown();
                return Err(LinkError::Desync(e));
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(LinkError::Timeout);
            }
            // set_read_timeout(Some(0)) is an error on std sockets; the
            // zero case is already handled above.
            if self.stream.set_read_timeout(Some(remaining)).is_err() {
                self.dead = true;
                return Err(LinkError::Closed);
            }
            match self.stream.read(&mut self.scratch[..]) {
                Ok(0) => {
                    self.dead = true;
                    return match self.decoder.close() {
                        Ok(()) => Err(LinkError::Closed),
                        Err(e) => Err(LinkError::Desync(e)),
                    };
                }
                Ok(n) => {
                    self.decoder.feed(&self.scratch[..n]);
                    match self.decoder.next_frame() {
                        Ok(Some(frame)) => return Ok(frame),
                        Ok(None) => continue,
                        Err(e) => {
                            self.shutdown();
                            return Err(LinkError::Desync(e));
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(LinkError::Timeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return Err(LinkError::Closed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;

    fn sample_frames() -> Vec<Bytes> {
        vec![
            Message::Shutdown.encode(),
            crate::encode_gradient_batch(3, 1, &[(4, &[1.0, -2.5, 3.25])]),
            Message::ModelBroadcast {
                iteration: 9,
                params: vec![0.5, -0.25],
                files: vec![vec![2]],
            }
            .encode(),
        ]
    }

    fn wire_bytes(frames: &[Bytes]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, f).unwrap();
        }
        out
    }

    #[test]
    fn reassembles_one_byte_drip() {
        let frames = sample_frames();
        let wire = wire_bytes(&frames);
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        dec.close().unwrap();
    }

    #[test]
    fn reassembles_single_burst() {
        let frames = sample_frames();
        let mut dec = StreamDecoder::new();
        dec.feed(&wire_bytes(&frames));
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
        dec.close().unwrap();
    }

    #[test]
    fn mid_frame_close_is_truncated_stream() {
        let frames = sample_frames();
        let wire = wire_bytes(&frames);
        let mut dec = StreamDecoder::new();
        dec.feed(&wire[..wire.len() - 3]);
        while dec.next_frame().unwrap().is_some() {}
        assert!(matches!(
            dec.close(),
            Err(CodecError::TruncatedStream { .. })
        ));
    }

    #[test]
    fn garbage_magic_is_desync_not_panic() {
        let mut dec = StreamDecoder::new();
        // Plausible length prefix, then bytes that are not a frame.
        dec.feed(&64u32.to_le_bytes());
        dec.feed(&[0xAA; 8]);
        assert!(matches!(
            dec.next_frame(),
            Err(CodecError::BadFrameMagic(_))
        ));
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut dec = StreamDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(CodecError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn undersized_length_rejected() {
        let mut dec = StreamDecoder::new();
        dec.feed(&3u32.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::FrameTooShort { declared: 3 })
        );
    }

    #[test]
    fn tcp_link_roundtrips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut link = TcpLink::from_stream(stream);
            let f = link.recv_timeout(Duration::from_secs(5)).unwrap();
            link.send(f).unwrap();
        });
        let mut link = TcpLink::connect(addr, Duration::from_secs(5)).unwrap();
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &[0.5; 100])]);
        link.send(frame.clone()).unwrap();
        let echoed = link.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(echoed, frame);
        server.join().unwrap();
        // Peer exited: next receive sees the clean close.
        assert_eq!(
            link.recv_timeout(Duration::from_secs(5)),
            Err(LinkError::Closed)
        );
    }

    #[test]
    fn tcp_link_times_out_without_traffic() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut link = TcpLink::connect(addr, Duration::from_secs(5)).unwrap();
        let (_held, _) = listener.accept().unwrap();
        assert_eq!(
            link.recv_timeout(Duration::from_millis(50)),
            Err(LinkError::Timeout)
        );
    }
}
