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
//! declared length past the decoder's cap ([`MAX_FRAME_LEN`] unless a
//! tighter one is set), a too-short declared length, or a payload that
//! does not open with the frame magic all yield a typed [`CodecError`]
//! — never a panic, never a silent resync. The magic check matters
//! because a desynced length prefix would otherwise have the decoder
//! patiently buffering gigabytes of misaligned garbage; checking the
//! first four payload bytes catches the desync at the point of
//! corruption (a forged magic in random garbage is a 2⁻³² event, and
//! the per-frame checksum still backstops it).
//!
//! The decoder reads in blocks and hands frames out as slices of them;
//! [`StreamDecoder`] states the rules that bound what that pins.
//!
//! [`TcpLink`] wraps a connected stream into the [`Link`] shape. Frames
//! passed to [`Link::queue`] wait, refcounted and uncopied, until about
//! 256 KiB is queued or the caller flushes; then one vectored write
//! sends every queued `[prefix, frame]` pair. [`Link::send`], a receive
//! and dropping the link flush too. Reads run under a socket read
//! timeout (set only when its value changes) so a receive deadline maps
//! onto the PS round deadline; [`Link::try_recv`] reads only what the
//! socket already holds, without blocking. Every hard I/O error
//! collapses to [`LinkError::Closed`] — the same degraded path a dropped
//! channel takes.

use crate::batch::{is_gradient_batch, PAYLOAD_PHASE};
use crate::link::{Link, LinkError};
use crate::message::{copy_aligned, FRAME_HEADER_LEN};
use bytes::{Bytes, BytesMut};
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Number of bytes in the length prefix preceding every frame.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Upper bound on a single frame on the wire (1 GiB). Anything larger
/// is treated as a desynced or hostile stream, not a frame to buffer.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Size of the blocks a [`StreamDecoder`] reads into: the most one read
/// takes off the socket while frames are small.
pub const READ_BLOCK_LEN: usize = 256 * 1024;

/// Retired blocks a [`StreamDecoder`] keeps for reuse.
const SPARE_BLOCKS: usize = 2;

/// Queued bytes at which a [`TcpLink`] writes without waiting for a
/// flush.
const QUEUE_BYTES: usize = 256 * 1024;

/// Queued frames at which a [`TcpLink`] writes without waiting for a
/// flush: two slices each keeps one vectored write within Linux's
/// 1024-slice `IOV_MAX`.
const QUEUE_FRAMES: usize = 512;

/// Errors from the length-delimited stream codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Declared frame length exceeds the decoder's cap.
    FrameTooLarge {
        /// The length the prefix declared.
        declared: usize,
        /// The decoder's cap ([`MAX_FRAME_LEN`] unless narrowed).
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

/// The block a [`StreamDecoder`] holds its pending bytes in.
#[derive(Debug)]
enum Block {
    /// Still being filled; frames leave it as copies.
    Open(BytesMut),
    /// Frames are being cut from it as slices; it takes no more bytes.
    Frozen(Bytes),
}

impl Block {
    fn bytes(&self) -> &[u8] {
        match self {
            Block::Open(block) => block,
            Block::Frozen(block) => block,
        }
    }
}

/// Incremental reassembler of length-prefixed frames from a byte stream.
///
/// Read the socket into it ([`read_from`](Self::read_from)) or feed it
/// bytes ([`feed`](Self::feed)), then drain complete frames
/// ([`next_frame`](Self::next_frame)). On clean connection close,
/// [`close`](Self::close) verifies nothing was left stranded mid-frame.
///
/// Bytes land straight in a [`READ_BLOCK_LEN`] block, and the whole
/// frames in it come out as [`Bytes`] slices of that block — no scratch
/// buffer, no per-frame copy. Three rules bound what that costs:
///
/// * **Pin bound.** A block is cut into slices only when the frames
///   sliced from it fill at least half of it, so together they never pin
///   more than twice their own bytes. Frames that fill less (a tiny
///   frame in a nearly empty block) are copied out, and the block keeps
///   filling.
/// * **Alignment.** A batch frame whose payload would sit off a 4-byte
///   boundary is copied to an aligned allocation, so the PS still votes
///   batch replicas inside their frame. Pending bytes move to the next
///   block at the offset that aligns a batch frame they start.
/// * **Growth.** A block grows only with the bytes that arrived — to at
///   most twice the pending bytes, and no further than the end of the
///   frame they start — never with a declared length alone.
///
/// A block is reused once every frame cut from it has been dropped: the
/// current block takes bytes again where it is, and up to two retired
/// blocks wait as spares, largest first — so a worker's megabyte
/// broadcast grows its block once, not every round.
#[derive(Debug)]
pub struct StreamDecoder {
    block: Block,
    /// Pending stream bytes are `block[start..filled]`.
    start: usize,
    filled: usize,
    /// End of the run of whole frames the last cut decision covered.
    run_end: usize,
    /// Retired blocks, largest first, reusable once unique.
    spares: Vec<Bytes>,
    /// Largest declared frame length accepted.
    max_frame: usize,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        StreamDecoder {
            block: Block::Open(BytesMut::new()),
            start: 0,
            filled: 0,
            run_end: 0,
            spares: Vec::new(),
            max_frame: MAX_FRAME_LEN,
        }
    }
}

impl StreamDecoder {
    /// A decoder with no block yet, capped at [`MAX_FRAME_LEN`].
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Narrows the largest declared frame length the decoder accepts
    /// (never past [`MAX_FRAME_LEN`]); a longer declaration fails with
    /// [`CodecError::FrameTooLarge`] as soon as its prefix is visible.
    pub fn set_max_frame_len(&mut self, max: usize) {
        self.max_frame = max.min(MAX_FRAME_LEN);
    }

    /// Reads once from `reader` straight into the decoder's block.
    /// Returns the byte count; `0` means end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error; the decoder is unchanged by it.
    pub fn read_from<R: Read + ?Sized>(&mut self, reader: &mut R) -> std::io::Result<usize> {
        let n = reader.read(self.room())?;
        self.filled += n;
        Ok(n)
    }

    /// Appends raw stream bytes, as if read from a socket.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = self.room();
            let n = room.len().min(bytes.len());
            room[..n].copy_from_slice(&bytes[..n]);
            self.filled += n;
            bytes = &bytes[n..];
        }
    }

    /// Number of bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.filled - self.start
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
        let pending = &self.block.bytes()[self.start..self.filled];
        let Some(declared) = declared_len(pending, self.max_frame)? else {
            return Ok(None);
        };
        let (at, end) = (
            self.start + LENGTH_PREFIX_LEN,
            self.start + LENGTH_PREFIX_LEN + declared,
        );
        if end > self.filled {
            return Ok(None);
        }
        if self.start >= self.run_end {
            self.cut_decision();
        }
        self.start = end;
        Ok(Some(match &self.block {
            Block::Frozen(block) if !misaligned_batch(&block[at..end]) => block.slice(at..end),
            // Placed so that batch payloads land 4-aligned: the PS votes
            // them inside the frame.
            block => copy_aligned(&block.bytes()[at..end], PAYLOAD_PHASE),
        }))
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

    /// Decides how the run of whole frames at `start` leaves the block:
    /// as slices — freezing the block — when the frames that would be
    /// sliced fill at least half of it, as copies otherwise.
    fn cut_decision(&mut self) {
        let bytes = self.block.bytes();
        let (mut at, mut sliced) = (self.start, 0);
        while let Ok(Some(declared)) = declared_len(&bytes[at..self.filled], self.max_frame) {
            let end = at + LENGTH_PREFIX_LEN + declared;
            if end > self.filled {
                break;
            }
            if !misaligned_batch(&bytes[at + LENGTH_PREFIX_LEN..end]) {
                sliced += declared;
            }
            at = end;
        }
        self.run_end = at;
        if let Block::Open(block) = &mut self.block {
            if 2 * sliced >= block.len() {
                self.block = Block::Frozen(std::mem::take(block).freeze());
            }
        }
    }

    /// The writable space after `filled`, at least one byte. A full block,
    /// or a frozen one that frames still hold, hands its pending tail to
    /// a compacted, fresh or larger block first.
    fn room(&mut self) -> &mut [u8] {
        // A frozen block whose frames have all been dropped takes bytes
        // again, where it is.
        self.block = match std::mem::replace(&mut self.block, Block::Open(BytesMut::new())) {
            Block::Frozen(block) => {
                BytesMut::try_from(block).map_or_else(Block::Frozen, Block::Open)
            }
            open => open,
        };
        let tail = self.filled - self.start;
        let next_len = self.next_block_len(tail);
        let moved = match &mut self.block {
            Block::Open(block) if !block.is_empty() && (tail == 0 || self.filled < block.len()) => {
                if tail == 0 {
                    // Nothing pending: restart at the block's aligned lead.
                    self.start = lead(block);
                    self.filled = self.start;
                }
                tail == 0
            }
            Block::Open(block) if !block.is_empty() && next_len <= block.len() => {
                // Full, with dead bytes before the tail: compact.
                let lead = lead(block);
                block.copy_within(self.start..self.filled, lead);
                self.start = lead;
                self.filled = lead + tail;
                true
            }
            _ => {
                let mut fresh = self.fresh_block(next_len);
                let lead = lead(&fresh);
                fresh[lead..lead + tail]
                    .copy_from_slice(&self.block.bytes()[self.start..self.filled]);
                let old = std::mem::replace(&mut self.block, Block::Open(fresh));
                self.retire(old);
                self.start = lead;
                self.filled = lead + tail;
                true
            }
        };
        if moved {
            self.run_end = self.start;
        }
        match &mut self.block {
            Block::Open(block) => &mut block[self.filled..],
            Block::Frozen(_) => unreachable!("room() always leaves an open block"),
        }
    }

    /// Length of the block the `tail` pending bytes move to: twice the
    /// bytes that arrived, capped at the end of the frame they start
    /// (plus alignment slack), and never below [`READ_BLOCK_LEN`].
    fn next_block_len(&self, tail: usize) -> usize {
        let pending = &self.block.bytes()[self.start..self.filled];
        let frame_end = match declared_len(pending, self.max_frame) {
            Ok(Some(declared)) if LENGTH_PREFIX_LEN + declared > tail => {
                LENGTH_PREFIX_LEN + declared + 3
            }
            _ => usize::MAX,
        };
        (2 * tail).min(frame_end).max(READ_BLOCK_LEN)
    }

    /// A writable block of at least `len` bytes: the largest spare no
    /// frame holds any more, or a new zero-filled one.
    fn fresh_block(&mut self, len: usize) -> BytesMut {
        for i in 0..self.spares.len() {
            if self.spares[i].len() < len {
                break;
            }
            match BytesMut::try_from(std::mem::take(&mut self.spares[i])) {
                Ok(block) => {
                    self.spares.remove(i);
                    return block;
                }
                Err(busy) => self.spares[i] = busy,
            }
        }
        zeroed(len)
    }

    /// Keeps a block the decoder is done with as a spare, largest first.
    /// With [`SPARE_BLOCKS`] kept, it replaces the smallest spare if it
    /// is larger and is dropped otherwise: the older spares are the ones
    /// whose frames are likeliest to have been dropped already.
    fn retire(&mut self, old: Block) {
        let block = match old {
            Block::Open(block) => block.freeze(),
            Block::Frozen(block) => block,
        };
        if block.is_empty() {
            return;
        }
        if self.spares.len() == SPARE_BLOCKS {
            if self.spares.last().is_some_and(|s| s.len() >= block.len()) {
                return;
            }
            self.spares.pop();
        }
        let at = self.spares.partition_point(|s| s.len() >= block.len());
        self.spares.insert(at, block);
    }
}

/// The declared length of the frame whose prefix opens `pending`,
/// validated against `max` and, once visible, the frame magic.
/// `Ok(None)` until the prefix is complete.
fn declared_len(pending: &[u8], max: usize) -> Result<Option<usize>, CodecError> {
    let Some(prefix) = pending.first_chunk::<LENGTH_PREFIX_LEN>() else {
        return Ok(None);
    };
    let declared = u32::from_le_bytes(*prefix) as usize;
    if declared > max {
        return Err(CodecError::FrameTooLarge { declared, max });
    }
    if declared < FRAME_HEADER_LEN {
        return Err(CodecError::FrameTooShort { declared });
    }
    // Check frame alignment as soon as the magic is visible — do not
    // wait for a possibly-garbage multi-megabyte "frame" to buffer.
    if let Some(magic) = pending[LENGTH_PREFIX_LEN..].first_chunk::<4>() {
        let magic = u32::from_le_bytes(*magic);
        if magic != crate::message::MAGIC {
            return Err(CodecError::BadFrameMagic(magic));
        }
    }
    Ok(Some(declared))
}

/// Whether `frame` is a batch frame whose payloads would sit off a
/// 4-byte boundary where it lies.
fn misaligned_batch(frame: &[u8]) -> bool {
    is_gradient_batch(frame) && !(frame.as_ptr() as usize + PAYLOAD_PHASE).is_multiple_of(4)
}

/// Where pending bytes start in `block`: the offset that puts a batch
/// frame's payloads, behind its length prefix, on a 4-byte boundary.
fn lead(block: &[u8]) -> usize {
    (block.as_ptr() as usize + LENGTH_PREFIX_LEN + PAYLOAD_PHASE).wrapping_neg() % 4
}

/// A zero-filled block of `len` bytes, from the allocator's zeroed
/// memory.
fn zeroed(len: usize) -> BytesMut {
    BytesMut::try_from(Bytes::from(vec![0u8; len]))
        .expect("the only handle to a whole buffer converts without a copy")
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

/// Writes every `(prefix, frame)` pair with vectored writes, advancing
/// past partial writes.
fn write_queued<W: Write>(
    w: &mut W,
    queued: &[([u8; LENGTH_PREFIX_LEN], Bytes)],
) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = queued
        .iter()
        .flat_map(|(prefix, frame)| [IoSlice::new(prefix), IoSlice::new(frame)])
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A [`Link`] over one connected TCP stream.
pub struct TcpLink {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// Frames awaiting the next vectored write, behind their prefixes.
    queued: Vec<([u8; LENGTH_PREFIX_LEN], Bytes)>,
    /// Wire bytes in `queued`.
    queued_bytes: usize,
    /// The read timeout currently set on the socket.
    read_timeout: Option<Duration>,
    /// Set once the peer is known dead so later calls fail fast instead
    /// of re-poking a broken socket.
    dead: bool,
}

impl TcpLink {
    /// Wraps an already-connected stream. `TCP_NODELAY` is applied
    /// best-effort: protocol frames are latency-bound, not
    /// throughput-bound, and Nagle would serialize the vote rounds —
    /// the link does its own coalescing (see [`Link::queue`]).
    pub fn from_stream(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        TcpLink {
            stream,
            decoder: StreamDecoder::new(),
            queued: Vec::new(),
            queued_bytes: 0,
            read_timeout: None,
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

    /// Narrows the largest frame this link accepts from its peer (see
    /// [`StreamDecoder::set_max_frame_len`]).
    pub fn set_max_frame_len(&mut self, max: usize) {
        self.decoder.set_max_frame_len(max);
    }

    /// Hard-closes both directions of the connection; queued frames are
    /// discarded.
    pub fn shutdown(&mut self) {
        self.dead = true;
        self.queued.clear();
        self.queued_bytes = 0;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Waits as long as it takes for the next frame: no read timeout, so
    /// only a frame, the peer's close or a shutdown of the socket
    /// returns.
    ///
    /// # Errors
    ///
    /// [`LinkError::Closed`] once the peer closed (or the socket was
    /// shut down), [`LinkError::Desync`] on a corrupt stream.
    pub fn recv(&mut self) -> Result<Bytes, LinkError> {
        self.flush()?;
        if self.read_timeout.is_some() {
            if self.stream.set_read_timeout(None).is_err() {
                return Err(self.closed());
            }
            self.read_timeout = None;
        }
        loop {
            if let Some(frame) = self.buffered_frame()? {
                return Ok(frame);
            }
            self.read_some()?;
        }
    }

    /// Marks the peer dead and reports it.
    fn closed(&mut self) -> LinkError {
        self.dead = true;
        LinkError::Closed
    }

    /// The next whole frame the decoder holds; a desynced stream shuts
    /// the connection.
    fn buffered_frame(&mut self) -> Result<Option<Bytes>, LinkError> {
        self.decoder.next_frame().map_err(|e| {
            self.shutdown();
            LinkError::Desync(e)
        })
    }

    /// Reads until a frame completes (`Some`) or a read would block or
    /// times out (`None`).
    fn read_until_frame(&mut self) -> Result<Option<Bytes>, LinkError> {
        while self.read_some()? {
            if let Some(frame) = self.buffered_frame()? {
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    /// Reads once into the decoder: `Ok(false)` when the read would
    /// block or timed out, `Ok(true)` otherwise.
    fn read_some(&mut self) -> Result<bool, LinkError> {
        match self.decoder.read_from(&mut self.stream) {
            Ok(0) => {
                self.dead = true;
                Err(match self.decoder.close() {
                    Ok(()) => LinkError::Closed,
                    Err(e) => LinkError::Desync(e),
                })
            }
            Ok(_) => Ok(true),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(false)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(_) => Err(self.closed()),
        }
    }
}

impl Link for TcpLink {
    fn send(&mut self, frame: Bytes) -> Result<(), LinkError> {
        self.queue(frame)?;
        self.flush()
    }

    fn queue(&mut self, frame: Bytes) -> Result<(), LinkError> {
        if self.dead {
            return Err(LinkError::Closed);
        }
        let Ok(len) = u32::try_from(frame.len()) else {
            return Err(self.closed());
        };
        self.queued_bytes += LENGTH_PREFIX_LEN + frame.len();
        self.queued.push((len.to_le_bytes(), frame));
        if self.queued_bytes >= QUEUE_BYTES || self.queued.len() >= QUEUE_FRAMES {
            self.flush()
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<(), LinkError> {
        if self.dead {
            return Err(LinkError::Closed);
        }
        if self.queued.is_empty() {
            return Ok(());
        }
        let written = write_queued(&mut self.stream, &self.queued);
        self.queued.clear();
        self.queued_bytes = 0;
        written.map_err(|_| self.closed())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError> {
        // Whatever this side queued goes out before it waits on the peer.
        self.flush()?;
        let deadline = Instant::now() + timeout;
        let mut first_read = true;
        loop {
            // A frame may already be buffered from a previous read.
            if let Some(frame) = self.buffered_frame()? {
                return Ok(frame);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            // set_read_timeout(Some(0)) is an error on std sockets.
            if remaining.is_zero() {
                return Err(LinkError::Timeout);
            }
            // A call's first read waits the whole `timeout`, so a caller
            // that waits in equal slices sets the socket timeout once;
            // later reads of the same call wait out what is left.
            let wait = if first_read { timeout } else { remaining };
            first_read = false;
            if self.read_timeout != Some(wait) {
                if self.stream.set_read_timeout(Some(wait)).is_err() {
                    return Err(self.closed());
                }
                self.read_timeout = Some(wait);
            }
            if !self.read_some()? {
                return Err(LinkError::Timeout);
            }
        }
    }

    /// A frame the decoder holds, else whatever the socket has ready,
    /// read without blocking until a frame completes or the read would
    /// block. The socket's read timeout is left as it was.
    fn try_recv(&mut self) -> Result<Bytes, LinkError> {
        self.flush()?;
        if let Some(frame) = self.buffered_frame()? {
            return Ok(frame);
        }
        if self.stream.set_nonblocking(true).is_err() {
            return Err(self.closed());
        }
        let frame = self.read_until_frame();
        if self.stream.set_nonblocking(false).is_err() {
            return Err(self.closed());
        }
        frame?.ok_or(LinkError::Timeout)
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        let _ = self.flush();
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
            // Queued, never flushed: dropping the link sends it.
            link.queue(f).unwrap();
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

    /// A connected `(client, server)` pair of links on loopback.
    fn link_pair() -> (TcpLink, TcpLink) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client =
            TcpLink::connect(listener.local_addr().unwrap(), Duration::from_secs(5)).unwrap();
        let server = TcpLink::from_stream(listener.accept().unwrap().0);
        (client, server)
    }

    #[test]
    fn queued_frame_waits_for_flush() {
        let (mut client, mut server) = link_pair();
        let frame = Message::Shutdown.encode();
        client.queue(frame.clone()).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(50)),
            Err(LinkError::Timeout),
            "a queued frame stays queued until a flush"
        );
        client.flush().unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(5)).unwrap(), frame);
    }

    #[test]
    fn blocking_receive_outwaits_an_earlier_timeout_and_ends_at_close() {
        let (mut client, mut server) = link_pair();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(10)),
            Err(LinkError::Timeout)
        );
        let frame = Message::Shutdown.encode();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            client.send(frame).unwrap();
            client.shutdown();
        });
        assert_eq!(server.recv().unwrap(), Message::Shutdown.encode());
        assert_eq!(server.recv(), Err(LinkError::Closed));
        sender.join().unwrap();
    }

    #[test]
    fn receive_flushes_queued_frames_first() {
        let (mut client, mut server) = link_pair();
        let frame = Message::Shutdown.encode();
        client.queue(frame.clone()).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(10)),
            Err(LinkError::Timeout)
        );
        assert_eq!(server.recv_timeout(Duration::from_secs(5)).unwrap(), frame);
    }

    #[test]
    fn full_queue_writes_without_a_flush() {
        let (mut client, mut server) = link_pair();
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &[0.5; 4096])]);
        let count = QUEUE_BYTES / frame.len() + 1;
        for _ in 0..count {
            client.queue(frame.clone()).unwrap();
        }
        for _ in 0..count {
            assert_eq!(server.recv_timeout(Duration::from_secs(5)).unwrap(), frame);
        }
        // Nothing was left behind in the queue.
        assert!(client.queued.is_empty());
    }

    #[test]
    fn dead_peer_surfaces_as_closed_at_flush() {
        let (mut client, server) = link_pair();
        drop(server);
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &[0.5; 4096])]);
        // The first writes may land in the socket buffer before the
        // peer's reset arrives; a dead peer fails a flush within a few.
        let mut outcome = Ok(());
        for _ in 0..100 {
            client.queue(frame.clone()).unwrap();
            outcome = client.flush();
            if outcome.is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(outcome, Err(LinkError::Closed));
        assert_eq!(
            client.queue(frame),
            Err(LinkError::Closed),
            "dead links fail fast"
        );
    }

    #[test]
    fn try_recv_returns_a_frame_already_in_the_decoder() {
        let (mut client, _server) = link_pair();
        let frames = sample_frames();
        client.decoder.feed(&wire_bytes(&frames[..2]));
        assert_eq!(client.try_recv().unwrap(), frames[0]);
        assert_eq!(client.try_recv().unwrap(), frames[1]);
        assert_eq!(client.try_recv(), Err(LinkError::Timeout));
    }

    #[test]
    fn try_recv_on_an_idle_socket_does_not_wait_out_the_read_timeout() {
        let (mut client, _server) = link_pair();
        // A long receive leaves a 10 s read timeout on the socket.
        client
            .stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.read_timeout = Some(Duration::from_secs(10));
        let started = Instant::now();
        assert_eq!(client.try_recv(), Err(LinkError::Timeout));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        // The socket blocks again: a receive waits out its deadline.
        let started = Instant::now();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(100)),
            Err(LinkError::Timeout)
        );
        assert!(started.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn try_recv_returns_a_large_frame_once_its_last_byte_arrived() {
        let (mut client, server) = link_pair();
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &vec![0.5f32; 262_144])]);
        let wire = wire_bytes(std::slice::from_ref(&frame));
        let (head, last) = wire.split_at(wire.len() - 1);
        let mut writer = server.stream();
        for piece in head.chunks(100_000) {
            writer.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(client.try_recv(), Err(LinkError::Timeout));
        }
        writer.write_all(last).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            match client.try_recv() {
                Ok(got) => break got,
                Err(LinkError::Timeout) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(got, frame);
        assert_eq!(client.try_recv(), Err(LinkError::Timeout));
    }

    /// A Read stub handing out one scripted chunk per call.
    struct Script(std::collections::VecDeque<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    #[test]
    fn narrowed_cap_refuses_within_one_block() {
        // A 64 MiB declaration followed by a stream of bytes: the
        // decoder refuses it at the prefix, having read one block.
        let mut stream = ((64usize << 20) as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&Message::Shutdown.encode()[..4]);
        stream.resize(4 * READ_BLOCK_LEN, 0xAB);
        let mut reader = Script(std::collections::VecDeque::from([stream]));
        let mut dec = StreamDecoder::new();
        dec.set_max_frame_len(5_299_473);
        let read = dec.read_from(&mut reader).unwrap();
        assert!(read <= READ_BLOCK_LEN);
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::FrameTooLarge {
                declared: 64 << 20,
                max: 5_299_473
            })
        );
    }

    #[test]
    fn a_large_frame_grows_its_block_with_the_bytes_that_arrived() {
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &vec![0.25f32; 300_000])]);
        let wire = wire_bytes(std::slice::from_ref(&frame));
        let mut dec = StreamDecoder::new();
        let mut arrived = 0;
        for piece in wire.chunks(4096) {
            let room = dec.room().len();
            // Room offered never exceeds the bytes that arrived plus one
            // standard block.
            assert!(
                room <= arrived + READ_BLOCK_LEN,
                "room {room} after {arrived} bytes"
            );
            dec.feed(piece);
            arrived += piece.len();
        }
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, frame);
        let view = crate::decode_gradient_batch(&got).unwrap();
        assert!(view.entries[0].raw().as_ptr().cast::<f32>().is_aligned());
        dec.close().unwrap();
    }

    #[test]
    fn spare_blocks_are_reused_once_their_frames_drop() {
        let frame = crate::encode_gradient_batch(1, 2, &[(3, &[0.5; 4096])]);
        let wire = wire_bytes(&vec![frame.clone(); 64]);
        let mut dec = StreamDecoder::new();
        let mut blocks = std::collections::HashSet::new();
        for piece in wire.chunks(READ_BLOCK_LEN) {
            dec.feed(piece);
            blocks.insert(dec.block.bytes().as_ptr() as usize);
            while let Some(got) = dec.next_frame().unwrap() {
                assert_eq!(got, frame);
            }
        }
        assert!(dec.spares.len() <= SPARE_BLOCKS);
        assert!(
            blocks.len() <= 3,
            "{} blocks for a stream drained as it arrived",
            blocks.len()
        );
    }
}
