//! Transport-agnostic frame links.
//!
//! A [`Link`] moves whole checksummed frames ([`Bytes`]) between one
//! worker and the parameter server. The protocol loops are written
//! against this trait only, so the *same* worker code runs over
//! in-process crossbeam channels ([`ChannelLink`]) and over real TCP
//! sockets ([`TcpLink`](crate::TcpLink)) — the transports differ in how
//! bytes travel, never in what the protocol sees.
//!
//! Failure semantics are deliberately channel-shaped on every transport:
//!
//! * a send (or flush) to a dead peer yields [`LinkError::Closed`] —
//!   callers treat it like the `let _ = tx.send(..)` of the channel
//!   transport (the round degrades; nothing panics);
//! * a receive that outlives its deadline yields [`LinkError::Timeout`],
//!   exactly mirroring `crossbeam`'s `RecvTimeoutError::Timeout` (a
//!   [`try_recv`](Link::try_recv) with nothing arrived yet is a receive
//!   whose deadline is now);
//! * a byte-stream that desyncs (only possible on real sockets) yields
//!   [`LinkError::Desync`] and the connection is abandoned — the peer
//!   re-enters through the handshake, never through guesswork about
//!   frame boundaries.

use crate::tcp::CodecError;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::fmt;
use std::time::Duration;

/// Errors from sending or receiving on a [`Link`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The peer is gone: clean close, broken pipe, or a dropped channel.
    Closed,
    /// No complete frame arrived within the deadline.
    Timeout,
    /// The byte stream violated the length-delimited framing and can no
    /// longer be trusted to contain frame boundaries.
    Desync(CodecError),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Closed => write!(f, "link closed by peer"),
            LinkError::Timeout => write!(f, "no frame within the deadline"),
            LinkError::Desync(e) => write!(f, "stream desynchronized: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A bidirectional frame pipe between a worker and the PS.
pub trait Link: Send {
    /// Ships one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`LinkError::Closed`] when the peer is gone. Implementations must
    /// not block forever on a dead peer.
    fn send(&mut self, frame: Bytes) -> Result<(), LinkError>;

    /// Queues one frame for the next [`flush`](Self::flush). A transport
    /// that coalesces writes may hold the frame until then, until its
    /// queue fills, or until the next receive or drop; by default the
    /// frame is sent at once. Queued frames keep their order relative to
    /// [`send`](Self::send)s.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send); a transport that holds the frame may
    /// report a dead peer only at the write that carries it.
    fn queue(&mut self, frame: Bytes) -> Result<(), LinkError> {
        self.send(frame)
    }

    /// Sends every queued frame. Transports that never queue do nothing.
    ///
    /// # Errors
    ///
    /// [`LinkError::Closed`] when the peer is gone; the queued frames are
    /// lost with it.
    fn flush(&mut self) -> Result<(), LinkError> {
        Ok(())
    }

    /// Waits up to `timeout` for the next frame.
    ///
    /// # Errors
    ///
    /// [`LinkError::Timeout`] on deadline expiry, [`LinkError::Closed`]
    /// when the peer hung up cleanly, [`LinkError::Desync`] when the
    /// stream lost frame framing (socket transports only).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError>;

    /// Returns the next frame if it has already arrived; never waits.
    ///
    /// # Errors
    ///
    /// [`LinkError::Timeout`] when no whole frame has arrived yet, and
    /// otherwise as [`recv_timeout`](Self::recv_timeout).
    fn try_recv(&mut self) -> Result<Bytes, LinkError>;

    /// Tells the link which protocol round the traffic now belongs to.
    /// Transports ignore this by default; the chaos link uses it to
    /// schedule connection faults against protocol time instead of
    /// wall-clock time.
    fn note_round(&mut self, _round: u64) {}
}

/// The in-process transport: a pair of crossbeam channels carrying
/// refcounted frames. This is exactly the wiring the message-passing
/// cluster has always used — [`ChannelLink`] just gives it the [`Link`]
/// shape so the worker loop stops caring which transport it runs on.
pub struct ChannelLink {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

impl ChannelLink {
    /// Wraps an outgoing sender and an incoming receiver into a link.
    pub fn new(tx: Sender<Bytes>, rx: Receiver<Bytes>) -> Self {
        ChannelLink { tx, rx }
    }
}

impl Link for ChannelLink {
    fn send(&mut self, frame: Bytes) -> Result<(), LinkError> {
        self.tx.send(frame).map_err(|_| LinkError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(LinkError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(LinkError::Closed),
        }
    }

    fn try_recv(&mut self) -> Result<Bytes, LinkError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(frame),
            Err(TryRecvError::Empty) => Err(LinkError::Timeout),
            Err(TryRecvError::Disconnected) => Err(LinkError::Closed),
        }
    }
}

/// Builds a connected pair of in-process links (worker side, PS side) —
/// test and example plumbing for transport-generic code.
pub fn channel_link_pair() -> (ChannelLink, ChannelLink) {
    let (a_tx, a_rx) = crossbeam::channel::unbounded();
    let (b_tx, b_rx) = crossbeam::channel::unbounded();
    (ChannelLink::new(a_tx, b_rx), ChannelLink::new(b_tx, a_rx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = channel_link_pair();
        a.send(Bytes::copy_from_slice(b"ping")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_millis(100)).unwrap()[..],
            b"ping"
        );
        b.send(Bytes::copy_from_slice(b"pong")).unwrap();
        assert_eq!(
            &a.recv_timeout(Duration::from_millis(100)).unwrap()[..],
            b"pong"
        );
    }

    #[test]
    fn dropped_peer_surfaces_as_closed() {
        let (mut a, b) = channel_link_pair();
        drop(b);
        assert_eq!(a.send(Bytes::copy_from_slice(b"x")), Err(LinkError::Closed));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(LinkError::Closed)
        );
    }

    #[test]
    fn empty_channel_times_out() {
        let (mut a, _b) = channel_link_pair();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(LinkError::Timeout)
        );
        assert_eq!(a.try_recv(), Err(LinkError::Timeout));
    }

    #[test]
    fn try_recv_takes_what_arrived_then_sees_the_close() {
        let (mut a, mut b) = channel_link_pair();
        b.send(Bytes::copy_from_slice(b"ping")).unwrap();
        drop(b);
        assert_eq!(&a.try_recv().unwrap()[..], b"ping");
        assert_eq!(a.try_recv(), Err(LinkError::Closed));
    }
}
