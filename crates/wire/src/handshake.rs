//! Connection handshake for the socket transport.
//!
//! A fresh (or reconnecting) worker connection opens with exactly one
//! [`Hello`] frame naming the job it belongs to and which worker slot it
//! claims. The PS answers with either a [`Welcome`] echoing that pair or
//! a [`Reject`] with a typed reason. Only after `Welcome` does round
//! traffic start; the dealer-style router uses the `(job_id, worker)`
//! pair from `Hello` to patch the connection into that job's channel
//! fabric. A reconnecting worker needs nothing more: it resumes at the
//! next broadcast, which carries the round and the model.
//!
//! ```text
//!   worker                               PS
//!     | ---- Hello { job, worker } ----> |    (one frame, first bytes)
//!     |                                  |  route on job_id
//!     | <--- Welcome { job, worker } --- |    (or Reject { reason })
//!     | <========= round frames =======> |
//! ```
//!
//! Handshake frames use the same checksummed frame container as round
//! messages (kinds 8–10), so the stream codec and integrity gate are
//! shared — a corrupted hello dies in `check_frame` like any other
//! frame.

use crate::link::{Link, LinkError};
use crate::message::{
    check_frame, seal_frame, BodyReader, WireError, KIND_HELLO, KIND_REJECT, KIND_WELCOME,
};
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::time::Duration;

/// Why the PS refused a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No job with the offered id is being served.
    UnknownJob,
    /// The worker slot is out of range for the job's assignment.
    BadWorker,
    /// The job already trained to completion; nothing to rejoin.
    JobFinished,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::UnknownJob => 1,
            RejectReason::BadWorker => 2,
            RejectReason::JobFinished => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            1 => Ok(RejectReason::UnknownJob),
            2 => Ok(RejectReason::BadWorker),
            3 => Ok(RejectReason::JobFinished),
            _ => Err(WireError::MalformedBody),
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownJob => write!(f, "unknown job id"),
            RejectReason::BadWorker => write!(f, "worker slot out of range"),
            RejectReason::JobFinished => write!(f, "job already finished"),
        }
    }
}

/// The handshake frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Handshake {
    /// Worker → PS: first frame on every connection.
    Hello {
        /// Which job this connection serves.
        job_id: u64,
        /// Which worker slot it claims.
        worker: u32,
    },
    /// PS → worker: admitted; round traffic follows.
    Welcome {
        /// Echo of the admitted job.
        job_id: u64,
        /// Echo of the admitted worker slot.
        worker: u32,
    },
    /// PS → worker: refused; the connection closes after this frame.
    Reject {
        /// Echo of the offered job.
        job_id: u64,
        /// Why the connection was refused.
        reason: RejectReason,
    },
}

impl Handshake {
    /// Serializes the handshake into a checksummed frame.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        match self {
            Handshake::Hello { job_id, worker } => {
                body.put_u64_le(*job_id);
                body.put_u32_le(*worker);
                seal_frame(KIND_HELLO, body)
            }
            Handshake::Welcome { job_id, worker } => {
                body.put_u64_le(*job_id);
                body.put_u32_le(*worker);
                seal_frame(KIND_WELCOME, body)
            }
            Handshake::Reject { job_id, reason } => {
                body.put_u64_le(*job_id);
                body.put_u8(reason.code());
                seal_frame(KIND_REJECT, body)
            }
        }
    }

    /// Parses a checksummed frame back into a handshake.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] when the frame is a round message or of
    /// a retired handshake kind, the usual integrity errors otherwise.
    pub fn decode(frame: &[u8]) -> Result<Handshake, WireError> {
        let (kind, body) = check_frame(frame)?;
        let mut body = BodyReader::new(body);
        let handshake = match kind {
            KIND_HELLO => Handshake::Hello {
                job_id: body.u64_le()?,
                worker: body.u32_le()?,
            },
            KIND_WELCOME => Handshake::Welcome {
                job_id: body.u64_le()?,
                worker: body.u32_le()?,
            },
            KIND_REJECT => {
                let job_id = body.u64_le()?;
                let code = body.take(1)?[0];
                Handshake::Reject {
                    job_id,
                    reason: RejectReason::from_code(code)?,
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        // Every body byte is a field: nothing the checksum covered goes
        // unread.
        if body.remaining() != 0 {
            return Err(WireError::MalformedBody);
        }
        Ok(handshake)
    }
}

/// What went wrong while shaking hands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The link died or timed out mid-handshake.
    Link(LinkError),
    /// The peer's frame failed integrity or was not a handshake frame.
    Protocol(WireError),
    /// The PS refused the connection.
    Rejected(RejectReason),
    /// The peer sent a handshake frame out of sequence (e.g. a `Hello`
    /// where a `Welcome` was due).
    UnexpectedFrame,
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::Link(e) => write!(f, "handshake transport failure: {e}"),
            HandshakeError::Protocol(e) => write!(f, "handshake frame invalid: {e}"),
            HandshakeError::Rejected(r) => write!(f, "connection rejected: {r}"),
            HandshakeError::UnexpectedFrame => write!(f, "peer sent a frame out of sequence"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Runs the worker side of the handshake on a fresh connection: send
/// `Hello`, await `Welcome`.
///
/// # Errors
///
/// [`HandshakeError::Rejected`] when the PS refused, transport/protocol
/// errors otherwise.
pub fn client_handshake(
    link: &mut dyn Link,
    job_id: u64,
    worker: u32,
    timeout: Duration,
) -> Result<(), HandshakeError> {
    link.send(Handshake::Hello { job_id, worker }.encode())
        .map_err(HandshakeError::Link)?;
    let frame = link.recv_timeout(timeout).map_err(HandshakeError::Link)?;
    match Handshake::decode(&frame).map_err(HandshakeError::Protocol)? {
        Handshake::Welcome {
            job_id: jid,
            worker: w,
        } if jid == job_id && w == worker => Ok(()),
        Handshake::Reject { reason, .. } => Err(HandshakeError::Rejected(reason)),
        _ => Err(HandshakeError::UnexpectedFrame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::channel_link_pair;

    #[test]
    fn handshake_frames_roundtrip() {
        for hs in [
            Handshake::Hello {
                job_id: 7,
                worker: 3,
            },
            Handshake::Welcome {
                job_id: 7,
                worker: 3,
            },
            Handshake::Reject {
                job_id: 7,
                reason: RejectReason::BadWorker,
            },
        ] {
            assert_eq!(Handshake::decode(&hs.encode()).unwrap(), hs);
        }
    }

    #[test]
    fn unread_body_bytes_are_malformed() {
        let mut body = BytesMut::new();
        body.put_u64_le(7);
        body.put_u32_le(9);
        assert!(Handshake::decode(&seal_frame(KIND_HELLO, body.clone())).is_ok());
        body.put_u8(0);
        assert_eq!(
            Handshake::decode(&seal_frame(KIND_HELLO, body)),
            Err(WireError::MalformedBody)
        );
    }

    #[test]
    fn round_messages_are_not_handshakes() {
        let frame = crate::Message::Shutdown.encode();
        assert!(matches!(
            Handshake::decode(&frame),
            Err(WireError::UnknownKind(_))
        ));
    }

    #[test]
    fn retired_join_kinds_are_unknown() {
        // Kinds 11 and 12 carried the retired join handshake; a frame of
        // either kind, well-formed and correctly sealed, is garbage now.
        for kind in [11, 12] {
            let mut body = BytesMut::new();
            body.put_u64_le(7);
            body.put_u32_le(9);
            assert_eq!(
                Handshake::decode(&seal_frame(kind, body)),
                Err(WireError::UnknownKind(kind))
            );
        }
    }

    #[test]
    fn client_handshake_accepts_matching_welcome() {
        let (mut worker, mut ps) = channel_link_pair();
        let server = std::thread::spawn(move || {
            let hello = ps.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(
                Handshake::decode(&hello).unwrap(),
                Handshake::Hello {
                    job_id: 1,
                    worker: 2
                }
            );
            ps.send(
                Handshake::Welcome {
                    job_id: 1,
                    worker: 2,
                }
                .encode(),
            )
            .unwrap();
        });
        assert_eq!(
            client_handshake(&mut worker, 1, 2, Duration::from_secs(1)),
            Ok(())
        );
        server.join().unwrap();
    }

    #[test]
    fn client_handshake_surfaces_reject() {
        let (mut worker, mut ps) = channel_link_pair();
        let server = std::thread::spawn(move || {
            let _ = ps.recv_timeout(Duration::from_secs(1)).unwrap();
            ps.send(
                Handshake::Reject {
                    job_id: 9,
                    reason: RejectReason::UnknownJob,
                }
                .encode(),
            )
            .unwrap();
        });
        assert_eq!(
            client_handshake(&mut worker, 9, 0, Duration::from_secs(1)),
            Err(HandshakeError::Rejected(RejectReason::UnknownJob))
        );
        server.join().unwrap();
    }
}
