//! Wire protocol and threaded message-passing parameter server.
//!
//! The paper's system runs over MPICH; this crate provides the
//! reproduction's network analogue: a binary **framed message protocol**
//! ([`Message`], encoded with `bytes`) and a **real multi-threaded
//! parameter server** ([`MessagePassingCluster`]) in which every worker
//! is an OS thread holding its own model replica, and *all* coordination
//! happens through serialized frames flowing over channels — the PS never
//! shares memory with the workers.
//!
//! The protocol per iteration (paper Algorithm 1):
//!
//! 1. PS serializes a [`Message::ModelBroadcast`] and sends one copy to
//!    each worker;
//! 2. each worker deserializes, computes the gradient of every file
//!    assigned to it by the [`Assignment`] graph (honest), or forges a
//!    payload (Byzantine), and uploads the replicas in the job's
//!    [`WireFormat`]: one batch frame carrying all `l` of them, or each
//!    replica as a run of chunk frames;
//! 3. the PS admits the frames it receives inside the round's window,
//!    majority-votes each file over the replicas that arrived, applies
//!    coordinate-wise median over the winners, and updates the model.
//!
//! The loop itself is written once, as [`Session`]: the PS and the
//! trainer each run it over their own [`Delivery`]. The PS side of steps 2–3 is one transport-free
//! state machine, [`RoundCore`]: every deployment (threads over
//! channels, processes over TCP) feeds it the frames it receives, the
//! in-process trainer (`byzshield::Trainer`) offers it replicas in
//! memory, and its admission gate is the only way a payload reaches a
//! vote.
//!
//! Every frame carries a checksum; corrupted or truncated frames are
//! rejected at decode time ([`WireError`]), so transport-level integrity
//! is distinguished from Byzantine *content* (which is well-formed but
//! malicious — the attack model of the paper).

mod batch;
mod chunk;
mod compress;
mod fan_in;
mod handshake;
mod link;
mod message;
mod psd;
mod round;
mod server;
mod session;
mod tcp;
mod topk;
mod voter;

pub use batch::{
    decode_gradient_batch, encode_gradient_batch, encode_gradient_batch_into, is_gradient_batch,
    BatchEntry, BatchFrameBuilder, GradientBatchView,
};
pub use chunk::{
    apply_scheme, chunk_span, decode_gradient_chunk, encode_gradient_chunk_into,
    encode_gradient_chunks, is_gradient_chunk, num_chunks, sparsify_top_k, ChunkConfig,
    ChunkScheme, GradientChunkView, SparseChunk, SparsifyConfig, CHUNK_PREFIX_LEN,
};
pub use compress::{packed_sign_majority, PackedSigns};
pub use handshake::{client_handshake, Handshake, HandshakeError, RejectReason};
pub use link::{channel_link_pair, ChannelLink, Link, LinkError};
pub use message::{
    encode_model_broadcast, extend_f32s_le, put_f32s_le, read_f32s_le, Message, WireError,
    FRAME_HEADER_LEN,
};
pub use psd::{run_tcp_worker, JobResult, JobSpec, PsServer, WorkerSpec};
pub use round::{Admitted, FileSlot, Reject, RoundCore, RoundResult};
pub use server::{
    LocalAttack, MessagePassingCluster, RoundMode, RoundSummary, ServerConfig, WireFormat,
    WireTrainingRun,
};
pub use session::{Delivery, Session, SessionRound};
pub use tcp::{
    write_frame, CodecError, StreamDecoder, TcpLink, LENGTH_PREFIX_LEN, MAX_FRAME_LEN,
    READ_BLOCK_LEN,
};
pub use voter::{ChunkIngest, ShardedFileVoter};

pub use byz_assign::Assignment;
