//! The round engine: the PS side of one synchronous round as a
//! transport-free state machine —
//! `begin(t, holders)` → `ingest(frame)` / `offer(replica)` while
//! `wants_more()` → `close()` → [`RoundResult`].
//!
//! [`RoundCore`] owns everything a round decides on — the replica store,
//! the per-file outcome slots, the bounded-staleness backlog and the
//! canonical fold of counters and audits — and knows nothing about
//! where replicas come from. One caller opens and closes it, the
//! [`Session`](crate::Session) round; the session's delivery names the
//! round's live holder sets and feeds it — frames from the channel and
//! TCP PS, slices from the in-process trainer (`byzshield::Trainer`,
//! the zero-latency link). Of the [`RoundMode`](crate::RoundMode) the
//! engine reads only the staleness horizon; each [`WireFormat`] is a
//! replica store that also fixes when a file votes — a chunked file as
//! soon as its last live holder completes it, a batched file at `close`,
//! with every other file, on the kernel pool. One private gate sits behind
//! [`RoundCore::ingest`] and [`RoundCore::offer`], the only ways a payload
//! reaches a vote, so it is the one place that enforces what the paper's
//! guarantee needs: **at most one replica per live holder in every file's
//! vote**.

use crate::batch::{decode_gradient_batch, BatchEntry};
use crate::chunk::{decode_gradient_chunk, num_chunks, GradientChunkView};
use crate::message::{aligned_floats, copy_aligned, float_bytes, floats};
use crate::server::{ServerConfig, WireFormat};
use crate::voter::{ChunkIngest, ShardedFileVoter};
use crate::Assignment;
use bytes::Bytes;
use byz_aggregate::{
    quorum_elect_all, Provenance, QuorumError, QuorumOutcome, VoteAudit, VoteInput,
};
use byz_cluster::FaultPlan;
use std::fmt;
use std::ops::{Deref, Range};
use std::time::Instant;

/// Why the admission gate refused a frame, or one entry of a batch frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Bad checksum or framing, or not the job's gradient frame kind.
    Malformed,
    /// The sender id is outside the worker universe (`K`, or the fault
    /// plan's largest joiner id + 1).
    UnknownWorker,
    /// The frame claims a worker other than the slot it came in on.
    Impersonation,
    /// The file id is not a file of the job (`file ≥ f`).
    UnknownFile,
    /// Not a frame of the open round, and no parked file expects it.
    WrongRound,
    /// A straggler's replica of a file whose vote closes without it.
    Late,
    /// The sender is assigned the file but the driver left it out of the
    /// round's holder set: it is quarantined.
    Quarantined,
    /// The sender is not a holder of the file.
    NotHolder,
    /// Already delivered by this sender: the first delivery wins.
    Duplicate,
    /// Not the model's shape (entry length, chunk geometry).
    Shape,
}

/// What the gate let through from one well-formed frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Admitted {
    /// Batch entries or chunks that joined a vote.
    pub accepted: usize,
    /// Batch entries the gate refused, as `(file, reason)`.
    pub refused: Vec<(u32, Reject)>,
}

/// Which vote a [`RoundResult`] entry reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSlot {
    /// The round the file's replicas belong to; earlier than the closed
    /// round for a stale fold.
    pub origin: u64,
    /// File index in `0..f`.
    pub file: usize,
}

/// A vote's winning replica, read where the round held it: a slice of
/// the frame it arrived in, the gate's copy, or a chunked file's assembly
/// buffer. Holding it keeps that memory alive, so a caller drops its
/// winners once it has aggregated them. Equality is bitwise.
#[derive(Clone, PartialEq, Eq)]
pub struct Winner(Bytes);

impl Deref for Winner {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        floats(&self.0)
    }
}

impl fmt::Debug for Winner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a closed round hands its driver: a function of the *set* of
/// replicas admitted, never of their arrival order or of when votes ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundResult {
    /// This round's winners in ascending file order, each where the
    /// round held it, then the stale winners due now in (origin round,
    /// file) order, copied at a discount of `1/(1 + lag)`.
    pub winners: Vec<Winner>,
    /// One audit per vote that elected a winner, in the same order.
    pub audits: Vec<VoteAudit>,
    /// Which file each winner is, in the same order.
    pub voted: Vec<FileSlot>,
    /// Votes won without a strict majority.
    pub non_strict_votes: usize,
    /// Votes over a partial replica set.
    pub degraded_votes: usize,
    /// Replica votes that never arrived.
    pub missing_votes: usize,
    /// Files that produced no winner (below `q_min`), stale ones due now
    /// included, each with why its vote failed.
    pub abandoned: Vec<(FileSlot, QuorumError)>,
    /// Files parked this round for a later fold.
    pub deferred_files: usize,
    /// Stale winners folded into this round.
    pub stale_folded: usize,
}

/// One file's audited vote, its winner where the store holds it.
type Vote = Result<QuorumOutcome<Bytes>, QuorumError>;

impl RoundResult {
    /// Books one closed vote, `lag` rounds after its origin: an
    /// abandonment, or a winner (discounted when it folds stale).
    fn fold(&mut self, slot: FileSlot, vote: Vote, lag: u64) {
        let outcome = match vote {
            Ok(outcome) => outcome,
            Err(error) => return self.abandoned.push((slot, error)),
        };
        self.voted.push(slot);
        self.stale_folded += usize::from(lag > 0);
        self.non_strict_votes += usize::from(!outcome.is_strict);
        self.degraded_votes +=
            usize::from(matches!(outcome.provenance, Provenance::Degraded { .. }));
        self.audits.push(outcome.audit);
        let mut winner = outcome.value;
        if lag > 0 {
            let discount = 1.0 / (1.0 + lag as f32);
            winner = aligned_floats(winner.len() / 4, |out| {
                for (o, v) in out.iter_mut().zip(floats(&winner)) {
                    *o = v * discount;
                }
            });
        }
        self.winners.push(Winner(winner));
    }
}

/// One payload on its way through the gate.
#[derive(Clone, Copy)]
enum Piece<'a> {
    /// A batch entry; `in_place` when its frame's payloads are 4-aligned
    /// native-order floats, so the frame itself can back the vote.
    Entry {
        entry: &'a BatchEntry,
        in_place: bool,
    },
    Chunk(&'a GradientChunkView),
    /// A whole replica already in memory ([`RoundCore::offer`]).
    Floats(&'a [f32]),
}

impl Piece<'_> {
    /// The same payload, to be stored as a copy: a parked file outlives
    /// the round, so it never holds a view of a frame.
    fn detached(self) -> Self {
        match self {
            Piece::Entry { entry, .. } => Piece::Entry {
                entry,
                in_place: false,
            },
            other => other,
        }
    }
}

/// Where the gate stored an admitted payload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Landed {
    /// The open round's store, where it may complete a chunked file.
    Open,
    /// A parked file's store.
    Parked,
}

/// The rule's copy case, and the only place the engine copies a whole
/// replica: just that payload, into a fresh 4-aligned allocation, in
/// native order.
fn copied(piece: Piece<'_>) -> Bytes {
    let native = match piece {
        Piece::Entry { entry, .. } if cfg!(target_endian = "little") => entry.raw(),
        // A big-endian host reads the wire's little-endian words first.
        Piece::Entry { entry, .. } => return copied(Piece::Floats(&entry.to_vec())),
        Piece::Floats(replica) => float_bytes(replica),
        Piece::Chunk(_) => unreachable!("a chunk is never stored whole"),
    };
    copy_aligned(native, 0)
}

/// Whole replicas (batch entries, offered slices), each a refcounted
/// 4-aligned native-order run of `model_len` floats: a slice of the
/// frame it arrived in when [`RoundCore::ingest`]'s view-or-copy rule
/// allows, a fresh copy of just that payload otherwise. A slot lists its
/// replicas as `(worker, run)`.
struct FlatStore {
    model_len: usize,
    slots: Vec<Vec<(usize, Bytes)>>,
}

impl FlatStore {
    /// Stores `worker`'s `len`-float `piece` in `slot`: a view of its
    /// frame for an in-place entry, a copy otherwise.
    fn put(
        &mut self,
        slot: usize,
        worker: usize,
        len: usize,
        piece: Piece<'_>,
    ) -> Result<(), Reject> {
        if self.slots[slot].iter().any(|&(w, _)| w == worker) {
            return Err(Reject::Duplicate);
        }
        // A well-checksummed entry of the wrong length must never reach
        // the median.
        if len != self.model_len {
            return Err(Reject::Shape);
        }
        let run = match piece {
            Piece::Entry {
                entry,
                in_place: true,
            } => entry.payload().clone(),
            _ => copied(piece),
        };
        self.slots[slot].push((worker, run));
        Ok(())
    }

    /// Swaps `worker`'s replica in `slot` for a copy, releasing its frame.
    fn detach(&mut self, slot: usize, worker: usize) {
        for (w, run) in &mut self.slots[slot] {
            if *w == worker {
                *run = copied(Piece::Floats(floats(run)));
            }
        }
    }

    fn replicas(&self, slot: usize) -> Vec<(usize, &[f32])> {
        self.slots[slot]
            .iter()
            .map(|(w, run)| (*w, floats(run)))
            .collect()
    }
}

/// Where admitted replicas wait for their vote: `slots` consecutive
/// files' worth, in whichever shape the wire delivers them.
enum ReplicaStore {
    Flat(FlatStore),
    /// Chunk frames: one incremental voter per slot, assembling only its
    /// file's groups and winner.
    Sharded(Vec<ShardedFileVoter>),
}

use ReplicaStore::{Flat, Sharded};

impl ReplicaStore {
    fn new(wire: WireFormat, files: Range<usize>, model_len: usize) -> Self {
        match wire {
            WireFormat::Batched => Flat(FlatStore {
                model_len,
                slots: vec![Vec::new(); files.len()],
            }),
            WireFormat::Chunked(cfg) => Sharded(
                files
                    .map(|file| ShardedFileVoter::new(file as u32, model_len, cfg.span_len()))
                    .collect(),
            ),
        }
    }

    /// Drops every replica, and with them every frame the store pinned.
    fn reset(&mut self) {
        match self {
            Flat(flat) => flat.slots.iter_mut().for_each(Vec::clear),
            Sharded(voters) => voters.iter_mut().for_each(ShardedFileVoter::reset),
        }
    }

    /// Stores `worker`'s payload for `slot`; the first delivery wins.
    fn put(&mut self, slot: usize, worker: usize, piece: Piece<'_>) -> Result<(), Reject> {
        match (self, piece) {
            (Flat(flat), Piece::Entry { entry, .. }) => flat.put(slot, worker, entry.len(), piece),
            (Flat(flat), Piece::Floats(replica)) => flat.put(slot, worker, replica.len(), piece),
            (Sharded(voters), Piece::Chunk(view)) => match voters[slot].ingest(view) {
                ChunkIngest::Accepted => Ok(()),
                ChunkIngest::Duplicate => Err(Reject::Duplicate),
                ChunkIngest::Rejected => Err(Reject::Shape),
            },
            _ => Err(Reject::Malformed),
        }
    }

    /// Swaps `worker`'s whole replica in `slot` for a copy.
    fn detach(&mut self, slot: usize, worker: usize) {
        if let Flat(flat) = self {
            flat.detach(slot, worker);
        }
    }

    /// How many replicas for `slot` are complete.
    fn complete_count(&self, slot: usize) -> usize {
        match self {
            Flat(flat) => flat.slots[slot].len(),
            Sharded(voters) => voters[slot].complete_count(),
        }
    }

    /// Whether `worker`'s replica for `slot` is complete.
    fn is_complete(&self, slot: usize, worker: usize) -> bool {
        match self {
            Flat(flat) => flat.slots[slot].iter().any(|&(w, _)| w == worker),
            Sharded(voters) => voters[slot].is_complete(worker),
        }
    }

    /// Audited votes for the ascending `slots` over whatever completed,
    /// index-aligned with `slots`; `holders[slot]` is the slot's expected
    /// holder set. The slots vote together on the kernel pool, one file
    /// per output slot, and each winner stays where the store holds it.
    fn vote(&mut self, slots: &[usize], q_min: usize, holders: &[Vec<usize>]) -> Vec<Vote> {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "ascending slots");
        match self {
            Flat(flat) => {
                let replicas: Vec<_> = slots.iter().map(|&slot| flat.replicas(slot)).collect();
                let inputs: Vec<VoteInput<'_, &[f32]>> = slots
                    .iter()
                    .zip(&replicas)
                    .map(|(&slot, replicas)| (replicas.as_slice(), holders[slot].as_slice()))
                    .collect();
                let elections = quorum_elect_all(&inputs, q_min);
                slots
                    .iter()
                    .zip(elections)
                    .map(|(&slot, election)| {
                        election.map(|e| e.map_value(|at| flat.slots[slot][at].1.clone()))
                    })
                    .collect()
            }
            Sharded(voters) => {
                let mut files: Vec<(&mut ShardedFileVoter, &[usize], Option<Vote>)> = voters
                    .iter_mut()
                    .enumerate()
                    .filter(|(slot, _)| slots.binary_search(slot).is_ok())
                    .map(|(slot, voter)| (voter, holders[slot].as_slice(), None))
                    .collect();
                let chunk = files
                    .len()
                    .div_ceil(byz_kernel::num_threads().max(1))
                    .max(1);
                byz_kernel::parallel_chunks_mut(&mut files, chunk, |_, files| {
                    for (voter, holders, vote) in files {
                        *vote = Some(voter.elect(q_min, holders));
                    }
                });
                files
                    .into_iter()
                    .map(|(_, _, vote)| vote.expect("every file slot is written by one chunk"))
                    .collect()
            }
        }
    }
}

/// A file below the on-time quorum at its origin round, waiting for
/// its fold round `slot.origin + lag`. Admission is frozen at the origin:
/// `holders` is that round's live set (the vote's audit reference) and
/// `awaited` the late holders the plan says will deliver, so the fold
/// round's wait is deterministic in outcome.
struct Parked {
    slot: FileSlot,
    lag: u64,
    holders: Vec<usize>,
    awaited: Vec<usize>,
    store: ReplicaStore,
}

/// The PS side of a round, transport-free: [`begin`](Self::begin) →
/// [`ingest`](Self::ingest) frames or [`offer`](Self::offer) slices while
/// [`wants_more`](Self::wants_more) → [`close`](Self::close). Those two
/// doors share one gate and are the only ways a payload reaches a vote.
pub struct RoundCore {
    wire: WireFormat,
    q_min: usize,
    model_len: usize,
    faults: FaultPlan,
    /// Chunk frames per replica; `None` on the batched wire.
    chunks: Option<usize>,
    /// The assignment graph's holders of each file.
    assigned: Vec<Vec<usize>>,
    /// [`FaultPlan::staleness_lag`] per worker of the membership
    /// universe ([`FaultPlan::membership_universe`]).
    lag: Vec<u64>,
    /// Replica votes of a full round, `K·l`.
    expected_replicas: usize,
    /// Frames the lag-0 workers send in a round.
    expected_frames: usize,

    // ── The open round ──
    t: u64,
    /// The driver's live holders of each file.
    holders: Vec<Vec<usize>>,
    /// Rounds each file's vote is deferred by; 0 = votes on time.
    file_lag: Vec<u64>,
    store: ReplicaStore,
    outcomes: Vec<Option<Vote>>,
    on_time_frames: usize,
    vote_ns: u64,

    /// Parked files, in (origin round, file) order.
    backlog: Vec<Parked>,
}

impl RoundCore {
    /// An engine for `assignment`'s placement and a `model_len`-float
    /// model; reads `config`'s wire format, round mode, quorum floor and
    /// fault plan (the staleness schedule and the worker universe — a
    /// scheduled joiner's id may exceed `K` — derive from it).
    pub fn new(assignment: &Assignment, model_len: usize, config: &ServerConfig) -> Self {
        let (k, f, l) = (
            assignment.num_workers(),
            assignment.num_files(),
            assignment.load(),
        );
        let universe = config.faults.membership_universe(k);
        let lag: Vec<u64> = (0..universe)
            .map(|w| config.faults.staleness_lag(w, config.mode.max_staleness()))
            .collect();
        let chunks = match config.wire {
            WireFormat::Batched => None,
            WireFormat::Chunked(cfg) => Some(num_chunks(model_len, cfg.span_len())),
        };
        // One batch frame per worker, or every chunk of every replica.
        let frames_per_worker = chunks.map_or(1, |chunks| l * chunks);
        RoundCore {
            wire: config.wire,
            q_min: config.q_min,
            model_len,
            faults: config.faults.clone(),
            chunks,
            assigned: (0..f)
                .map(|file| assignment.graph().workers_of(file).to_vec())
                .collect(),
            expected_replicas: k * l,
            expected_frames: lag[..k].iter().filter(|&&lag| lag == 0).count() * frames_per_worker,
            lag,
            t: 0,
            holders: vec![Vec::new(); f],
            file_lag: vec![0; f],
            store: ReplicaStore::new(config.wire, 0..f, model_len),
            outcomes: vec![None; f],
            on_time_frames: 0,
            vote_ns: 0,
            backlog: Vec::new(),
        }
    }

    /// Opens round `t` with `holders[file]` the workers whose replicas
    /// of `file` may vote — the driver's membership decision: the
    /// assigned holders minus the quarantined, or a repaired placement
    /// after churn. Files below the on-time quorum are parked *now*: who
    /// is late, which files defer and which late deliveries to wait for
    /// are functions of the fault plan, never of arrival order, so a late
    /// frame racing into this round finds its slot.
    ///
    /// # Panics
    ///
    /// Panics if `holders` is not one set per file, or names a worker
    /// outside the universe.
    pub fn begin(&mut self, t: u64, holders: &[Vec<usize>]) {
        assert_eq!(holders.len(), self.assigned.len(), "one set per file");
        self.t = t;
        self.outcomes.fill(None);
        (self.on_time_frames, self.vote_ns) = (0, 0);
        for (file, live) in holders.iter().enumerate() {
            // A file votes on time iff at least `q_min` of its live
            // holders are lag-0; otherwise it defers by its slowest live
            // holder's lag. (All holders lag-0 but fewer than `q_min` of
            // them stays on time and fails quorum like any synchronous
            // round.)
            let lags = live
                .iter()
                .filter(|&&w| !self.faults.is_crashed(w))
                .map(|&w| self.lag[w]);
            let on_time = lags.clone().filter(|&lag| lag == 0).count();
            self.file_lag[file] = if on_time >= self.q_min {
                0
            } else {
                lags.max().unwrap_or(0)
            };
            if self.file_lag[file] > 0 {
                // A late replica is awaited only if the plan delivers
                // all of it: waiting for a dropped one would stall the
                // fold round at the deadline.
                let awaited = live
                    .iter()
                    .copied()
                    .filter(|&w| {
                        !self.faults.is_crashed(w)
                            && self.lag[w] > 0
                            && !self.faults.drops_replica(t, w, file)
                            && (0..self.chunks.unwrap_or(0))
                                .all(|c| !self.faults.drops_chunk(t, w, file, c))
                    })
                    .collect();
                self.backlog.push(Parked {
                    slot: FileSlot { origin: t, file },
                    lag: self.file_lag[file],
                    holders: live.clone(),
                    awaited,
                    store: ReplicaStore::new(self.wire, file..file + 1, self.model_len),
                });
            }
            self.holders[file].clone_from(live);
        }
    }

    /// Whether the round still waits for a frame: an on-time worker's,
    /// or a late delivery a file due this round was promised.
    pub fn wants_more(&self) -> bool {
        self.on_time_frames < self.expected_frames
            || self
                .backlog
                .iter()
                .any(|p| p.slot.origin + p.lag <= self.t && !p.awaited.is_empty())
    }

    /// The wire's door to the admission gate, for a frame that came in
    /// on worker slot `slot`: the link's identity of its sender, which
    /// the fan-in stamped. A frame that claims another worker is refused
    /// whole. A payload joins a vote
    /// only if its sender is a worker slot, it belongs to the open round
    /// (or to a parked file of an earlier one), its file exists, the
    /// sender is a live holder that has not delivered it before, and it
    /// has the model's shape.
    ///
    /// A batch entry the open round admits is voted where it lies, inside
    /// the frame, if the frame's payloads are 4-aligned native-order
    /// floats and the gate admitted every one of its entries; otherwise
    /// it is copied out, so a frame pins no more memory than its sender
    /// had admitted, and, once [`close`](Self::close) returns, only
    /// through a winner of its result.
    ///
    /// # Errors
    ///
    /// The [`Reject`] reason when the whole frame is refused; a batch
    /// frame's per-entry refusals are listed in [`Admitted::refused`].
    pub fn ingest(&mut self, slot: usize, frame: &Bytes) -> Result<Admitted, Reject> {
        match self.wire {
            WireFormat::Batched => {
                let batch = decode_gradient_batch(frame).map_err(|_| self.garbage())?;
                let w = self.sender(slot, batch.worker)?;
                let aligned = |e: &BatchEntry| e.raw().as_ptr().cast::<f32>().is_aligned();
                let in_place = cfg!(target_endian = "little") && batch.entries.iter().all(aligned);
                let mut admitted = Admitted::default();
                let mut opened = Vec::new();
                for entry in &batch.entries {
                    let file = entry.file as usize;
                    match self.put(w, batch.iteration, file, Piece::Entry { entry, in_place }) {
                        Ok(landed) => {
                            admitted.accepted += 1;
                            opened.extend((landed == Landed::Open).then_some(file));
                        }
                        Err(reason) => admitted.refused.push((entry.file, reason)),
                    }
                }
                // Decided per frame: a frame with a refused entry backs
                // none of its votes.
                if in_place && !admitted.refused.is_empty() {
                    opened.iter().for_each(|&file| self.store.detach(file, w));
                }
                Ok(admitted)
            }
            WireFormat::Chunked(_) => {
                let view = decode_gradient_chunk(frame).map_err(|_| self.garbage())?;
                let w = self.sender(slot, view.worker)?;
                let file = view.file as usize;
                if self.put(w, view.iteration, file, Piece::Chunk(&view))? == Landed::Open {
                    self.settle(file);
                }
                Ok(Admitted {
                    accepted: 1,
                    ..Admitted::default()
                })
            }
        }
    }

    /// The in-process door to the same gate: worker `w`'s whole replica
    /// of `file` for round `t`, already in memory — no frame, no codec,
    /// and no claim on the receive window
    /// ([`wants_more`](Self::wants_more) counts frames). The engine must
    /// be on the batched wire.
    ///
    /// # Errors
    ///
    /// The [`Reject`] reason [`ingest`](Self::ingest) would give the same
    /// replica as a batch entry.
    pub fn offer(&mut self, w: usize, t: u64, file: usize, replica: &[f32]) -> Result<(), Reject> {
        if w >= self.lag.len() {
            return Err(Reject::UnknownWorker);
        }
        self.put(w, t, file, Piece::Floats(replica)).map(drop)
    }

    /// Books a decoded frame from `slot` against the on-time window and
    /// checks the sender it claims, `worker`, against the slot. Every
    /// frame that is not a known straggler slot's spends one of the
    /// window's expected frames — an impersonating one too, so forgeries
    /// cannot hold a round open.
    fn sender(&mut self, slot: usize, worker: u32) -> Result<usize, Reject> {
        let lag = self.lag.get(slot);
        self.on_time_frames += usize::from(lag.is_none_or(|&lag| lag == 0));
        match lag {
            None => Err(Reject::UnknownWorker),
            Some(_) if worker as usize != slot => Err(Reject::Impersonation),
            Some(_) => Ok(slot),
        }
    }

    /// An undecodable frame spends an expected frame too, so garbage
    /// cannot hold a round open.
    fn garbage(&mut self) -> Reject {
        self.on_time_frames += 1;
        Reject::Malformed
    }

    /// The gate for one payload of known worker `w`, stamped round `t`.
    fn put(&mut self, w: usize, t: u64, file: usize, piece: Piece<'_>) -> Result<Landed, Reject> {
        if file >= self.assigned.len() {
            return Err(Reject::UnknownFile);
        }
        // A parked file — one this round just deferred included — owns
        // its replicas from its origin round on, so on-time and late
        // deliveries assemble in one place.
        if let Some(parked) = self
            .backlog
            .iter_mut()
            .find(|p| p.slot.origin == t && p.slot.file == file)
        {
            if !parked.holders.contains(&w) {
                return Err(Reject::NotHolder);
            }
            parked.store.put(0, w, piece.detached())?;
            if parked.store.is_complete(0, w) {
                parked.awaited.retain(|&awaited| awaited != w);
            }
            return Ok(Landed::Parked);
        }
        if t != self.t {
            return Err(Reject::WrongRound);
        }
        if self.lag[w] > 0 {
            return Err(Reject::Late);
        }
        if !self.holders[file].contains(&w) {
            // Assigned but not live: the driver quarantined the sender.
            let assigned = self.assigned[file].contains(&w);
            return Err(if assigned {
                Reject::Quarantined
            } else {
                Reject::NotHolder
            });
        }
        self.store.put(file, w, piece)?;
        Ok(Landed::Open)
    }

    /// Votes a chunked file of the open round in the window once every
    /// live holder's replica is complete: the gate admits nobody else, so
    /// the vote can never change. Only chunks call it. A batched file
    /// waits for [`close`](Self::close), which votes all of them at once
    /// on the kernel pool — one flat vote on the PS thread costs more
    /// than the window it would hide in.
    fn settle(&mut self, file: usize) {
        if self.outcomes[file].is_none()
            && self.store.complete_count(file) == self.holders[file].len()
        {
            let start = Instant::now();
            self.outcomes[file] = self.store.vote(&[file], self.q_min, &self.holders).pop();
            self.vote_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Closes the round: votes every on-time file not yet finalized and
    /// every parked file due now over whatever arrived, and folds
    /// winners, audits and counters in canonical order.
    ///
    /// `missing_votes` is `K·l` minus the replicas that joined one of
    /// this round's on-time votes complete, on either wire: a quarantined
    /// sender's replica and one that went to a parked file are missing.
    pub fn close(&mut self) -> RoundResult {
        let start = Instant::now();
        let f = self.assigned.len();
        let open: Vec<usize> = (0..f)
            .filter(|&file| self.file_lag[file] == 0 && self.outcomes[file].is_none())
            .collect();
        let flushed = self.store.vote(&open, self.q_min, &self.holders);
        for (&file, outcome) in open.iter().zip(flushed) {
            self.outcomes[file] = Some(outcome);
        }

        let arrived: usize = (0..f).map(|file| self.store.complete_count(file)).sum();
        let mut result = RoundResult {
            missing_votes: self.expected_replicas.saturating_sub(arrived),
            deferred_files: self.file_lag.iter().filter(|&&lag| lag > 0).count(),
            ..RoundResult::default()
        };
        for file in (0..f).filter(|&file| self.file_lag[file] == 0) {
            let slot = FileSlot {
                origin: self.t,
                file,
            };
            let vote = self.outcomes[file].take().expect("voted above");
            result.fold(slot, vote, 0);
        }
        let (due, kept): (Vec<Parked>, Vec<Parked>) = std::mem::take(&mut self.backlog)
            .into_iter()
            .partition(|p| p.slot.origin + p.lag <= self.t);
        self.backlog = kept;
        for mut parked in due {
            let holders = std::slice::from_ref(&parked.holders);
            // Still below quorum at its fold round (late drops, the
            // deadline): abandoned like an on-time quorum failure.
            let vote = parked.store.vote(&[0], self.q_min, holders).remove(0);
            result.fold(parked.slot, vote, parked.lag);
        }
        // Release every replica but the winners the result holds.
        self.store.reset();
        self.vote_ns += start.elapsed().as_nanos() as u64;
        result
    }

    /// Wall-clock nanoseconds the open round has spent voting, inside
    /// the window and in [`close`](Self::close).
    pub fn vote_ns(&self) -> u64 {
        self.vote_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchFrameBuilder, ChunkConfig, RoundMode};
    use bytes::BytesMut;
    use byz_assign::MolsAssignment;

    const STRAGGLER: usize = 7;

    /// A MOLS(5,3) engine at `q_min = 3` whose worker 7 trails by one
    /// round, so its five files park; plus the assigned holder sets.
    fn bounded_engine() -> (RoundCore, Vec<Vec<usize>>) {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let config = ServerConfig {
            mode: RoundMode::BoundedStaleness { max_staleness: 1 },
            faults: FaultPlan::new(1).straggle(STRAGGLER, 2.0),
            q_min: 3,
            ..ServerConfig::default()
        };
        let core = RoundCore::new(&assignment, 4, &config);
        let holders = core.assigned.clone();
        (core, holders)
    }

    fn replica(t: u64, file: usize) -> Vec<f32> {
        vec![(t as usize * 100 + file) as f32; 4]
    }

    /// Offers round `t`'s replica of every file in `files` from every
    /// holder: the gate refuses the straggler's replica of an on-time
    /// file as late and admits every other.
    fn offer_all(core: &mut RoundCore, holders: &[Vec<usize>], t: u64, files: &[usize]) {
        for &file in files {
            for &w in &holders[file] {
                let verdict = core.offer(w, t, file, &replica(t, file));
                let late = core.file_lag[file] == 0 && w == STRAGGLER;
                assert_eq!(verdict, if late { Err(Reject::Late) } else { Ok(()) });
            }
        }
    }

    #[test]
    fn below_quorum_is_what_close_abandons_now_or_at_the_fold() {
        let (mut core, holders) = bounded_engine();
        let parked: Vec<usize> = (0..25)
            .filter(|&f| holders[f].contains(&STRAGGLER))
            .collect();
        let on_time: Vec<usize> = (0..25).filter(|f| !parked.contains(f)).collect();
        core.begin(1, &holders);
        // Starve two on-time files (one replica, none) and one parked
        // file (its two on-time holders, never the straggler).
        let (thin, empty, stranded) = (on_time[3], on_time[8], parked[2]);
        let fed: Vec<usize> = (0..25)
            .filter(|f| ![thin, empty, stranded].contains(f))
            .collect();
        offer_all(&mut core, &holders, 1, &fed);
        core.offer(holders[thin][0], 1, thin, &replica(1, thin))
            .unwrap();
        for &w in holders[stranded].iter().filter(|&&w| w != STRAGGLER) {
            core.offer(w, 1, stranded, &replica(1, stranded)).unwrap();
        }

        let abandoned = |result: &RoundResult| -> Vec<(u64, usize, QuorumError)> {
            let each = result.abandoned.iter();
            each.map(|&(slot, error)| (slot.origin, slot.file, error))
                .collect()
        };
        let short = |got| QuorumError::QuorumNotMet { got, needed: 3 };
        let mut now = vec![(1, thin, short(1)), (1, empty, QuorumError::NoReplicas)];
        now.sort_by_key(|&(_, file, _)| file);
        assert_eq!(abandoned(&core.close()), now);
        core.begin(2, &holders);
        offer_all(&mut core, &holders, 2, &on_time);
        let second = core.close();
        assert_eq!(abandoned(&second), vec![(1, stranded, short(2))]);
        assert_eq!(second.stale_folded, 4);
    }

    // The batched store's contract, checked by pointer ranges like
    // `batch.rs::payloads_are_views_not_copies`: the open round votes
    // each replica inside its frame when every entry of an aligned frame
    // was admitted there, and holds a copy of just the payload otherwise.

    /// Worker `w`'s round-`t` frame, built in place the way a worker
    /// builds it: one [`replica`]-valued entry per file of `files`.
    fn built(t: u64, w: usize, files: &[usize]) -> Bytes {
        let mut builder = BatchFrameBuilder::new(files.len(), files.len() * 4);
        builder.begin(t, w as u32, files.len());
        for &file in files {
            builder.next_slot(4).copy_from_slice(&replica(t, file));
            builder.commit(file as u32);
        }
        builder.finish()
    }

    /// Every whole replica `store` holds, as `(worker, run)`.
    fn runs(store: &ReplicaStore) -> Vec<(usize, &Bytes)> {
        match store {
            Flat(flat) => flat
                .slots
                .iter()
                .flatten()
                .map(|(w, run)| (*w, run))
                .collect(),
            Sharded(_) => unreachable!("the batched wire"),
        }
    }

    /// Whether `run`'s bytes lie inside `frame`'s.
    fn inside(run: &Bytes, frame: &Bytes) -> bool {
        let (at, base) = (run.as_ptr() as usize, frame.as_ptr() as usize);
        at >= base && at + run.len() <= base + frame.len()
    }

    /// The worker a well-formed gradient frame names: the slot an
    /// honest link delivers it from.
    fn sent_by(frame: &Bytes) -> usize {
        let worker = match decode_gradient_batch(frame) {
            Ok(batch) => batch.worker,
            Err(_) => decode_gradient_chunk(frame).unwrap().worker,
        };
        worker as usize
    }

    fn files_of(holders: &[Vec<usize>], w: usize) -> Vec<usize> {
        (0..holders.len())
            .filter(|&file| holders[file].contains(&w))
            .collect()
    }

    #[test]
    fn admitted_replicas_are_voted_inside_their_frames_until_close() {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let mut core = RoundCore::new(&assignment, 4, &ServerConfig::default());
        let holders = core.assigned.clone();
        for t in 1..=2 {
            core.begin(t, &holders);
            let frames: Vec<Bytes> = (0..15)
                .map(|w| built(t, w, &files_of(&holders, w)))
                .collect();
            for (w, frame) in frames.iter().enumerate() {
                assert_eq!(core.ingest(w, frame).unwrap().accepted, 5);
            }
            let held = runs(&core.store);
            assert_eq!(held.len(), 75);
            for (w, run) in held {
                assert!(inside(run, &frames[w]), "worker {w}'s replica was copied");
            }
            let result = core.close();
            assert_eq!(result.winners.len(), 25);
            for (slot, winner) in result.voted.iter().zip(&result.winners) {
                assert_eq!(**winner, replica(t, slot.file));
            }
            assert!(runs(&core.store).is_empty(), "close released every frame");
        }
    }

    /// Every worker's round-`t` upload as the wire carries it — one batch
    /// frame per worker, or every chunk of every replica — each frame
    /// the slice of a read block the way the socket reader cuts it, plus
    /// those blocks.
    fn uploads(wire: WireFormat, holders: &[Vec<usize>], t: u64) -> (Vec<Bytes>, Vec<Bytes>) {
        let frames = (0..15).flat_map(|w| match wire {
            WireFormat::Batched => vec![built(t, w, &files_of(holders, w))],
            WireFormat::Chunked(cfg) => files_of(holders, w)
                .into_iter()
                .flat_map(|file| {
                    let g = replica(t, file);
                    crate::chunk::encode_gradient_chunks(t, w as u32, file as u32, &g, &cfg)
                })
                .collect(),
        });
        frames
            .map(|frame| {
                // Keep the frame's alignment, so batch payloads stay
                // votable in place.
                let mut block = vec![0u8; frame.len() + 3];
                let lead = (frame.as_ptr() as usize).wrapping_sub(block.as_ptr() as usize) % 4;
                block[lead..lead + frame.len()].copy_from_slice(&frame);
                let block = Bytes::from(block);
                (block.slice(lead..lead + frame.len()), block)
            })
            .unzip()
    }

    #[test]
    fn a_held_round_result_keeps_its_winners_through_the_next_round() {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        for wire in [
            WireFormat::Batched,
            WireFormat::Chunked(ChunkConfig::dense(3)),
        ] {
            let config = ServerConfig {
                wire,
                ..ServerConfig::default()
            };
            let mut core = RoundCore::new(&assignment, 4, &config);
            let holders = core.assigned.clone();
            let mut round = |t: u64| {
                core.begin(t, &holders);
                let (frames, blocks) = uploads(wire, &holders, t);
                frames
                    .iter()
                    .for_each(|frame| assert!(core.ingest(sent_by(frame), frame).is_ok()));
                (core.close(), blocks)
            };
            let winners_are = |result: &RoundResult, t: u64| {
                let mut each = result.voted.iter().zip(&result.winners);
                each.all(|(slot, winner)| **winner == replica(t, slot.file))
            };
            let (first, blocks) = round(1);
            let (second, _) = round(2);
            assert!(
                winners_are(&first, 1),
                "{wire:?}: round 1's winners were overwritten"
            );
            assert!(winners_are(&second, 2), "{wire:?}");
            let at = |result: &RoundResult| -> Vec<*const f32> {
                result.winners.iter().map(|w| w.as_ptr()).collect()
            };
            let (first_at, second_at) = (at(&first), at(&second));
            assert!(first_at.iter().all(|p| !second_at.contains(p)), "{wire:?}");

            // A block the held result reads a winner from stays pinned,
            // and is reclaimable once the result drops.
            let reclaimed: Vec<Result<BytesMut, Bytes>> =
                blocks.into_iter().map(BytesMut::try_from).collect();
            let pinned = reclaimed.iter().filter(|block| block.is_err()).count();
            assert_eq!(pinned > 0, wire == WireFormat::Batched, "{wire:?}");
            drop(first);
            for block in reclaimed.into_iter().filter_map(Result::err) {
                assert!(
                    BytesMut::try_from(block).is_ok(),
                    "{wire:?}: a frame outlived its result"
                );
            }

            // With every result dropped, a chunked round reuses its
            // files' buffers: steady state allocates no winner.
            drop(second);
            let (third, _) = round(3);
            assert!(winners_are(&third, 3), "{wire:?}");
            if wire != WireFormat::Batched {
                assert_eq!(at(&third), second_at, "{wire:?}: a buffer was not reused");
            }
        }
    }

    #[test]
    fn a_chunked_file_votes_once_its_holders_complete_and_a_batched_one_at_close() {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        for wire in [
            WireFormat::Batched,
            WireFormat::Chunked(ChunkConfig::dense(3)),
        ] {
            let config = ServerConfig {
                wire,
                ..ServerConfig::default()
            };
            let mut core = RoundCore::new(&assignment, 4, &config);
            let holders = core.assigned.clone();
            core.begin(1, &holders);
            // Only file 0's holders upload: file 0 is complete, each of
            // their other files has one replica of three.
            let (frames, _) = uploads(wire, &holders, 1);
            for frame in &frames {
                if holders[0].contains(&sent_by(frame)) {
                    core.ingest(sent_by(frame), frame).unwrap();
                }
            }
            let voted: Vec<usize> = (0..25).filter(|&f| core.outcomes[f].is_some()).collect();
            let eager = if wire == WireFormat::Batched {
                vec![]
            } else {
                vec![0]
            };
            assert_eq!(voted, eager, "{wire:?}");
            let result = core.close();
            assert_eq!(result.voted[0].file, 0);
            assert_eq!(*result.winners[0], replica(1, 0));
        }
    }

    #[test]
    fn a_frame_claiming_another_slot_is_refused_and_spends_its_frame() {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let chunked = WireFormat::Chunked(ChunkConfig::dense(4));
        for wire in [WireFormat::Batched, chunked] {
            let config = ServerConfig {
                wire,
                ..ServerConfig::default()
            };
            let mut core = RoundCore::new(&assignment, 4, &config);
            let holders = core.assigned.clone();
            core.begin(1, &holders);
            // Worker 3's upload, well formed and sealed, in on slot 0.
            let (frames, _) = uploads(wire, &holders, 1);
            let of = |w: usize| frames.iter().filter(move |f| sent_by(f) == w);
            for forged in of(3) {
                assert_eq!(core.ingest(0, forged), Err(Reject::Impersonation));
            }
            assert_eq!(core.on_time_frames, of(3).count(), "{wire:?}");
            // Worker 3's own delivery still lands whole: the forgery took
            // none of its places.
            for frame in of(3) {
                assert_eq!(core.ingest(3, frame).map(|a| a.refused), Ok(vec![]));
            }
            assert_eq!(core.close().missing_votes, 75 - 5, "{wire:?}");
        }
    }

    #[test]
    fn a_frame_with_a_refused_entry_leaves_only_a_copy_behind() {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let mut core = RoundCore::new(&assignment, 4, &ServerConfig::default());
        let holders = core.assigned.clone();
        core.begin(1, &holders);
        // One file worker 0 holds, padded with four it does not.
        let held = files_of(&holders, 0)[0];
        let padding = (0..25).filter(|file| !holders[*file].contains(&0));
        let files: Vec<usize> = std::iter::once(held).chain(padding.take(4)).collect();
        let frame = built(1, 0, &files);
        let admitted = core.ingest(0, &frame).unwrap();
        assert_eq!(admitted.accepted, 1);
        let refused = admitted.refused.iter().map(|&(_, reason)| reason);
        assert_eq!(refused.collect::<Vec<_>>(), vec![Reject::NotHolder; 4]);
        let held_runs = runs(&core.store);
        assert_eq!(held_runs.len(), 1);
        let (_, run) = held_runs[0];
        assert!(!inside(run, &frame), "the frame outlived its ingest");
        assert_eq!(floats(run), replica(1, held));
    }

    #[test]
    fn a_parked_entry_is_a_copy_and_its_on_time_siblings_are_views() {
        let (mut core, holders) = bounded_engine();
        core.begin(1, &holders);
        // A worker sharing one file with the straggler: that file parks,
        // its other four vote on time.
        let parked = |file: &usize| holders[*file].contains(&STRAGGLER);
        let w = (0..15)
            .find(|&w| w != STRAGGLER && files_of(&holders, w).iter().any(parked))
            .unwrap();
        let frame = built(1, w, &files_of(&holders, w));
        assert_eq!(core.ingest(w, &frame).unwrap().accepted, 5);
        let on_time = runs(&core.store);
        assert_eq!(on_time.len(), 4);
        assert!(on_time.iter().all(|(_, run)| inside(run, &frame)));
        let backlog: Vec<(usize, &Bytes)> =
            core.backlog.iter().flat_map(|p| runs(&p.store)).collect();
        assert_eq!(backlog.len(), 1);
        assert!(
            !inside(backlog[0].1, &frame),
            "a parked file pinned a frame"
        );
    }
}
