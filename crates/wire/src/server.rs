//! The threaded message-passing parameter server.

use crate::batch::BatchFrameBuilder;
use crate::chunk::{
    encode_gradient_chunk_into, num_chunks, ChunkConfig, ChunkScheme, CHUNK_PREFIX_LEN,
};
use crate::link::{ChannelLink, Link, LinkError};
use crate::message::{encode_model_broadcast, MessageView, FRAME_HEADER_LEN};
use crate::round::RoundCore;
use crate::session::{Delivery, Session};
use crate::{Assignment, Message};
use bytes::{Bytes, BytesMut};
use byz_aggregate::{CoordinateMedian, VoteAudit};
use byz_cluster::{FaultPlan, PhaseTimings};
use byz_data::Dataset;
use byz_nn::FastMlp;
use byz_reputation::{QuarantineEvent, ReputationConfig, ReputationLedger};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attacks computable from a worker's *local* view (no collusion channel
/// needed — the forgeries are still identical across colluders because
/// they are deterministic functions of shared state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalAttack {
    /// Send `−c·g` for the locally computed true gradient `g`.
    ReversedGradient {
        /// Positive magnification.
        magnitude: f32,
    },
    /// Send a constant vector.
    Constant {
        /// The value in every coordinate.
        value: f32,
    },
}

impl LocalAttack {
    /// Overwrites the true gradient with the forgery, wherever it lives
    /// (a frame slot or an owned buffer).
    fn forge(&self, gradient: &mut [f32]) {
        match self {
            LocalAttack::ReversedGradient { magnitude } => {
                for g in gradient {
                    let true_g = *g;
                    *g = -magnitude * true_g;
                }
            }
            LocalAttack::Constant { value } => gradient.fill(*value),
        }
    }
}

/// How gradients are laid out on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFormat {
    /// One frame per worker per round carrying all of its replicas
    /// (the pre-chunking protocol, and the default).
    Batched,
    /// Each replica streams as `num_chunks` independent
    /// `KIND_GRADIENT_CHUNK` frames covering disjoint coordinate
    /// ranges, optionally sparsified per the [`ChunkConfig`]'s scheme.
    /// The PS votes incrementally per shard as chunks arrive
    /// ([`ShardedFileVoter`](crate::ShardedFileVoter)), holding peak
    /// decode state to O(chunk) instead of O(d); a lost or corrupt chunk
    /// degrades its replica exactly like a lost whole replica.
    Chunked(ChunkConfig),
}

impl WireFormat {
    /// The longest frame a worker holding `load` files of a `d`-float
    /// model uploads on this wire — the reader budget for an admitted
    /// socket worker.
    pub(crate) fn max_upload_frame_len(&self, load: usize, d: usize) -> usize {
        match self {
            // Batch prefix (iteration, worker, count), then per file its
            // (file, len) header and d floats.
            WireFormat::Batched => FRAME_HEADER_LEN + 8 + 4 + 4 + load * (4 + 4 + 4 * d),
            WireFormat::Chunked(cfg) => {
                let range = cfg.span_len().min(d);
                let payload = match cfg.scheme {
                    ChunkScheme::Dense => 4 * range,
                    // Top-k (count, then index and value per kept
                    // coordinate), or its dense fallback.
                    ChunkScheme::TopK(sp) => (4 * range).max(4 + 8 * sp.k.min(range)),
                    ChunkScheme::Signs => 2 * range.div_ceil(8),
                };
                FRAME_HEADER_LEN + CHUNK_PREFIX_LEN + payload
            }
        }
    }
}

/// How the PS schedules the stages of a round.
///
/// Both modes compute bit-identical parameters, vote outcomes, audits
/// and reputation trajectories: streaming changes only *when* votes run,
/// never what they see — outcomes land in per-file slots and every
/// counter, audit and update is folded in canonical file order after the
/// collection window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundMode {
    /// Strict phases: collect every frame, then vote all files, then
    /// update (the pre-pipelining protocol, and the default).
    #[default]
    Barrier,
    /// Pipelined: workers emit each file's frames as soon as that file's
    /// gradient is computed, the PS finalizes each file's vote the
    /// moment its last live replica completes (stragglers only delay
    /// their own files). Vote work hides inside the collection window
    /// instead of serializing after it.
    Streaming,
    /// Bounded staleness: the PS closes each round once the *on-time*
    /// quorum of files finalizes, never waiting for stragglers. A
    /// worker's staleness lag is derived deterministically from the
    /// fault plan ([`FaultPlan::staleness_lag`]), so the schedule is a
    /// pure function of the plan, never of observed arrival times. Files
    /// with at least `q_min` on-time live holders vote at their own
    /// round over the on-time replicas only (a late holder is audited
    /// `Absent`, which is benign). Files below the
    /// on-time quorum are *deferred*: their vote finalizes over all
    /// live holders and folds into the round `lag` steps later, with
    /// the winner discounted by `1/(1 + lag)`, in canonical
    /// `(origin round, file, shard)` order. With `max_staleness = 0`
    /// every lag is zero and the schedule is bit-identical to
    /// [`RoundMode::Barrier`].
    BoundedStaleness {
        /// Maximum admitted lateness `s` in rounds; gradients due later
        /// than `s` rounds after their origin are discarded like drops.
        max_staleness: u64,
    },
}

impl RoundMode {
    /// Rounds a replica may trail its origin and still be counted: `s`
    /// under [`RoundMode::BoundedStaleness`], 0 otherwise. Once the PS
    /// has begun a round past `t + s`, nothing stamped `t` reaches a
    /// vote.
    pub fn max_staleness(self) -> u64 {
        match self {
            RoundMode::Barrier | RoundMode::Streaming => 0,
            RoundMode::BoundedStaleness { max_staleness } => max_staleness,
        }
    }
}

/// Training configuration for the message-passing server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Batch size (must be divisible by the assignment's file count).
    pub batch_size: usize,
    /// Synchronous iterations to run.
    pub iterations: usize,
    /// Constant learning rate.
    pub learning_rate: f32,
    /// Momentum.
    pub momentum: f32,
    /// The Byzantine worker set (static, as in the omniscient evaluation).
    pub byzantine: Vec<usize>,
    /// What Byzantine workers send.
    pub attack: LocalAttack,
    /// Benign-fault plan shared with the in-process trainer
    /// ([`byz_cluster::FaultPlan`]): crashed workers receive traffic but
    /// never reply (the PS tolerates them via receive timeouts — a
    /// crashed replica simply casts no vote); stragglers sleep
    /// `straggler_unit × (multiplier − 1)` before uploading; message
    /// drops suppress individual frames using the same deterministic
    /// per-(round, worker, file) hash the simulator uses.
    pub faults: FaultPlan,
    /// Degradation policy shared with the in-process protocol: the
    /// minimum number of arrived replicas for a file's vote to count.
    /// `1` accepts any survivor (availability-first); `r` demands the
    /// full replica set (consistency-first). Guarantee: with at most
    /// `⌈q_min/2⌉ − 1` Byzantine replicas among those received, the vote
    /// is the honest gradient. A file below it is abandoned for the
    /// round, never re-requested.
    pub q_min: usize,
    /// How gradients are framed. [`WireFormat::Batched`] preserves the
    /// pre-chunking protocol bit-for-bit; [`WireFormat::Chunked`] streams
    /// fixed-size chunk frames and votes shard-wise at the PS.
    pub wire: WireFormat,
    /// Whether the round runs as strict barriers or as a pipeline
    /// overlapping compute, wire, vote and update. Semantically
    /// identical either way; see [`RoundMode`].
    pub mode: RoundMode,
    /// How long the PS waits for a straggling frame before declaring the
    /// remaining replicas of the round missing.
    pub receive_timeout: Duration,
    /// Hard per-round deadline at the PS: frames not collected by then
    /// are treated as dropped even if individual receives kept succeeding
    /// (guards against a trickle of slow frames stretching the round).
    pub round_deadline: Duration,
    /// Wall-clock sleep per unit of straggler latency multiplier above 1.
    /// A straggler whose total delay exceeds the receive window is
    /// indistinguishable from a message-dropper — which is the point: the
    /// two fault classes share one degradation policy.
    pub straggler_unit: Duration,
    /// Batch-sampling seed.
    pub seed: u64,
    /// Vote-audit reputation at the PS. When set, every round's vote
    /// audits feed a [`ReputationLedger`]; frames from quarantined
    /// workers are ignored on arrival (worker file sets are fixed at
    /// spawn, so their files simply vote from the surviving replicas),
    /// and [`RoundSummary`] surfaces the scores and events. `None`
    /// preserves the pre-reputation protocol exactly.
    pub reputation: Option<ReputationConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_size: 100,
            iterations: 50,
            learning_rate: 0.05,
            momentum: 0.9,
            byzantine: Vec::new(),
            attack: LocalAttack::Constant { value: -100.0 },
            faults: FaultPlan::none(),
            q_min: 1,
            wire: WireFormat::Batched,
            mode: RoundMode::Barrier,
            receive_timeout: Duration::from_millis(500),
            round_deadline: Duration::from_secs(5),
            straggler_unit: Duration::from_millis(1),
            seed: 0,
            reputation: None,
        }
    }
}

/// Summary of one synchronous round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Files whose majority vote was not strict (diagnostic).
    pub non_strict_votes: usize,
    /// Frames received by the PS this round. An in-process run's last
    /// round also carries the uploads still in flight when it closed
    /// (see [`MessagePassingCluster::train_run`]).
    pub frames_received: usize,
    /// Bytes received by the PS this round.
    pub bytes_received: usize,
    /// Bytes the PS sent this round: the broadcast frame's length times
    /// the worker links it was handed to.
    pub bytes_sent: usize,
    /// Replica votes that never arrived (crashed workers, dropped or
    /// deadline-expired frames).
    pub missing_votes: usize,
    /// Files voted from a partial replica set (`q_min ≤ arrived < r`).
    pub degraded_votes: usize,
    /// Files that produced no winner this round (fewer than `q_min`
    /// replicas arrived), stale ones due this round included.
    pub abandoned_files: usize,
    /// Files whose vote was deferred to a later round because they fell
    /// below the on-time quorum. Always zero outside
    /// [`RoundMode::BoundedStaleness`].
    pub deferred_files: usize,
    /// Stale winners from earlier rounds folded into this round's
    /// update, discounted by `1/(1 + lag)`. Always zero outside
    /// [`RoundMode::BoundedStaleness`].
    pub stale_folded: usize,
    /// Suspicion scores after this round's reputation fold, indexed by
    /// worker. Empty when reputation is disabled.
    pub suspicions: Vec<f64>,
    /// Quarantines/readmissions fired this round. Empty when disabled.
    pub reputation_events: Vec<QuarantineEvent>,
    /// The cumulative quarantined worker set after this round,
    /// ascending. Empty when reputation is disabled.
    pub quarantined_workers: Vec<usize>,
    /// The round's vote audits in canonical (ascending-file) order, one
    /// per file that produced a winner. Deterministic: transports and
    /// round modes must agree on these byte for byte — the socket
    /// conformance suite compares them directly.
    pub audits: Vec<VoteAudit>,
    /// Measured wall-clock phase split of this round. In
    /// [`RoundMode::Streaming`] votes run inside the wire window, so
    /// [`PhaseTimings::overlap_ratio`] rises above 1. Wall-clock values:
    /// nondeterministic across runs.
    pub timings: PhaseTimings,
}

/// Everything a training run produced, in directly comparable form: the
/// socket conformance suite asserts a loopback-TCP run equals a channel
/// run on every field (timings inside the summaries excepted — they are
/// wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrainingRun {
    /// The trained flat parameters.
    pub params: Vec<f32>,
    /// One summary per round, vote audits included.
    pub summaries: Vec<RoundSummary>,
    /// The final reputation ledger, serialized; `None` when reputation
    /// was disabled.
    pub ledger_bytes: Option<Vec<u8>>,
}

/// Why a worker loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// The PS said `Shutdown`: training is over.
    Shutdown,
    /// The link died (channel dropped, socket closed or desynced). Over
    /// channels this means the run is over; over sockets the caller may
    /// reconnect and re-enter the loop.
    LinkClosed,
}

/// How long an idle worker waits on its link before re-checking for a
/// broadcast. Purely a liveness knob (the loop just waits again): the
/// protocol's real deadlines live at the PS, so this only bounds how
/// fast a worker notices a dead transport.
const IDLE_RECV_TIMEOUT: Duration = Duration::from_millis(200);

/// A parameter server plus `K` worker threads, communicating exclusively
/// through framed [`Message`]s over channels.
pub struct MessagePassingCluster {
    assignment: Assignment,
    dataset: Arc<Dataset>,
    model_dims: Vec<usize>,
}

impl MessagePassingCluster {
    /// Creates the cluster. `model_dims` are MLP layer widths whose input
    /// width must equal the dataset's flattened sample length.
    ///
    /// # Panics
    ///
    /// Panics if the model input width disagrees with the dataset.
    pub fn new(assignment: Assignment, dataset: Arc<Dataset>, model_dims: Vec<usize>) -> Self {
        assert_eq!(
            model_dims.first().copied(),
            Some(dataset.sample_len()),
            "model input width must match the dataset sample length"
        );
        MessagePassingCluster {
            assignment,
            dataset,
            model_dims,
        }
    }

    /// Runs the full synchronous training protocol over real threads and
    /// serialized frames. Returns the trained flat parameters and the
    /// per-round summaries.
    ///
    /// Malformed, forged or late frames never panic the PS: the round
    /// engine's admission gate refuses them and the affected replicas
    /// degrade like dropped ones.
    ///
    /// # Panics
    ///
    /// As [`train_run`](Self::train_run).
    pub fn train(
        &self,
        initial_params: Vec<f32>,
        config: &ServerConfig,
    ) -> (Vec<f32>, Vec<RoundSummary>) {
        let run = self.train_run(initial_params, config);
        (run.params, run.summaries)
    }

    /// [`train`](Self::train), returning the full comparable record
    /// (summaries with audits, serialized reputation ledger).
    ///
    /// Uploads the PS had not dequeued when the last round closed — a
    /// bounded-staleness straggler it outran — are counted into that
    /// round's `frames_received` / `bytes_received` once the workers
    /// have exited, so the run's traffic totals are what the workers
    /// sent. A straggler skips the broadcasts the PS can no longer count
    /// (see `worker_loop`), so how many it sends depends on timing.
    ///
    /// # Panics
    ///
    /// Panics if the batch size is not divisible by the file count or
    /// lies outside `1..=dataset.len()`, or if a worker thread panics.
    /// The batch checks run before any worker is spawned: a PS that
    /// panicked inside the scope would leave its workers waiting on
    /// senders that are never dropped.
    pub fn train_run(&self, initial_params: Vec<f32>, config: &ServerConfig) -> WireTrainingRun {
        self.train_linked(initial_params, config, |_, link| link)
    }

    /// [`train_run`](Self::train_run), each worker running over
    /// `wrap(worker, its channel link)`.
    fn train_linked<L: Link>(
        &self,
        initial_params: Vec<f32>,
        config: &ServerConfig,
        wrap: impl Fn(usize, ChannelLink) -> L + Sync,
    ) -> WireTrainingRun {
        let k = self.assignment.num_workers();
        let f = self.assignment.num_files();
        assert_eq!(
            config.batch_size % f,
            0,
            "batch size must be divisible by the file count"
        );
        assert!(
            (1..=self.dataset.len()).contains(&config.batch_size),
            "batch size {} outside 1..={} (the dataset size)",
            config.batch_size,
            self.dataset.len()
        );

        // Frames travel as refcounted `Bytes`: broadcasting one encoded
        // model to K workers clones a pointer, never the payload.
        let (to_ps, from_workers): (Sender<Bytes>, Receiver<Bytes>) = unbounded();
        let mut to_workers: Vec<Sender<Bytes>> = Vec::with_capacity(k);

        let mut run = std::thread::scope(|scope| {
            for worker_id in 0..k {
                let (tx, rx): (Sender<Bytes>, Receiver<Bytes>) = unbounded();
                to_workers.push(tx);
                let ctx = self.worker_context(worker_id, config);
                let to_ps = to_ps.clone();
                let wrap = &wrap;
                scope.spawn(move || {
                    let mut link = wrap(worker_id, ChannelLink::new(to_ps, rx));
                    worker_loop(&ctx, &mut link)
                });
            }
            drop(to_ps);

            let result = self.ps_loop(initial_params, config, &to_workers, &from_workers);

            let bye = Message::Shutdown.encode();
            for tx in &to_workers {
                let _ = tx.send(bye.clone());
            }
            result
        });

        // A bounded-staleness PS never waits for a late worker whose
        // files all made the on-time quorum, so how many of that
        // worker's (discarded) uploads it dequeued before its last round
        // closed is a race. They crossed the wire either way, and every
        // worker has exited by now: what is still queued is the rest.
        if let Some(last) = run.summaries.last_mut() {
            while let Ok(frame) = from_workers.try_recv() {
                last.frames_received += 1;
                last.bytes_received += frame.len();
            }
        }
        run
    }

    /// Builds the per-worker protocol context the worker loop runs on —
    /// shared by the in-process transport (threads over channels) and
    /// the socket deployment (processes over TCP).
    pub(crate) fn worker_context(&self, worker_id: usize, config: &ServerConfig) -> WorkerContext {
        WorkerContext {
            worker_id,
            my_files: self.assignment.graph().files_of(worker_id).to_vec(),
            dataset: Arc::clone(&self.dataset),
            dims: self.model_dims.clone(),
            is_byz: config.byzantine.contains(&worker_id),
            is_crashed: config.faults.is_crashed(worker_id),
            attack: config.attack,
            wire: config.wire,
            flush_per_file: config.mode == RoundMode::Streaming,
            plan: config.faults.clone(),
            max_staleness: config.mode.max_staleness(),
            delay: config
                .straggler_unit
                .mul_f64(config.faults.straggle_factor(worker_id) - 1.0),
            idle_timeout: IDLE_RECV_TIMEOUT,
        }
    }

    /// The parameter-server side of the protocol: a [`Session`] over the
    /// [`Fabric`] delivery, stepping along the coordinate median at the
    /// configured learning rate, one [`RoundSummary`] per round.
    ///
    /// Deliberately typed against channels on both sides: the socket
    /// deployment adapts TCP connections *into* exactly these channels
    /// (per-connection reader threads fan into `from_workers`, per-slot
    /// writer threads drain the `to_workers` senders), so a networked
    /// run executes this identical loop on the identical frame multiset
    /// — which is what makes TCP ≡ channel bit-identity a structural
    /// property instead of a test-enforced hope.
    pub(crate) fn ps_loop(
        &self,
        initial_params: Vec<f32>,
        config: &ServerConfig,
        to_workers: &[Sender<Bytes>],
        from_workers: &Receiver<Bytes>,
    ) -> WireTrainingRun {
        let mut session =
            Session::new(&self.assignment, self.dataset.len(), initial_params, config);
        let mut fabric = Fabric {
            assignment: &self.assignment,
            config,
            to_workers,
            from_workers,
            bytes_sent: 0,
            frames_received: 0,
            bytes_received: 0,
        };
        let summaries = (1..=config.iterations)
            .map(|iteration| {
                // Invariant expect: the session aggregates only non-empty
                // winner sets, and the admission gate sizes every winner to
                // the model even against arbitrary socket peers.
                let round = session
                    .round(&mut fabric, &CoordinateMedian, config.learning_rate)
                    .expect("median is always applicable");
                let ledger = session.ledger();
                let result = round.result;
                RoundSummary {
                    iteration,
                    non_strict_votes: result.non_strict_votes,
                    frames_received: fabric.frames_received,
                    bytes_received: fabric.bytes_received,
                    bytes_sent: fabric.bytes_sent,
                    missing_votes: result.missing_votes,
                    degraded_votes: result.degraded_votes,
                    abandoned_files: result.abandoned.len(),
                    deferred_files: result.deferred_files,
                    stale_folded: result.stale_folded,
                    suspicions: ledger.map(ReputationLedger::suspicions).unwrap_or_default(),
                    reputation_events: round.events,
                    quarantined_workers: ledger
                        .map(ReputationLedger::quarantined_workers)
                        .unwrap_or_default(),
                    audits: result.audits,
                    timings: round.timings,
                }
            })
            .collect();
        let (params, ledger) = session.into_parts();
        WireTrainingRun {
            params,
            summaries,
            ledger_bytes: ledger.as_ref().map(ReputationLedger::to_bytes),
        }
    }
}

/// The PS's [`Delivery`]: one broadcast per round over the worker
/// channels, then whatever the fan-in brings inside the receive window,
/// with the traffic it counted.
struct Fabric<'a> {
    assignment: &'a Assignment,
    config: &'a ServerConfig,
    to_workers: &'a [Sender<Bytes>],
    from_workers: &'a Receiver<Bytes>,
    bytes_sent: usize,
    frames_received: usize,
    bytes_received: usize,
}

impl Delivery for Fabric<'_> {
    /// Broadcasts, then names the assigned holders minus the
    /// quarantined: worker file sets are fixed at spawn, so the PS drops
    /// a quarantined worker's replicas from the vote rather than
    /// reassigning its files over the wire.
    fn send(
        &mut self,
        t: u64,
        params: &[f32],
        files: &[Vec<usize>],
        ledger: Option<&mut ReputationLedger>,
    ) -> Vec<Vec<usize>> {
        let files: Vec<Vec<u32>> = files
            .iter()
            .map(|file| file.iter().map(|&i| i as u32).collect())
            .collect();
        let broadcast = encode_model_broadcast(t, params, &files);
        self.bytes_sent = 0;
        for tx in self.to_workers {
            // A closed channel means the worker thread is gone — the
            // same observable failure as a crash, and the receive
            // timeout already covers missing replies. The clone is a
            // refcount bump, not a copy of the model.
            if tx.send(broadcast.clone()).is_ok() {
                self.bytes_sent += broadcast.len();
            }
        }
        let in_service = |w: &usize| !ledger.as_ref().is_some_and(|l| l.is_quarantined(*w));
        (0..self.assignment.num_files())
            .map(|file| {
                let assigned = self.assignment.graph().workers_of(file);
                assigned.iter().copied().filter(in_service).collect()
            })
            .collect()
    }

    /// Every receive waits at most `receive_timeout` and the whole round
    /// at most `round_deadline`; a frame that misses either is treated
    /// exactly like a dropped one.
    fn collect(&mut self, _t: u64, core: &mut RoundCore, opened: Instant) -> Option<Instant> {
        (self.frames_received, self.bytes_received) = (0, 0);
        let mut first = None;
        while core.wants_more() {
            let Some(left) = self.config.round_deadline.checked_sub(opened.elapsed()) else {
                break;
            };
            let wait = left.min(self.config.receive_timeout);
            let Ok(frame) = self.from_workers.recv_timeout(wait) else {
                break;
            };
            first.get_or_insert_with(Instant::now);
            self.frames_received += 1;
            self.bytes_received += frame.len();
            // A refused frame or entry casts no vote: it degrades its
            // replica exactly like a dropped one, and never panics the PS.
            let _ = core.ingest(&frame);
        }
        first
    }
}

/// Everything a worker's protocol loop needs besides its transport. The
/// same context drives an in-process thread over channels and a remote
/// process over TCP — only the [`Link`] differs.
pub(crate) struct WorkerContext {
    pub(crate) worker_id: usize,
    pub(crate) my_files: Vec<usize>,
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) dims: Vec<usize>,
    pub(crate) is_byz: bool,
    pub(crate) is_crashed: bool,
    pub(crate) attack: LocalAttack,
    pub(crate) wire: WireFormat,
    /// Upload each file's replica the moment it is computed (streaming
    /// rounds) instead of once per round.
    pub(crate) flush_per_file: bool,
    pub(crate) plan: FaultPlan,
    /// The PS's horizon `s` ([`RoundMode::max_staleness`]): a broadcast
    /// with one past `s` rounds newer queued behind it is moot.
    pub(crate) max_staleness: u64,
    pub(crate) delay: Duration,
    pub(crate) idle_timeout: Duration,
}

/// The worker's protocol loop over any [`Link`].
///
/// Takes the context by reference because a socket worker re-enters the
/// loop after a reconnect — the model replica is per-connection state
/// (the next broadcast rebuilds it), the context is not.
///
/// The worker takes the newest work. Frames it received but has not
/// handled wait in an [`Inbox`], and a broadcast of round `t` is
/// *superseded* once a checksum-valid broadcast of a round past `t + s`
/// or a `Shutdown` is queued behind it. The PS sends either only after
/// closing round `t + s`, and from then on its gate refuses every
/// replica stamped `t`: a superseded broadcast is dropped uncomputed and
/// unsent, and no vote, audit or parameter changes. The inbox is
/// drained without waiting when a broadcast is taken and again after its
/// straggler delay; the delay is a wait on the link, so frames queue
/// while it runs and a `Shutdown` ends the worker at once.
pub(crate) fn worker_loop(ctx: &WorkerContext, link: &mut dyn Link) -> WorkerExit {
    // Every broadcast overwrites the parameters: only the shape matters.
    let mut model = FastMlp::zeroed(&ctx.dims);
    let param_len = model.num_params();
    // Computed replicas wait in `outbox` and leave through its `flush` —
    // after every file when the PS finalizes votes eagerly, once per
    // round otherwise. It lives as long as the connection, so the
    // chunked wire computes every replica into one reused buffer.
    let mut outbox = Outbox::new(ctx, param_len);
    let mut inbox = Inbox::default();

    // Run until shutdown or the link dies. A frame that fails to decode
    // (corrupt, or of a kind the PS never sends) is ignored — a corrupted
    // broadcast degrades the worker's round, never kills it.
    loop {
        let frame = match inbox.next(link, ctx.idle_timeout) {
            Ok(frame) => frame,
            // An idle wire is not a fault: the PS simply has not
            // broadcast yet (or this worker is quarantined-adjacent slow).
            Err(LinkError::Timeout) => continue,
            Err(LinkError::Closed | LinkError::Desync(_)) => return WorkerExit::LinkClosed,
        };
        let Ok(message) = MessageView::decode(&frame) else {
            continue;
        };
        match message {
            MessageView::Shutdown => return WorkerExit::Shutdown,
            MessageView::ModelBroadcast {
                iteration,
                params,
                files,
            } => {
                link.note_round(iteration);
                // Shape gate: over a real socket the broadcast may come
                // from anything claiming to be a PS. A model of the
                // wrong dimension cannot be trained on; skipping the
                // round degrades it like a dropped broadcast.
                if params.len() != 4 * param_len {
                    continue;
                }
                if ctx.is_crashed {
                    continue; // fail-stop: receive but never respond
                }
                if !inbox.still_counted(ctx, link, iteration) {
                    if inbox.shutdown {
                        return WorkerExit::Shutdown;
                    }
                    continue;
                }
                model.set_params_le(params);
                // What this round uploads is known before any compute.
                // Bounds gates for forged broadcasts: a file table that
                // does not cover this worker's assignment, or sample
                // indices outside the local dataset, skip the file — they
                // must never index-panic the worker. Deterministic message
                // loss: same hash, same seed → the same replicas vanish
                // in the simulator and here (a lost replica is still
                // computed).
                let uploads: Vec<(u32, Vec<usize>, bool)> = ctx
                    .my_files
                    .iter()
                    .filter_map(|&file| {
                        let samples: Vec<usize> =
                            files.get(file)?.iter().map(|&i| i as usize).collect();
                        if samples.iter().any(|&i| i >= ctx.dataset.len()) {
                            return None;
                        }
                        let keep = !ctx.plan.drops_replica(iteration, ctx.worker_id, file);
                        Some((file as u32, samples, keep))
                    })
                    .collect();
                if !ctx.flush_per_file {
                    let kept = uploads.iter().filter(|(_, _, keep)| *keep).count();
                    outbox.begin(ctx, iteration, kept);
                }
                for (file, samples, keep) in &uploads {
                    if ctx.flush_per_file {
                        outbox.begin(ctx, iteration, usize::from(*keep));
                    }
                    let (x, labels) = ctx.dataset.gather(samples);
                    // The replica — true or forged — written once, into
                    // wherever it is going.
                    outbox.put(ctx, *file, *keep, |gradient| {
                        model.gradient_sum_into(&x, samples.len(), &labels, gradient);
                        if ctx.is_byz {
                            ctx.attack.forge(gradient);
                        }
                    });
                    if ctx.flush_per_file && outbox.flush(link).is_err() {
                        return WorkerExit::LinkClosed;
                    }
                }
                if !ctx.flush_per_file && outbox.flush(link).is_err() {
                    return WorkerExit::LinkClosed;
                }
            }
        }
    }
}

/// Frames a worker has received but not yet handled: the checksum-valid
/// broadcasts, in arrival order, with their rounds. Anything else is
/// dropped on arrival — a corrupt frame is ignored and never supersedes
/// a broadcast — except that a `Shutdown` is remembered.
#[derive(Default)]
struct Inbox {
    broadcasts: VecDeque<(u64, Bytes)>,
    shutdown: bool,
}

impl Inbox {
    /// The oldest queued broadcast, else the next frame off the link.
    fn next(&mut self, link: &mut dyn Link, timeout: Duration) -> Result<Bytes, LinkError> {
        match self.broadcasts.pop_front() {
            Some((_, frame)) => Ok(frame),
            None => link.recv_timeout(timeout),
        }
    }

    /// Queues a broadcast, notes a `Shutdown`, drops anything else.
    fn push(&mut self, frame: Bytes) {
        match MessageView::decode(&frame) {
            Ok(MessageView::ModelBroadcast { iteration, .. }) => {
                self.broadcasts.push_back((iteration, frame));
            }
            Ok(MessageView::Shutdown) => self.shutdown = true,
            Err(_) => {}
        }
    }

    /// Queues every frame that has already arrived. A dead link ends the
    /// drain like an empty one: the next receive or upload reports it.
    fn drain(&mut self, link: &mut dyn Link) {
        while let Ok(frame) = link.try_recv() {
            self.push(frame);
        }
    }

    /// Whether the broadcast of round `t` (just taken) is still counted
    /// by some round once its straggler delay has passed. The delay holds
    /// the round's uploads back — if it outlives the PS's receive window
    /// they count as dropped, the same policy as a message-dropper —
    /// while frames keep queueing; a `Shutdown` ends it early.
    fn still_counted(&mut self, ctx: &WorkerContext, link: &mut dyn Link, t: u64) -> bool {
        self.drain(link);
        if !ctx.delay.is_zero() && !self.superseded(ctx, t) {
            let deadline = Instant::now() + ctx.delay;
            while !self.shutdown {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match link.recv_timeout(left) {
                    Ok(frame) => self.push(frame),
                    Err(LinkError::Timeout) => {}
                    Err(LinkError::Closed | LinkError::Desync(_)) => std::thread::sleep(left),
                }
            }
            self.drain(link);
        }
        !self.superseded(ctx, t)
    }

    /// A `Shutdown` or a broadcast past `t + s` is queued.
    fn superseded(&self, ctx: &WorkerContext, t: u64) -> bool {
        let horizon = t.saturating_add(ctx.max_staleness);
        self.shutdown || self.broadcasts.iter().any(|&(newer, _)| newer > horizon)
    }
}

/// Where a worker's replicas (`len` floats each) are computed and wait
/// for upload. The batched wire computes each replica inside the
/// outgoing frame itself, which checksums it as it commits. The chunked
/// wire computes every replica into one reused buffer and cuts its chunk
/// frames (sealed as each payload is copied) at once, while the replica
/// is still in cache; what waits for `flush` is frames, not gradients.
enum Outbox {
    Frame {
        len: usize,
        builder: Box<BatchFrameBuilder>,
    },
    Chunks {
        cfg: ChunkConfig,
        iteration: u64,
        /// The replica being encoded; `gradient_sum_into` overwrites
        /// every coordinate, so nothing is cleared between replicas.
        replica: Vec<f32>,
        frames: Vec<Bytes>,
    },
}

impl Outbox {
    fn new(ctx: &WorkerContext, len: usize) -> Self {
        // Replicas per flush.
        let group = if ctx.flush_per_file {
            1
        } else {
            ctx.my_files.len()
        };
        match ctx.wire {
            WireFormat::Batched => Outbox::Frame {
                len,
                builder: Box::new(BatchFrameBuilder::new(group, group * len)),
            },
            WireFormat::Chunked(cfg) => Outbox::Chunks {
                cfg,
                iteration: 0,
                replica: vec![0.0; len],
                frames: Vec::new(),
            },
        }
    }

    /// Opens the next flush of round `iteration`, which keeps `uploads`
    /// of the replicas put into it.
    fn begin(&mut self, ctx: &WorkerContext, iteration: u64, uploads: usize) {
        match self {
            Outbox::Frame { builder, .. } => {
                builder.begin(iteration, ctx.worker_id as u32, uploads);
            }
            Outbox::Chunks { iteration: at, .. } => *at = iteration,
        }
    }

    /// Runs `compute` on the destination of `file`'s replica; a replica
    /// that is not kept (message loss) is computed all the same and then
    /// forgotten. A kept replica on the chunked wire becomes its chunk
    /// frames here, message loss rolling per chunk (a lost chunk strands
    /// its replica at the PS, which degrades it like a lost whole
    /// replica).
    fn put(
        &mut self,
        ctx: &WorkerContext,
        file: u32,
        keep: bool,
        compute: impl FnOnce(&mut [f32]),
    ) {
        match self {
            Outbox::Frame { len, builder } => {
                compute(builder.next_slot(*len));
                if keep {
                    builder.commit(file);
                }
            }
            Outbox::Chunks {
                cfg,
                iteration,
                replica,
                frames,
            } => {
                compute(replica);
                if !keep {
                    return;
                }
                let worker = ctx.worker_id;
                for chunk in 0..num_chunks(replica.len(), cfg.span_len()) {
                    if ctx
                        .plan
                        .drops_chunk(*iteration, worker, file as usize, chunk)
                    {
                        continue;
                    }
                    frames.push(encode_gradient_chunk_into(
                        *iteration,
                        worker as u32,
                        file,
                        replica,
                        chunk,
                        cfg,
                        BytesMut::new(),
                    ));
                }
            }
        }
    }

    /// Sends what was put since the last [`begin`](Self::begin). The
    /// batched wire seals it as ONE frame — sent even when every entry
    /// was dropped: the frame itself is cheap and keeps the PS's frame
    /// accounting deterministic — and the chunked wire queues its chunk
    /// frames. Either way the link is flushed, so what was put leaves
    /// here: a streaming round releases each file at its boundary.
    fn flush(&mut self, link: &mut dyn Link) -> Result<(), LinkError> {
        match self {
            Outbox::Frame { builder, .. } => link.queue(builder.finish())?,
            Outbox::Chunks { frames, .. } => {
                frames.drain(..).try_for_each(|frame| link.queue(frame))?;
            }
        }
        link.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::encode_gradient_batch;
    use crate::chunk::{encode_gradient_chunks, ChunkScheme, SparsifyConfig};
    use crate::link::channel_link_pair;
    use byz_assign::MolsAssignment;
    use byz_data::{SyntheticConfig, SyntheticImages};
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn upload_budget_is_the_longest_frame_each_wire_sends() {
        let d = 1000;
        let gradient: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
        // Batched: one frame with every file of a load-5 worker.
        let files: Vec<(u32, &[f32])> = (0..5).map(|f| (f, gradient.as_slice())).collect();
        assert_eq!(
            encode_gradient_batch(1, 0, &files).len(),
            WireFormat::Batched.max_upload_frame_len(5, d)
        );
        assert_eq!(
            WireFormat::Batched.max_upload_frame_len(5, 264_970),
            5_299_473
        );
        // Chunked: the longest chunk frame of each scheme, over chunk
        // lengths shorter and longer than the model.
        for chunk_len in [1, 7, 256, 4096] {
            for scheme in [
                ChunkScheme::Dense,
                ChunkScheme::Signs,
                ChunkScheme::TopK(SparsifyConfig::top_k(3, 9)),
                ChunkScheme::TopK(SparsifyConfig::top_k(200, 9)),
            ] {
                let cfg = ChunkConfig { chunk_len, scheme };
                let longest = (0..num_chunks(d, chunk_len))
                    .map(|i| {
                        encode_gradient_chunk_into(1, 0, 0, &gradient, i, &cfg, BytesMut::new())
                            .len()
                    })
                    .max()
                    .unwrap();
                let budget = WireFormat::Chunked(cfg).max_upload_frame_len(5, d);
                assert!(longest <= budget, "{cfg:?}: {longest} > {budget}");
                if !matches!(scheme, ChunkScheme::TopK(_)) {
                    assert_eq!(longest, budget, "{cfg:?}: budget is not tight");
                }
            }
        }
    }

    fn dataset() -> Arc<Dataset> {
        let (train, _) = SyntheticImages::new(SyntheticConfig {
            num_classes: 4,
            channels: 1,
            hw: 6,
            train_samples: 400,
            test_samples: 50,
            noise: 0.4,
            max_shift: 1,
            seed: 5,
        })
        .generate();
        Arc::new(train)
    }

    fn config(iterations: usize, byzantine: Vec<usize>) -> ServerConfig {
        ServerConfig {
            iterations,
            byzantine,
            attack: LocalAttack::Constant { value: -50.0 },
            seed: 31,
            ..ServerConfig::default()
        }
    }

    fn initial_params(dims: &[usize]) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        FastMlp::new(dims, &mut rng).params_flat()
    }

    fn accuracy(params: &[f32], dims: &[usize], data: &Dataset, n: usize) -> f64 {
        let mut model = FastMlp::new(dims, &mut rand::rngs::StdRng::seed_from_u64(0));
        model.set_params(params);
        let idx: Vec<usize> = (0..n).collect();
        let (x, labels) = data.gather(&idx);
        let preds = model.predict(&x, n);
        preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / n as f64
    }

    #[test]
    fn clean_message_passing_training_learns() {
        let data = dataset();
        let dims = vec![36usize, 16, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let (params, summaries) = cluster.train(initial_params(&dims), &config(40, vec![]));
        assert_eq!(summaries.len(), 40);
        // Batched transport: one frame per worker per round, carrying all
        // 75 replica entries.
        assert!(summaries.iter().all(|s| s.frames_received == 15));
        assert!(summaries.iter().all(|s| s.non_strict_votes == 0));
        assert!(summaries.iter().all(|s| s.missing_votes == 0));
        let acc = accuracy(&params, &dims, &data, 200);
        assert!(acc > 0.5, "train accuracy only {acc}");
    }

    #[test]
    #[should_panic(expected = "outside 1..=400 (the dataset size)")]
    fn train_run_refuses_a_batch_larger_than_the_dataset_before_spawning() {
        let dims = vec![36usize, 16, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            dataset(),
            dims.clone(),
        );
        let cfg = ServerConfig {
            batch_size: 425,
            ..config(1, vec![])
        };
        cluster.train_run(initial_params(&dims), &cfg);
    }

    #[test]
    fn byzantine_minority_is_neutralized() {
        let data = dataset();
        let dims = vec![36usize, 16, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let (params, summaries) = cluster.train(initial_params(&dims), &config(40, vec![0, 5]));
        assert!(summaries.iter().all(|s| s.non_strict_votes == 0));
        let acc = accuracy(&params, &dims, &data, 200);
        assert!(acc > 0.5, "attacked accuracy only {acc}");
    }

    #[test]
    fn reputation_quarantines_byzantine_workers_over_the_wire() {
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            reputation: Some(ReputationConfig::default()),
            ..config(12, vec![0, 5])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);

        // Both always-lying workers end up quarantined, nobody else does.
        let last = summaries.last().unwrap();
        assert_eq!(last.quarantined_workers, vec![0, 5]);
        let flagged: Vec<usize> = summaries
            .iter()
            .flat_map(|s| &s.reputation_events)
            .filter(|e| e.is_quarantine())
            .map(|e| e.worker())
            .collect();
        assert_eq!(flagged.len(), 2, "each liar quarantined exactly once");
        // Honest workers stay well clear of the threshold.
        for (w, s) in last.suspicions.iter().enumerate() {
            if w != 0 && w != 5 {
                assert!(*s < 0.45, "honest worker {w} suspicion {s}");
            }
        }
        // Once quarantined, a worker's frames are dropped on arrival, so
        // its replicas can no longer reach any vote.
        let quarantine_round = summaries
            .iter()
            .position(|s| s.quarantined_workers == vec![0, 5])
            .unwrap();
        for s in &summaries[quarantine_round + 1..] {
            assert_eq!(s.non_strict_votes, 0, "round {}", s.iteration);
        }
    }

    #[test]
    fn chunked_dense_wire_matches_batched_transport() {
        // Same seeds, same attack: streaming each replica as dense chunk
        // frames and voting shard-wise must compute byte-identical
        // parameters to the one-frame-per-worker batched wire.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let batched_cfg = config(12, vec![0, 5]);
        let chunked_cfg = ServerConfig {
            wire: WireFormat::Chunked(ChunkConfig::dense(128)),
            ..batched_cfg.clone()
        };
        let (p_batched, s_batched) = cluster.train(initial_params(&dims), &batched_cfg);
        let (p_chunked, s_chunked) = cluster.train(initial_params(&dims), &chunked_cfg);

        assert_eq!(
            p_batched, p_chunked,
            "wire formats must be semantically identical"
        );
        // d = 332 params, 128-float chunks ⇒ 3 chunks per replica,
        // 15 workers × 5 files × 3 chunks per round.
        assert!(s_chunked.iter().all(|s| s.frames_received == 15 * 5 * 3));
        for (a, b) in s_batched.iter().zip(&s_chunked) {
            assert_eq!(a.non_strict_votes, b.non_strict_votes);
            assert_eq!(a.missing_votes, b.missing_votes);
            assert_eq!(a.degraded_votes, b.degraded_votes);
            assert_eq!(a.abandoned_files, b.abandoned_files);
        }
    }

    #[test]
    fn sparsified_chunked_wire_stays_strict_and_saves_bytes() {
        // Top-k sparsification is seeded and deterministic, so honest
        // replicas of a file stay bit-identical after compression and
        // every vote remains strict; the wire moves far fewer bytes than
        // the dense chunk stream.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let dense_cfg = ServerConfig {
            wire: WireFormat::Chunked(ChunkConfig::dense(128)),
            ..config(10, vec![0, 5])
        };
        let sparse_cfg = ServerConfig {
            wire: WireFormat::Chunked(ChunkConfig {
                chunk_len: 128,
                scheme: ChunkScheme::TopK(SparsifyConfig::top_k(16, 0xBEEF)),
            }),
            ..dense_cfg.clone()
        };
        let (p_dense, s_dense) = cluster.train(initial_params(&dims), &dense_cfg);
        let (p_sparse, s_sparse) = cluster.train(initial_params(&dims), &sparse_cfg);

        assert!(s_sparse.iter().all(|s| s.non_strict_votes == 0));
        assert!(s_sparse.iter().all(|s| s.missing_votes == 0));
        assert!(s_sparse.iter().all(|s| s.abandoned_files == 0));
        let bytes_dense: usize = s_dense.iter().map(|s| s.bytes_received).sum();
        let bytes_sparse: usize = s_sparse.iter().map(|s| s.bytes_received).sum();
        assert!(
            (bytes_sparse as f64) < 0.6 * bytes_dense as f64,
            "sparsified moved {bytes_sparse} vs dense {bytes_dense} bytes"
        );
        // Sparsification changes the trained parameters (lossy), but the
        // run must stay finite and complete.
        assert_eq!(p_sparse.len(), p_dense.len());
        assert!(p_sparse.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn chunked_wire_tolerates_crashed_workers_like_batched() {
        // A crashed worker's chunks never arrive; each of its replicas
        // degrades exactly like a dropped whole replica — the same
        // missing/degraded accounting the batched wire reports.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0).crash_many([3, 9]),
            wire: WireFormat::Chunked(ChunkConfig::dense(128)),
            receive_timeout: Duration::from_millis(300),
            ..config(4, vec![])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);
        // Same layout as `crashed_workers_are_tolerated`: 2 crashed
        // workers × 5 files missing, 9 distinct files thinned.
        assert!(summaries.iter().all(|s| s.missing_votes == 10));
        assert!(summaries.iter().all(|s| s.frames_received == 13 * 5 * 3));
        assert!(summaries.iter().all(|s| s.abandoned_files == 0));
        assert!(summaries.iter().all(|s| s.degraded_votes == 9));
    }

    /// Streaming must change *when* votes run, never what they see: every
    /// vote-derived field of the round summary has to agree with the
    /// barrier run bit-for-bit (wall-clock timings are exempt).
    fn assert_summaries_equivalent(barrier: &[RoundSummary], streaming: &[RoundSummary]) {
        assert_eq!(barrier.len(), streaming.len());
        for (a, b) in barrier.iter().zip(streaming) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.non_strict_votes, b.non_strict_votes, "it {}", a.iteration);
            assert_eq!(a.missing_votes, b.missing_votes, "it {}", a.iteration);
            assert_eq!(a.degraded_votes, b.degraded_votes, "it {}", a.iteration);
            assert_eq!(a.abandoned_files, b.abandoned_files, "it {}", a.iteration);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.suspicions), bits(&b.suspicions));
            assert_eq!(a.quarantined_workers, b.quarantined_workers);
            assert_eq!(a.reputation_events.len(), b.reputation_events.len());
        }
    }

    #[test]
    fn streaming_batched_wire_matches_barrier_bitwise() {
        // Byzantine workers, message drops, a straggler AND reputation at
        // once: the streaming round must still compute byte-identical
        // parameters and identical vote/audit/ledger trajectories,
        // because votes fold in canonical file order regardless of when
        // they finalized.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let barrier_cfg = ServerConfig {
            faults: FaultPlan::new(7).drop_rate(0.08).straggle(4, 3.0),
            reputation: Some(ReputationConfig::default()),
            ..config(10, vec![0, 5])
        };
        let streaming_cfg = ServerConfig {
            mode: RoundMode::Streaming,
            ..barrier_cfg.clone()
        };
        let (p_barrier, s_barrier) = cluster.train(initial_params(&dims), &barrier_cfg);
        let (p_streaming, s_streaming) = cluster.train(initial_params(&dims), &streaming_cfg);

        assert_eq!(p_barrier, p_streaming, "modes must be bit-identical");
        assert_summaries_equivalent(&s_barrier, &s_streaming);
        // Streaming emits one single-entry frame per (worker, file) —
        // dropped entries included, as empty frames — so the count stays
        // deterministic at k·l instead of the barrier's k.
        assert!(s_barrier.iter().all(|s| s.frames_received == 15));
        assert!(s_streaming.iter().all(|s| s.frames_received == 15 * 5));
    }

    #[test]
    fn streaming_chunked_wire_matches_barrier_bitwise() {
        // Same property over the chunked wire: per-file eager finalize
        // through ShardedFileVoter plus the sharded flush must agree with
        // the barrier's vote-everything-at-the-end pass, frame for frame.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let barrier_cfg = ServerConfig {
            wire: WireFormat::Chunked(ChunkConfig::dense(128)),
            faults: FaultPlan::new(11).drop_rate(0.05),
            ..config(10, vec![0, 5])
        };
        let streaming_cfg = ServerConfig {
            mode: RoundMode::Streaming,
            ..barrier_cfg.clone()
        };
        let (p_barrier, s_barrier) = cluster.train(initial_params(&dims), &barrier_cfg);
        let (p_streaming, s_streaming) = cluster.train(initial_params(&dims), &streaming_cfg);

        assert_eq!(p_barrier, p_streaming, "modes must be bit-identical");
        assert_summaries_equivalent(&s_barrier, &s_streaming);
        // Chunk frames are emitted per file instead of per round, but the
        // set of frames on the wire is identical.
        for (a, b) in s_barrier.iter().zip(&s_streaming) {
            assert_eq!(a.frames_received, b.frames_received);
            assert_eq!(a.bytes_received, b.bytes_received);
        }
    }

    #[test]
    fn streaming_tolerates_crashed_workers_like_barrier() {
        // Crashed workers send nothing in streaming mode (no empty
        // frames), so the PS must fall back to the timeout exactly like
        // the barrier wire — and report identical degradation accounting.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0).crash_many([3, 9]),
            mode: RoundMode::Streaming,
            receive_timeout: Duration::from_millis(300),
            ..config(4, vec![])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);
        // Same layout as `crashed_workers_are_tolerated`: 2 crashed
        // workers × 5 files missing, 9 distinct files thinned; the 13
        // survivors emit 5 single-entry frames each.
        assert!(summaries.iter().all(|s| s.missing_votes == 10));
        assert!(summaries.iter().all(|s| s.frames_received == 13 * 5));
        assert!(summaries.iter().all(|s| s.abandoned_files == 0));
        assert!(summaries.iter().all(|s| s.degraded_votes == 9));
    }

    #[test]
    fn streaming_round_reports_phase_timings() {
        // The phase probes are wall-clock and thus nondeterministic, but
        // their structure is not: every round has a total, the phases are
        // bounded by it individually, and the overlap ratio is finite.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            mode: RoundMode::Streaming,
            ..config(3, vec![])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);
        for s in &summaries {
            let t = &s.timings;
            assert!(t.round_ns > 0, "round must take time");
            assert!(t.compute_ns <= t.round_ns);
            assert!(t.wire_ns <= t.round_ns);
            assert!(t.update_ns <= t.round_ns);
            assert!(t.overlap_ratio().is_finite());
        }
    }

    #[test]
    fn crashed_workers_are_tolerated() {
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0).crash_many([3, 9]),
            receive_timeout: Duration::from_millis(500),
            ..config(6, vec![])
        };
        let (params, summaries) = cluster.train(initial_params(&dims), &cfg);
        // 2 crashed workers × 5 files each never arrive (entry-level
        // accounting); the 13 survivors send one batch frame each.
        assert!(summaries.iter().all(|s| s.missing_votes == 10));
        assert!(summaries.iter().all(|s| s.frames_received == 13));
        // Every file still reaches a (possibly degraded) quorum. Workers
        // 3 and 9 share exactly one file in this MOLS layout, so 9
        // distinct files are thinned (8 to 2/3 replicas, 1 to 1/3).
        assert!(summaries.iter().all(|s| s.abandoned_files == 0));
        assert!(summaries.iter().all(|s| s.degraded_votes == 9));
        // Training proceeds on the surviving replicas.
        assert_eq!(summaries.len(), 6);
        assert_eq!(params.len(), initial_params(&dims).len());
    }

    #[test]
    fn quorum_floor_abandons_thin_files() {
        // With q_min = 3 (all replicas required), every file touched by a
        // crashed worker is abandoned instead of degraded — and the round
        // must not panic even though winners are missing.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0).crash(3),
            q_min: 3,
            receive_timeout: Duration::from_millis(500),
            ..config(3, vec![])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);
        assert!(summaries.iter().all(|s| s.abandoned_files == 5));
        assert!(summaries.iter().all(|s| s.degraded_votes == 0));
    }

    #[test]
    fn dropped_frames_degrade_but_training_survives() {
        // 15% deterministic message loss: some files vote from partial
        // replica sets, the summaries account for every lost frame, and
        // the run completes without panicking.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0xD0D0).drop_rate(0.15),
            receive_timeout: Duration::from_millis(500),
            ..config(5, vec![])
        };
        let (params, summaries) = cluster.train(initial_params(&dims), &cfg);
        assert_eq!(summaries.len(), 5);
        assert_eq!(params.len(), initial_params(&dims).len());
        let lost: usize = summaries.iter().map(|s| s.missing_votes).sum();
        assert!(lost > 0, "15% drop rate should lose at least one frame");
        let degraded: usize = summaries.iter().map(|s| s.degraded_votes).sum();
        assert!(degraded > 0, "lost replicas should thin some quorums");
        // Entry-level drops never suppress the batch frame itself: every
        // live worker's frame still arrives.
        for s in &summaries {
            assert_eq!(s.frames_received, 15);
        }
    }

    #[test]
    fn straggler_within_deadline_still_counted() {
        // A straggler that delays its uploads but stays inside the
        // receive window contributes all of its votes: slowness below the
        // deadline is not a fault.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let cfg = ServerConfig {
            faults: FaultPlan::new(0).straggle(2, 5.0),
            straggler_unit: Duration::from_millis(1),
            receive_timeout: Duration::from_millis(500),
            ..config(3, vec![])
        };
        let (_, summaries) = cluster.train(initial_params(&dims), &cfg);
        assert!(summaries.iter().all(|s| s.frames_received == 15));
        assert!(summaries.iter().all(|s| s.missing_votes == 0));
        assert!(summaries.iter().all(|s| s.abandoned_files == 0));
    }

    /// A channel link that counts the frames and bytes it hands on.
    struct Counted<'a> {
        inner: ChannelLink,
        sent: &'a [AtomicUsize; 2],
    }

    impl Counted<'_> {
        fn count(&self, frame: &Bytes) {
            self.sent[0].fetch_add(1, Ordering::Relaxed);
            self.sent[1].fetch_add(frame.len(), Ordering::Relaxed);
        }
    }

    impl Link for Counted<'_> {
        fn send(&mut self, frame: Bytes) -> Result<(), LinkError> {
            self.count(&frame);
            self.inner.send(frame)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError> {
            self.inner.recv_timeout(timeout)
        }

        fn try_recv(&mut self) -> Result<Bytes, LinkError> {
            self.inner.try_recv()
        }
    }

    #[test]
    fn outrun_straggler_uploads_are_still_counted() {
        // q_min = 1, so no file defers and the bounded PS never waits for
        // the straggler: it closes its last round while the straggler is
        // still waiting out an earlier one. The run's traffic totals must
        // still be everything the workers sent — and the straggler, whose
        // uploads no round can count, sends fewer frames than under
        // barrier.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            data,
            dims.clone(),
        );
        const STRAGGLER: usize = 2;
        for wire in [
            WireFormat::Batched,
            WireFormat::Chunked(ChunkConfig::dense(64)),
        ] {
            let barrier = ServerConfig {
                wire,
                ..config(3, vec![])
            };
            let bounded = ServerConfig {
                mode: RoundMode::BoundedStaleness { max_staleness: 1 },
                faults: FaultPlan::new(0).straggle(STRAGGLER, 4.0),
                straggler_unit: Duration::from_millis(60),
                ..barrier.clone()
            };
            let counted = |config: &ServerConfig| {
                let sent: Vec<[AtomicUsize; 2]> = (0..15).map(|_| Default::default()).collect();
                let run = cluster.train_linked(initial_params(&dims), config, |w, inner| Counted {
                    inner,
                    sent: &sent[w],
                });
                let sent: Vec<[usize; 2]> = sent
                    .iter()
                    .map(|s| s.each_ref().map(|n| n.load(Ordering::Relaxed)))
                    .collect();
                (run.params, run.summaries, sent)
            };
            let (p_barrier, s_barrier, sent_barrier) = counted(&barrier);
            let (p_bounded, s_bounded, sent_bounded) = counted(&bounded);
            assert_eq!(p_bounded, p_barrier, "{wire:?}");
            let totals = |s: &[RoundSummary]| {
                s.iter().fold([0, 0], |[frames, bytes], r| {
                    [frames + r.frames_received, bytes + r.bytes_received]
                })
            };
            let sent_total = |sent: &[[usize; 2]]| {
                sent.iter()
                    .fold([0, 0], |[frames, bytes], s| [frames + s[0], bytes + s[1]])
            };
            assert_eq!(totals(&s_barrier), sent_total(&sent_barrier), "{wire:?}");
            assert_eq!(totals(&s_bounded), sent_total(&sent_bounded), "{wire:?}");
            assert!(
                sent_bounded[STRAGGLER][0] < sent_barrier[STRAGGLER][0],
                "{wire:?}: the straggler sent {} frames, {} under barrier",
                sent_bounded[STRAGGLER][0],
                sent_barrier[STRAGGLER][0]
            );
        }
    }

    /// Worker 2 on the batched wire, holding files 0, 2, 3 and 4 of a
    /// [`broadcast`], under `mode` and with a straggler `delay`.
    fn scripted_worker(mode: RoundMode, delay: Duration) -> WorkerContext {
        WorkerContext {
            worker_id: 2,
            my_files: vec![0, 2, 3, 4],
            dataset: dataset(),
            dims: vec![36, 8, 4],
            is_byz: false,
            is_crashed: false,
            attack: LocalAttack::Constant { value: 0.0 },
            wire: WireFormat::Batched,
            flush_per_file: false,
            plan: FaultPlan::none(),
            max_staleness: mode.max_staleness(),
            delay,
            idle_timeout: Duration::from_millis(10),
        }
    }

    /// Round `t`'s broadcast to a [`scripted_worker`].
    fn broadcast(t: u64) -> Bytes {
        let params = initial_params(&[36, 8, 4]);
        let files: Vec<Vec<u32>> = (0..5).map(|f| vec![2 * f, 2 * f + 1]).collect();
        encode_model_broadcast(t, &params, &files)
    }

    /// Runs the worker loop thread-free over `queued`, every frame in
    /// its link before the loop starts; a script without a `Shutdown`
    /// ends when the PS side hangs up. Returns how the loop ended and
    /// the rounds of the frames it uploaded, in order.
    fn run_scripted(ctx: &WorkerContext, queued: Vec<Bytes>) -> (WorkerExit, Vec<u64>) {
        let (to_worker, from_ps) = unbounded();
        let (to_ps, from_worker) = unbounded();
        queued
            .into_iter()
            .for_each(|frame| to_worker.send(frame).unwrap());
        drop(to_worker);
        let exit = worker_loop(ctx, &mut ChannelLink::new(to_ps, from_ps));
        let uploads = std::iter::from_fn(|| from_worker.try_recv().ok())
            .map(|frame| crate::decode_gradient_batch(&frame).unwrap().iteration);
        (exit, uploads.collect())
    }

    #[test]
    fn a_queued_shutdown_supersedes_every_broadcast_before_it() {
        let ctx = scripted_worker(RoundMode::Barrier, Duration::ZERO);
        let script = vec![
            broadcast(1),
            broadcast(2),
            broadcast(3),
            Message::Shutdown.encode(),
        ];
        assert_eq!(run_scripted(&ctx, script), (WorkerExit::Shutdown, vec![]));
    }

    #[test]
    fn a_worker_skips_the_rounds_past_the_horizon() {
        let barrier = scripted_worker(RoundMode::Barrier, Duration::ZERO);
        let queued = |rounds: &[u64]| rounds.iter().map(|&t| broadcast(t)).collect();
        assert_eq!(
            run_scripted(&barrier, queued(&[1, 2])),
            (WorkerExit::LinkClosed, vec![2])
        );
        let bounded = RoundMode::BoundedStaleness { max_staleness: 1 };
        for delay in [Duration::ZERO, Duration::from_millis(5)] {
            let bounded = scripted_worker(bounded, delay);
            assert_eq!(
                run_scripted(&bounded, queued(&[1, 2])),
                (WorkerExit::LinkClosed, vec![1, 2])
            );
            assert_eq!(
                run_scripted(&bounded, queued(&[1, 2, 3])),
                (WorkerExit::LinkClosed, vec![2, 3])
            );
        }
    }

    #[test]
    fn a_corrupt_frame_supersedes_nothing() {
        let ctx = scripted_worker(RoundMode::Barrier, Duration::ZERO);
        let mut corrupt = BytesMut::from(&broadcast(99)[..]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        let script = vec![broadcast(1), corrupt.freeze()];
        assert_eq!(
            run_scripted(&ctx, script),
            (WorkerExit::LinkClosed, vec![1])
        );
    }

    /// What the scripted worker uploads on the broadcast of round `t`.
    type Script<'a> = &'a (dyn Fn(u64) -> Vec<Bytes> + Sync);

    /// A K = 15 cluster whose worker 0 is scripted: a file it holds, a
    /// file it does not, and the forged payload it pushes.
    struct Rogue {
        cluster: MessagePassingCluster,
        dims: Vec<usize>,
        held: u32,
        unheld: u32,
        forged: Vec<f32>,
    }

    impl Rogue {
        const ID: u32 = 0;

        fn new() -> Self {
            let dims = vec![36usize, 8, 4];
            let assignment = MolsAssignment::new(5, 3).unwrap().build();
            let graph = assignment.graph();
            let held = graph.files_of(0)[0] as u32;
            let unheld = (0..assignment.num_files())
                .find(|&file| !graph.workers_of(file).contains(&0))
                .unwrap() as u32;
            Rogue {
                forged: vec![7.0; initial_params(&dims).len()],
                cluster: MessagePassingCluster::new(assignment, dataset(), dims.clone()),
                dims,
                held,
                unheld,
            }
        }

        /// A batch frame from the rogue carrying `copies` forged entries
        /// for `file`.
        fn batch(&self, t: u64, file: u32, copies: usize) -> Bytes {
            encode_gradient_batch(t, Self::ID, &vec![(file, self.forged.as_slice()); copies])
        }

        /// Runs the real PS loop over channels; every worker but the
        /// rogue runs the real worker loop.
        fn train(&self, config: &ServerConfig, script: Script<'_>) -> WireTrainingRun {
            let (to_ps, from_workers) = unbounded::<Bytes>();
            let mut to_workers = Vec::new();
            std::thread::scope(|scope| {
                for worker_id in 0..self.cluster.assignment.num_workers() {
                    let (tx, rx) = unbounded::<Bytes>();
                    to_workers.push(tx);
                    let to_ps = to_ps.clone();
                    if worker_id != Self::ID as usize {
                        let ctx = self.cluster.worker_context(worker_id, config);
                        scope.spawn(move || {
                            worker_loop(&ctx, &mut ChannelLink::new(to_ps, rx));
                        });
                        continue;
                    }
                    scope.spawn(move || {
                        while let Ok(frame) = rx.recv() {
                            match Message::decode(&frame) {
                                Ok(Message::ModelBroadcast { iteration, .. }) => {
                                    script(iteration).into_iter().for_each(|forged| {
                                        let _ = to_ps.send(forged);
                                    });
                                }
                                Ok(Message::Shutdown) => break,
                                _ => {}
                            }
                        }
                    });
                }
                drop(to_ps);
                // A PS panic must fail the test, not strand the workers.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let initial = initial_params(&self.dims);
                    self.cluster
                        .ps_loop(initial, config, &to_workers, &from_workers)
                }));
                for tx in &to_workers {
                    let _ = tx.send(Message::Shutdown.encode());
                }
                run.expect("the PS panicked")
            })
        }

        /// The attack must leave params, every counter and every audit
        /// exactly where the reference script leaves them.
        fn assert_inert(&self, config: &ServerConfig, attack: Script<'_>, reference: Script<'_>) {
            let (attacked, reference) = (self.train(config, attack), self.train(config, reference));
            assert_eq!(attacked.params, reference.params);
            for (a, b) in attacked.summaries.iter().zip(&reference.summaries) {
                assert_eq!(a.audits, b.audits, "round {}", a.iteration);
                let counters = |s: &RoundSummary| {
                    [
                        s.non_strict_votes,
                        s.missing_votes,
                        s.degraded_votes,
                        s.abandoned_files,
                    ]
                };
                assert_eq!(counters(a), counters(b), "round {}", a.iteration);
            }
        }
    }

    #[test]
    fn stuffed_batch_entries_cast_at_most_one_vote_per_holder() {
        // One frame carrying r = 3 forged entries used to win a file's
        // vote outright. For a file the sender does not hold they must
        // cast no vote at all; for a file it holds, exactly one.
        let rogue = Rogue::new();
        let cfg = ServerConfig {
            receive_timeout: Duration::from_millis(300),
            ..config(3, vec![])
        };
        let (held, unheld) = (rogue.held, rogue.unheld);
        rogue.assert_inert(&cfg, &|t| vec![rogue.batch(t, unheld, 3)], &|t| {
            vec![rogue.batch(t, unheld, 0)]
        });
        rogue.assert_inert(&cfg, &|t| vec![rogue.batch(t, held, 3)], &|t| {
            vec![rogue.batch(t, held, 1)]
        });
    }

    #[test]
    fn forged_chunked_replica_from_a_non_holder_is_rejected() {
        // Complete, well-formed, and from a worker that does not hold
        // the file: it used to join the vote and show up in the audit.
        let rogue = Rogue::new();
        let chunking = ChunkConfig::dense(128);
        let cfg = ServerConfig {
            wire: WireFormat::Chunked(chunking),
            receive_timeout: Duration::from_millis(300),
            ..config(2, vec![])
        };
        let replica =
            |t| crate::encode_gradient_chunks(t, Rogue::ID, rogue.unheld, &rogue.forged, &chunking);
        rogue.assert_inert(&cfg, &replica, &|_| Vec::new());
    }

    #[test]
    fn stuffing_cannot_finalize_a_streaming_vote_early() {
        // The file's honest holders all straggle, so the rogue's three
        // forged entries are in long before them. An eager finalize that
        // counted entries instead of holders closed the vote right there,
        // honest replicas excluded.
        let rogue = Rogue::new();
        let holders = rogue
            .cluster
            .assignment
            .graph()
            .workers_of(rogue.unheld as usize);
        let cfg = ServerConfig {
            mode: RoundMode::Streaming,
            faults: holders
                .iter()
                .fold(FaultPlan::new(0), |plan, &w| plan.straggle(w, 2.0)),
            straggler_unit: Duration::from_millis(80),
            ..config(2, vec![])
        };
        // One frame per assigned file, like any streaming worker.
        let script = |t: u64, copies: usize| {
            let mut frames = vec![rogue.batch(t, rogue.unheld, 0); rogue.cluster.assignment.load()];
            frames[0] = rogue.batch(t, rogue.unheld, copies);
            frames
        };
        rogue.assert_inert(&cfg, &|t| script(t, 3), &|t| script(t, 0));
    }

    #[test]
    fn retired_frame_kinds_are_inert_and_cannot_hold_a_round_open() {
        // Kinds 2, 4 and 5 (the per-file gradient return, the
        // vote-on-hash announce and its pull request) are retired. A
        // well-checksummed frame of one is outside input like any other:
        // sent in place of everything worker 0 owes a round, it must
        // leave the job exactly where a silent worker 0 leaves it — minus
        // the wait, because each one spends an expected frame.
        use crate::round::Reject;
        use bytes::BufMut;
        const RETIRED: [u8; 3] = [2, 4, 5];
        let rogue = Rogue::new();
        let assignment = &rogue.cluster.assignment;
        let (k, l, d) = (
            assignment.num_workers(),
            assignment.load(),
            rogue.forged.len(),
        );
        // Shaped like the old per-file return: round, sender, file, payload.
        let retired = |t: u64, nth: usize| {
            let mut body = BytesMut::new();
            body.put_u64_le(t);
            body.put_u32_le(Rogue::ID);
            body.put_u32_le(rogue.held);
            body.put_u32_le(d as u32);
            crate::put_f32s_le(&mut body, &rogue.forged);
            crate::message::seal_frame(RETIRED[nth % 3], body)
        };
        // Refused for their kind, not for corruption.
        for (nth, &kind) in RETIRED.iter().enumerate() {
            assert_eq!(
                Message::decode(&retired(1, nth)),
                Err(crate::WireError::UnknownKind(kind))
            );
        }
        let chunking = ChunkConfig::dense(128);
        for (wire, frames_per_worker) in [
            (WireFormat::Batched, 1),
            (
                WireFormat::Chunked(chunking),
                l * num_chunks(d, chunking.span_len()),
            ),
        ] {
            let cfg = ServerConfig {
                wire,
                receive_timeout: Duration::from_millis(300),
                ..config(3, vec![])
            };
            let attack = |t: u64| -> Vec<Bytes> {
                (0..frames_per_worker)
                    .map(|nth| retired(t, t as usize + nth))
                    .collect()
            };
            rogue.assert_inert(&cfg, &attack, &|_| Vec::new());

            // Thread-free: a whole window of them is refused frame by
            // frame and closes the round without a single timeout.
            let mut core = RoundCore::new(assignment, d, &cfg);
            let graph = assignment.graph();
            let holders: Vec<Vec<usize>> = (0..assignment.num_files())
                .map(|file| graph.workers_of(file).to_vec())
                .collect();
            core.begin(1, &holders);
            for nth in 0..k * frames_per_worker {
                assert!(core.wants_more(), "{wire:?}: frame {nth}");
                assert_eq!(core.ingest(&retired(1, nth)), Err(Reject::Malformed));
            }
            assert!(!core.wants_more(), "{wire:?}");
            assert_eq!(core.close().missing_votes, k * l);
        }
    }

    #[test]
    fn summaries_account_for_bytes() {
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            data,
            dims.clone(),
        );
        let (_, summaries) = cluster.train(initial_params(&dims), &config(2, vec![]));
        for s in &summaries {
            // 15 batch frames, each with 5 full gradients on board.
            assert!(s.bytes_received > 15 * crate::FRAME_HEADER_LEN);
        }
    }

    /// The chunked outbox computes every replica into one reused buffer
    /// and cuts its chunk frames at once; they must be the frames
    /// `encode_gradient_chunks` cuts from a freshly computed replica,
    /// minus the same per-replica and per-chunk drops — whatever the
    /// buffer held before (NaN here), for every chunk scheme, honest or
    /// forged.
    #[test]
    fn chunk_outbox_frames_are_the_encoded_frames() {
        let data = dataset();
        let dims = vec![36usize, 16, 4];
        let model = FastMlp::new(&dims, &mut rand::rngs::StdRng::seed_from_u64(4));
        let d = model.num_params();
        let table: Vec<Vec<u32>> = (0..5).map(|f| vec![3 * f, 3 * f + 1]).collect();
        let schemes = [
            ChunkScheme::Dense,
            ChunkScheme::TopK(SparsifyConfig::top_k(8, 9)),
            ChunkScheme::Signs,
        ];
        let (mut dropped_chunks, mut dropped_replicas) = (0, 0);
        for scheme in schemes {
            for (is_byz, drop_rate) in [(false, 0.0), (false, 0.3), (true, 0.3)] {
                let cfg = ChunkConfig {
                    chunk_len: 64,
                    scheme,
                };
                let ctx = WorkerContext {
                    worker_id: 2,
                    my_files: vec![0, 2, 3, 4],
                    dataset: Arc::clone(&data),
                    dims: dims.clone(),
                    is_byz,
                    is_crashed: false,
                    attack: LocalAttack::ReversedGradient { magnitude: 3.0 },
                    wire: WireFormat::Chunked(cfg),
                    flush_per_file: false,
                    plan: FaultPlan::new(17).drop_rate(drop_rate),
                    max_staleness: 0,
                    delay: Duration::ZERO,
                    idle_timeout: Duration::from_millis(10),
                };
                let mut outbox = Outbox::new(&ctx, d);
                let Outbox::Chunks { replica, .. } = &mut outbox else {
                    unreachable!("a chunked wire's outbox")
                };
                replica.fill(f32::NAN);
                let (mut worker_end, mut ps_end) = channel_link_pair();
                let mut want = Vec::new();
                for t in [1u64, 2] {
                    let kept = ctx.my_files.iter();
                    let kept = kept.filter(|&&f| !ctx.plan.drops_replica(t, 2, f)).count();
                    outbox.begin(&ctx, t, kept);
                    for &file in &ctx.my_files {
                        let samples: Vec<usize> = table[file].iter().map(|&i| i as usize).collect();
                        let (x, labels) = data.gather(&samples);
                        let keep = !ctx.plan.drops_replica(t, 2, file);
                        outbox.put(&ctx, file as u32, keep, |g| {
                            model.gradient_sum_into(&x, samples.len(), &labels, g);
                            if is_byz {
                                ctx.attack.forge(g);
                            }
                        });
                        if !keep {
                            dropped_replicas += 1;
                            continue;
                        }
                        let mut g = model.gradient_sum(&x, samples.len(), &labels).1;
                        if is_byz {
                            ctx.attack.forge(&mut g);
                        }
                        let frames = encode_gradient_chunks(t, 2, file as u32, &g, &cfg);
                        for (chunk, frame) in frames.into_iter().enumerate() {
                            if ctx.plan.drops_chunk(t, 2, file, chunk) {
                                dropped_chunks += 1;
                            } else {
                                want.push(frame);
                            }
                        }
                    }
                    outbox.flush(&mut worker_end).unwrap();
                }
                let mut got = Vec::new();
                while let Ok(frame) = ps_end.recv_timeout(Duration::from_millis(10)) {
                    got.push(frame);
                }
                assert_eq!(
                    got, want,
                    "{scheme:?}, byzantine {is_byz}, drops {drop_rate}"
                );
            }
        }
        assert!(dropped_chunks > 0 && dropped_replicas > 0);
    }

    #[test]
    fn bytes_sent_is_the_broadcast_times_the_links() {
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            dataset(),
            dims.clone(),
        );
        for wire in [
            WireFormat::Batched,
            WireFormat::Chunked(ChunkConfig::dense(128)),
        ] {
            let cfg = ServerConfig {
                wire,
                ..config(3, vec![0, 5])
            };
            let params = initial_params(&dims);
            // The frame's length depends on shapes only: the model and
            // 25 files of `batch_size / 25` sample indices.
            let files = vec![vec![0u32; cfg.batch_size / 25]; 25];
            let frame = encode_model_broadcast(1, &params, &files).len();
            let (_, summaries) = cluster.train(params, &cfg);
            for s in &summaries {
                assert_eq!(s.bytes_sent, 15 * frame, "{wire:?} round {}", s.iteration);
            }
        }
    }
}
