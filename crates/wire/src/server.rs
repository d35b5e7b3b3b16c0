//! The threaded message-passing parameter server.

use crate::batch::{decode_gradient_batch, encode_gradient_batch, GradientBatchView};
use crate::chunk::{encode_gradient_chunk_into, num_chunks, ChunkConfig, GradientChunkView};
use crate::link::{ChannelLink, Link, LinkError};
use crate::voter::ShardedFileVoter;
use crate::{
    decode_gradient_chunk, hash_majority, verify_payload, Assignment, Fingerprint, Message,
};
use bytes::{Bytes, BytesMut};
use byz_aggregate::{
    quorum_vote_all_audited, quorum_vote_audited, Aggregator, CoordinateMedian, Provenance,
    QuorumConfig, QuorumError, QuorumOutcome, ReplicaVerdict, VoteAudit,
};
use byz_cluster::{FaultPlan, PhaseTimings};
use byz_data::{split_batch_into_files, BatchSampler, Dataset};
use byz_nn::FastMlp;
use byz_reputation::{QuarantineEvent, ReputationConfig, ReputationLedger};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    fn forge(&self, true_gradient: &[f32]) -> Vec<f32> {
        match self {
            LocalAttack::ReversedGradient { magnitude } => {
                true_gradient.iter().map(|g| -magnitude * g).collect()
            }
            LocalAttack::Constant { value } => vec![*value; true_gradient.len()],
        }
    }
}

/// Gradient transport mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Every replica uploads its full gradient (the paper's protocol).
    Full,
    /// Replicas upload 16-byte fingerprints; the PS votes on fingerprints
    /// and pulls each winning payload once, verifying it against the
    /// winning fingerprint (this repo's communication-efficiency
    /// extension — see the `hashvote` module).
    HashVote,
}

/// How full gradients are laid out on the wire (Full transport only;
/// hash-vote pulls always travel as whole payloads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFormat {
    /// One frame per worker per round carrying all of its replicas
    /// (the pre-chunking protocol, and the default).
    Batched,
    /// Each replica streams as `num_chunks` independent
    /// `KIND_GRADIENT_CHUNK` frames covering disjoint coordinate
    /// ranges, optionally sparsified per the [`ChunkConfig`]'s scheme.
    /// The PS votes incrementally per shard as chunks arrive
    /// ([`ShardedFileVoter`]), holding peak decode state to O(chunk)
    /// instead of O(d); a lost or corrupt chunk degrades its replica
    /// exactly like a lost whole replica.
    Chunked(ChunkConfig),
}

/// How the PS schedules the stages of a round (Full transport only;
/// hash-vote's announce/pull exchange is already per-file and ignores
/// this knob).
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
    /// their own files), and the next round's batch split is prefetched
    /// while workers compute. Vote work hides inside the collection
    /// window instead of serializing after it.
    Streaming,
    /// Bounded staleness: the PS closes each round once the *on-time*
    /// quorum of files finalizes, never waiting for stragglers. A
    /// worker's staleness lag is derived deterministically from the
    /// fault plan — `λ(w) = min(⌈straggle_factor(w)⌉ − 1, s)` — so the
    /// schedule is a pure function of the plan, never of observed
    /// arrival times. Files with at least `q_min` on-time live holders
    /// vote at their own round over the on-time replicas only (a late
    /// holder is audited `Absent`, which is benign). Files below the
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
    /// Benign-fault plan shared with the in-process engine
    /// ([`byz_cluster::FaultPlan`]): crashed workers receive traffic but
    /// never reply (the PS tolerates them via receive timeouts — a
    /// crashed replica simply casts no vote); stragglers sleep
    /// `straggler_unit × (multiplier − 1)` before uploading; message
    /// drops suppress individual frames using the same deterministic
    /// per-(round, worker, file) hash the simulator uses.
    pub faults: FaultPlan,
    /// Degradation policy shared with the in-process protocol: the
    /// minimum number of arrived replicas for a file's vote to count.
    pub quorum: QuorumConfig,
    /// How gradients travel.
    pub transport: Transport,
    /// How full gradients are framed under [`Transport::Full`].
    /// [`WireFormat::Batched`] preserves the pre-chunking protocol
    /// bit-for-bit; [`WireFormat::Chunked`] streams fixed-size chunk
    /// frames and votes shard-wise at the PS.
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
            quorum: QuorumConfig::default(),
            transport: Transport::Full,
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
    /// Replica votes that never arrived (crashed workers, dropped or
    /// deadline-expired frames).
    pub missing_votes: usize,
    /// Files voted from a partial replica set (`q_min ≤ arrived < r`).
    pub degraded_votes: usize,
    /// Files that produced no winner this round (below `q_min`, or a
    /// hash-vote payload pull that failed verification or timed out).
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

/// Live-round observability shared between a job's PS loop and its
/// connection-admission path (socket deployment only): the iteration
/// counter stamps reconnect handshakes, and the params snapshot arms
/// join grants with the current model.
pub(crate) struct RoundGauge {
    /// Round the PS loop is currently on (0 before training starts).
    pub(crate) round: AtomicU64,
    /// The model as of the current round's broadcast.
    pub(crate) params: Mutex<Vec<f32>>,
}

impl RoundGauge {
    pub(crate) fn new(initial_params: Vec<f32>) -> Self {
        RoundGauge {
            round: AtomicU64::new(0),
            params: Mutex::new(initial_params),
        }
    }

    /// The current params snapshot, recovering from poisoning (the
    /// writer replaces the value wholesale, so a poisoned snapshot is
    /// still internally consistent).
    pub(crate) fn params_snapshot(&self) -> Vec<f32> {
        match self.params.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

/// Banked replica state for one deferred file (bounded staleness): the
/// payloads collected so far, in whichever shape the wire delivers them.
enum StaleReplicas {
    /// Whole replicas from batched frames, in arrival order (the vote
    /// sorts by worker internally).
    Batched(Vec<(usize, Vec<f32>)>),
    /// The file's incremental sharded voter, carried across rounds so
    /// late chunk frames keep assembling into it.
    Chunked(Box<ShardedFileVoter>),
}

/// A file that fell below the on-time quorum at its origin round and is
/// waiting for its fold round `origin + lag`. Membership is fixed at the
/// origin: `pending` lists the late live holders whose delivery the plan
/// says will arrive (origin-round drops excluded up front), so the fold
/// round's wait is deterministic in outcome.
struct StaleFile {
    origin: u64,
    file: usize,
    lag: u64,
    /// The origin round's expected holder set — the vote's audit
    /// reference (late holders that never complete audit `Absent`).
    holders: Vec<usize>,
    /// Late workers whose replica is still en route.
    pending: Vec<usize>,
    replicas: StaleReplicas,
}

/// Votes a due stale file over everything banked for it. Replicas are
/// sorted by worker id before the vote, so the outcome is independent of
/// arrival order.
fn finalize_stale(stale: StaleFile, q_min: usize) -> Result<QuorumOutcome, QuorumError> {
    match stale.replicas {
        StaleReplicas::Batched(mut list) => {
            list.sort_by_key(|&(w, _)| w);
            quorum_vote_audited(&list, q_min, &stale.holders)
        }
        StaleReplicas::Chunked(voter) => voter.finalize(q_min, &stale.holders),
    }
}

/// Banks a straggler's batched entries into whichever backlog slots
/// expect them. Admission is frozen at the origin round (`holders`), the
/// first arrival per worker wins (replayed frames cannot double-vote),
/// and a matched delivery drains that worker from the slot's wait set.
fn route_late_batch(backlog: &mut [StaleFile], batch: &GradientBatchView, model_len: usize) {
    let w = batch.worker as usize;
    for entry in &batch.entries {
        let file = entry.file as usize;
        // Same shape gate as on-time ingestion: a wrong-length entry
        // must never reach the median.
        if entry.len() != model_len {
            continue;
        }
        let Some(slot) = backlog
            .iter_mut()
            .find(|s| s.origin == batch.iteration && s.file == file)
        else {
            continue;
        };
        if !slot.holders.contains(&w) {
            continue;
        }
        if let StaleReplicas::Batched(list) = &mut slot.replicas {
            if list.iter().all(|&(lw, _)| lw != w) {
                let mut value = Vec::with_capacity(entry.len());
                entry.extend_into(&mut value);
                list.push((w, value));
            }
        }
        if let Some(pos) = slot.pending.iter().position(|&p| p == w) {
            slot.pending.remove(pos);
        }
    }
}

/// Chunked analogue of [`route_late_batch`]: feeds a chunk into the
/// backlog voter expecting it (deferred files own their voter from the
/// origin round on, so on-time and late chunks assemble in one place).
/// Returns `true` when a slot claimed the chunk.
fn route_late_chunk(backlog: &mut [StaleFile], view: &GradientChunkView) -> bool {
    let w = view.worker as usize;
    let Some(slot) = backlog
        .iter_mut()
        .find(|s| s.origin == view.iteration && s.file == view.file as usize)
    else {
        return false;
    };
    if !slot.holders.contains(&w) {
        // The file is deferred but this sender is not an admitted
        // holder; swallow the chunk so it cannot enter an on-time vote
        // either.
        return true;
    }
    if let StaleReplicas::Chunked(voter) = &mut slot.replicas {
        voter.ingest(view);
        let complete = voter.complete_workers();
        slot.pending.retain(|p| !complete.contains(p));
    }
    true
}

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
    /// # Panics
    ///
    /// Panics on protocol violations (which indicate bugs, not Byzantine
    /// behaviour — Byzantine *content* is handled by the defense, crashes
    /// by the receive timeout).
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
    /// have exited, so the run's traffic totals do not depend on timing.
    ///
    /// # Panics
    ///
    /// Panics if the batch size is not divisible by the file count, or
    /// if a worker thread panics.
    pub fn train_run(&self, initial_params: Vec<f32>, config: &ServerConfig) -> WireTrainingRun {
        let k = self.assignment.num_workers();
        let f = self.assignment.num_files();
        assert_eq!(
            config.batch_size % f,
            0,
            "batch size must be divisible by the file count"
        );

        // Frames travel as refcounted `Bytes`: broadcasting one encoded
        // model to K workers clones a pointer, never the payload.
        let (to_ps, from_workers): (Sender<Bytes>, Receiver<Bytes>) = unbounded();
        let mut to_workers: Vec<Sender<Bytes>> = Vec::with_capacity(k);

        let mut run = crossbeam::thread::scope(|scope| {
            for worker_id in 0..k {
                let (tx, rx): (Sender<Bytes>, Receiver<Bytes>) = unbounded();
                to_workers.push(tx);
                let ctx = self.worker_context(worker_id, config);
                let to_ps = to_ps.clone();
                scope.spawn(move |_| {
                    let mut link = ChannelLink::new(to_ps, rx);
                    worker_loop(&ctx, &mut link)
                });
            }
            drop(to_ps);

            let result = self.ps_loop(initial_params, config, &to_workers, &from_workers, None);

            let bye = Message::Shutdown.encode();
            for tx in &to_workers {
                let _ = tx.send(bye.clone());
            }
            result
        })
        .expect("worker thread panicked");

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
            transport: config.transport,
            wire: config.wire,
            mode: config.mode,
            plan: config.faults.clone(),
            delay: config
                .straggler_unit
                .mul_f64(config.faults.straggle_factor(worker_id) - 1.0),
            idle_timeout: IDLE_RECV_TIMEOUT,
        }
    }

    /// The parameter-server side of the protocol.
    ///
    /// Deliberately typed against channels on both sides: the socket
    /// deployment adapts TCP connections *into* exactly these channels
    /// (per-connection reader threads fan into `from_workers`, per-slot
    /// writer threads drain the `to_workers` senders), so a networked
    /// run executes this identical loop on the identical frame multiset
    /// — which is what makes TCP ≡ channel bit-identity a structural
    /// property instead of a test-enforced hope.
    ///
    /// `gauge`, when present, is refreshed as each round opens: the
    /// iteration counter stamps `current_round` into reconnect
    /// handshakes, and the params snapshot arms join grants with the
    /// current model (socket deployments only — in-process runs pass
    /// `None` and skip the per-round clone).
    pub(crate) fn ps_loop(
        &self,
        initial_params: Vec<f32>,
        config: &ServerConfig,
        to_workers: &[Sender<Bytes>],
        from_workers: &Receiver<Bytes>,
        gauge: Option<&RoundGauge>,
    ) -> WireTrainingRun {
        let k = self.assignment.num_workers();
        let f = self.assignment.num_files();
        let l = self.assignment.load();
        let mut params = initial_params;
        let mut velocity = vec![0.0f32; params.len()];
        let mut sampler = BatchSampler::new(self.dataset.len(), config.batch_size, config.seed);
        let aggregator = CoordinateMedian;
        let mut summaries = Vec::with_capacity(config.iterations);
        let mut ledger = config.reputation.map(|cfg| ReputationLedger::new(k, cfg));
        // Reused per-worker decode buffers (Full transport): each round's
        // batched gradients land in one flat `f32` buffer per worker —
        // cleared, never reallocated in steady state — and the votes read
        // borrowed slices out of them.
        let mut worker_buffers: Vec<Vec<f32>> = vec![Vec::new(); k];
        let mut worker_entries: Vec<Vec<(u32, usize, usize)>> = vec![Vec::new(); k];

        // Double-buffered batch split: in streaming mode round t+1's
        // split is drawn right after round t's broadcast, hiding it
        // under worker compute. The sampler is advanced in the same
        // sequence either way, so both modes see identical batches.
        let mut sample_files = move || -> Vec<Vec<u32>> {
            let batch = sampler.next_batch();
            split_batch_into_files(&batch, f)
                .into_iter()
                .map(|file| file.into_iter().map(|i| i as u32).collect())
                .collect()
        };
        let mut next_files: Option<Vec<Vec<u32>>> = None;

        // Bounded-staleness backlog, carried across rounds: files that
        // fell below the on-time quorum at their origin wait here —
        // banking late replicas as they trickle in — until their fold
        // round. Empty in every other mode.
        let mut stale_backlog: Vec<StaleFile> = Vec::new();

        for t in 1..=config.iterations as u64 {
            if let Some(gauge) = gauge {
                gauge.round.store(t, Ordering::SeqCst);
                // Poisoning cannot corrupt the snapshot (the writer
                // replaces it wholesale), so recover rather than panic.
                match gauge.params.lock() {
                    Ok(mut snapshot) => *snapshot = params.clone(),
                    Err(poisoned) => *poisoned.into_inner() = params.clone(),
                }
            }
            let files = next_files.take().unwrap_or_else(&mut sample_files);
            let broadcast = Message::ModelBroadcast {
                iteration: t,
                params: params.clone(),
                files,
            }
            .encode();
            for tx in to_workers {
                // A closed channel means the worker thread is gone — the
                // same observable failure as a crash, and the receive
                // timeout already covers missing replies. The clone is a
                // refcount bump, not a copy of the model.
                let _ = tx.send(broadcast.clone());
            }
            if config.mode == RoundMode::Streaming {
                next_files = Some(sample_files());
            }

            // Expected replica *entries* per round; under the batched
            // transport these arrive inside at most `k` frames.
            let expected = k * l;
            let mut frames_received = 0usize;
            let mut bytes_received = 0usize;
            let mut non_strict = 0usize;
            let mut degraded_votes = 0usize;
            // Replica entries that never arrived (Full transport only;
            // set from the batch accounting below).
            let mut missing_entries = 0usize;
            // Files newly parked by the bounded-staleness arms this
            // round (zero elsewhere); they are *deferred*, not
            // abandoned, and must not count against the latter.
            let mut deferred_files = 0usize;
            let mut audits: Vec<VoteAudit> = Vec::new();
            // Frames from quarantined workers are dropped on arrival:
            // worker file sets are fixed at spawn, so the PS ignores the
            // replicas rather than reassigning them over the wire.
            let quarantined_mask: Vec<bool> = match ledger.as_ref() {
                Some(ledger) => (0..k).map(|w| ledger.is_quarantined(w)).collect(),
                None => vec![false; k],
            };
            let round_start = Instant::now();
            // Each receive waits at most `receive_timeout`, and the whole
            // collection phase at most `round_deadline`: a frame that
            // misses the deadline is treated exactly like a dropped one.
            let recv_window = |start: Instant| -> Option<Duration> {
                config
                    .round_deadline
                    .checked_sub(start.elapsed())
                    .map(|rem| rem.min(config.receive_timeout))
            };

            // Phase-timing probes shared by every arm: first frame marks
            // the end of (observed) worker compute, `collect_end` the end
            // of the wire window, and `vote_ns` accumulates vote CPU
            // wherever it ran — inside the window for streaming, after it
            // for barriers.
            let mut first_frame: Option<Instant> = None;
            let collect_end: Option<Instant>;
            let mut vote_ns = 0u64;

            let winners: Vec<Option<Vec<f32>>> = match (config.transport, config.wire, config.mode)
            {
                (Transport::Full, WireFormat::Chunked(chunk_cfg), RoundMode::Streaming) => {
                    // Streaming chunked wire: chunks feed the per-file
                    // voters exactly as in the barrier arm, but each
                    // file's vote finalizes the moment its last live
                    // replica completes — a straggler only delays its own
                    // files, and the finalized votes hide inside the
                    // receive window. Outcomes land in per-file slots and
                    // every counter/audit is folded in ascending file
                    // order afterwards, so all derived state is
                    // bit-identical to the barrier arm.
                    let chunk_len = chunk_cfg.span_len();
                    let chunks = num_chunks(params.len(), chunk_len);
                    let mut voters: Vec<ShardedFileVoter> = (0..f)
                        .map(|file| ShardedFileVoter::new(file as u32, params.len(), chunk_len))
                        .collect();
                    let holders: Vec<Vec<usize>> = (0..f)
                        .map(|file| {
                            self.assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect()
                        })
                        .collect();
                    let mut outcomes: Vec<Option<Result<QuorumOutcome, QuorumError>>> =
                        vec![None; f];
                    let expected_frames = k * l * chunks;
                    while frames_received < expected_frames {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(view) = decode_gradient_chunk(&frame) else {
                            continue;
                        };
                        if view.iteration != t {
                            continue;
                        }
                        let w = view.worker as usize;
                        if w >= k || quarantined_mask[w] {
                            continue;
                        }
                        let file = view.file as usize;
                        let Some(voter) = voters.get_mut(file) else {
                            continue;
                        };
                        voter.ingest(&view);
                        // Eager finalize: every live holder's replica is
                        // complete, so the vote can never change again.
                        if outcomes[file].is_none()
                            && !holders[file].is_empty()
                            && voter.complete_workers().len() >= holders[file].len()
                        {
                            let vote_start = Instant::now();
                            outcomes[file] =
                                Some(voters[file].finalize(config.quorum.q_min, &holders[file]));
                            vote_ns += vote_start.elapsed().as_nanos() as u64;
                        }
                    }
                    collect_end = Some(Instant::now());
                    let complete: usize = voters.iter().map(|v| v.complete_workers().len()).sum();
                    missing_entries = expected.saturating_sub(complete);

                    // Flush: files whose replica set never completed
                    // (crashes, drops, deadline) finalize from whatever
                    // arrived — the same replica sets the barrier arm
                    // votes on. Then fold counters in canonical file
                    // order.
                    let vote_start = Instant::now();
                    for file in 0..f {
                        if outcomes[file].is_none() {
                            outcomes[file] =
                                Some(voters[file].finalize(config.quorum.q_min, &holders[file]));
                        }
                    }
                    let winners = outcomes
                        .into_iter()
                        .map(|slot| {
                            // An unflushed slot is impossible by
                            // construction (the flush pass above covers
                            // every file), but a PS must degrade — one
                            // abandoned file — rather than die on it.
                            let outcome = slot?.ok()?;
                            if !outcome.is_strict {
                                non_strict += 1;
                            }
                            if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                degraded_votes += 1;
                            }
                            audits.push(outcome.audit);
                            Some(outcome.value)
                        })
                        .collect();
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    winners
                }
                (Transport::Full, WireFormat::Batched, RoundMode::Streaming) => {
                    // Streaming batched wire: each worker sends one
                    // single-entry frame per assigned file the moment
                    // that file's gradient is ready (an empty frame when
                    // the entry was dropped, keeping the frame count
                    // deterministic), and each file votes eagerly once
                    // all of its live holders' entries arrived. The
                    // flush for never-completed files is one pool-parallel
                    // vote over just those files; counters and audits
                    // fold in ascending file order, bit-identical to the
                    // barrier arm.
                    for buffer in &mut worker_buffers {
                        buffer.clear();
                    }
                    for entries in &mut worker_entries {
                        entries.clear();
                    }
                    let holders: Vec<Vec<usize>> = (0..f)
                        .map(|file| {
                            self.assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect()
                        })
                        .collect();
                    // (worker, start, len) triples per file, in arrival
                    // order; votes sort by worker internally.
                    let mut file_entries: Vec<Vec<(usize, usize, usize)>> =
                        (0..f).map(|_| Vec::new()).collect();
                    let mut outcomes: Vec<Option<Result<QuorumOutcome, QuorumError>>> =
                        vec![None; f];
                    let mut entries_received = 0usize;
                    let expected_frames = k * l;
                    while frames_received < expected_frames {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(batch) = decode_gradient_batch(&frame) else {
                            continue;
                        };
                        entries_received += batch.entries.len();
                        if batch.iteration != t {
                            continue;
                        }
                        let w = batch.worker as usize;
                        if w >= k || quarantined_mask[w] {
                            continue;
                        }
                        for entry in &batch.entries {
                            let file = entry.file as usize;
                            // Shape gate: a well-checksummed frame can
                            // still carry a forged entry whose length is
                            // not the model's. Mixed-length winners would
                            // sink the coordinate median, so such entries
                            // degrade like dropped replicas — reachable
                            // over real sockets, where any process can
                            // connect and upload.
                            if file >= f || entry.len() != params.len() {
                                continue;
                            }
                            let buffer = &mut worker_buffers[w];
                            let start = buffer.len();
                            entry.extend_into(buffer);
                            file_entries[file].push((w, start, entry.len()));
                            if outcomes[file].is_none()
                                && !holders[file].is_empty()
                                && file_entries[file].len() >= holders[file].len()
                            {
                                let vote_start = Instant::now();
                                let replicas: Vec<(usize, &[f32])> = file_entries[file]
                                    .iter()
                                    .map(|&(rw, rs, rl)| (rw, &worker_buffers[rw][rs..rs + rl]))
                                    .collect();
                                outcomes[file] = Some(quorum_vote_audited(
                                    &replicas,
                                    config.quorum.q_min,
                                    &holders[file],
                                ));
                                vote_ns += vote_start.elapsed().as_nanos() as u64;
                            }
                        }
                    }
                    collect_end = Some(Instant::now());
                    missing_entries = expected.saturating_sub(entries_received);

                    // Flush the stragglers' files in one pass over the
                    // kernel pool, then fold in file order.
                    let vote_start = Instant::now();
                    let pending: Vec<usize> =
                        (0..f).filter(|&file| outcomes[file].is_none()).collect();
                    if !pending.is_empty() {
                        let pending_replicas: Vec<Vec<(usize, &[f32])>> = pending
                            .iter()
                            .map(|&file| {
                                file_entries[file]
                                    .iter()
                                    .map(|&(rw, rs, rl)| (rw, &worker_buffers[rw][rs..rs + rl]))
                                    .collect()
                            })
                            .collect();
                        let vote_inputs: Vec<byz_aggregate::VoteInput<'_, &[f32]>> = pending
                            .iter()
                            .zip(&pending_replicas)
                            .map(|(&file, replicas)| {
                                (replicas.as_slice(), holders[file].as_slice())
                            })
                            .collect();
                        let flushed = quorum_vote_all_audited(&vote_inputs, config.quorum.q_min);
                        for (&file, outcome) in pending.iter().zip(flushed) {
                            outcomes[file] = Some(outcome);
                        }
                    }
                    let winners = outcomes
                        .into_iter()
                        .map(|slot| {
                            // An unflushed slot is impossible by
                            // construction (the flush pass above covers
                            // every file), but a PS must degrade — one
                            // abandoned file — rather than die on it.
                            let outcome = slot?.ok()?;
                            if !outcome.is_strict {
                                non_strict += 1;
                            }
                            if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                degraded_votes += 1;
                            }
                            audits.push(outcome.audit);
                            Some(outcome.value)
                        })
                        .collect();
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    winners
                }
                (Transport::Full, WireFormat::Chunked(chunk_cfg), RoundMode::Barrier) => {
                    // Chunked wire: every replica arrives as `chunks`
                    // independent frames, ingested straight into one
                    // incremental voter per file — the PS never
                    // materializes a whole gradient per replica, only the
                    // per-shard group representatives and one reusable
                    // O(chunk) densify scratch per file.
                    let chunk_len = chunk_cfg.span_len();
                    let chunks = num_chunks(params.len(), chunk_len);
                    let mut voters: Vec<ShardedFileVoter> = (0..f)
                        .map(|file| ShardedFileVoter::new(file as u32, params.len(), chunk_len))
                        .collect();
                    let expected_frames = k * l * chunks;
                    while frames_received < expected_frames {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        // Malformed chunks degrade their replica (the
                        // voter marks it incomplete), never panic the PS.
                        let Ok(view) = decode_gradient_chunk(&frame) else {
                            continue;
                        };
                        if view.iteration != t {
                            continue;
                        }
                        let w = view.worker as usize;
                        if w >= k || quarantined_mask[w] {
                            continue;
                        }
                        let Some(voter) = voters.get_mut(view.file as usize) else {
                            continue;
                        };
                        voter.ingest(&view);
                    }
                    collect_end = Some(Instant::now());
                    // Entry accounting: a replica counts as arrived only
                    // when every one of its chunks landed — a partially
                    // delivered replica is missing, exactly like the
                    // simulator's dropped-replica policy.
                    let complete: usize = voters.iter().map(|v| v.complete_workers().len()).sum();
                    missing_entries = expected.saturating_sub(complete);

                    let vote_start = Instant::now();
                    let winners = (0..f)
                        .map(|file| {
                            let holders: Vec<usize> = self
                                .assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect();
                            let outcome =
                                voters[file].finalize(config.quorum.q_min, &holders).ok()?;
                            if !outcome.is_strict {
                                non_strict += 1;
                            }
                            if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                degraded_votes += 1;
                            }
                            audits.push(outcome.audit);
                            Some(outcome.value)
                        })
                        .collect();
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    winners
                }
                (Transport::Full, WireFormat::Batched, RoundMode::Barrier) => {
                    // Collect batched gradients: each live worker sends
                    // ONE frame carrying all of its surviving replicas,
                    // decoded straight into the reused per-worker flat
                    // buffers (one bulk copy per frame, no per-replica
                    // `Vec<f32>` allocation).
                    for buffer in &mut worker_buffers {
                        buffer.clear();
                    }
                    for entries in &mut worker_entries {
                        entries.clear();
                    }
                    let mut entries_received = 0usize;
                    while frames_received < k {
                        let Some(window) = recv_window(round_start) else {
                            break; // per-round deadline expired
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        // A frame that fails to decode (truncated, corrupt
                        // checksum, malformed body) is treated exactly like
                        // a dropped frame: an injected fault must degrade
                        // the round, never panic the PS thread.
                        let Ok(batch) = decode_gradient_batch(&frame) else {
                            continue;
                        };
                        entries_received += batch.entries.len();
                        if batch.iteration != t {
                            continue; // stale frame from a slow round
                        }
                        let w = batch.worker as usize;
                        if w >= k || quarantined_mask[w] {
                            continue;
                        }
                        let buffer = &mut worker_buffers[w];
                        for entry in &batch.entries {
                            // Same shape gate as the streaming arm: a
                            // wrong-length entry degrades, never reaches
                            // the median.
                            if entry.len() != params.len() {
                                continue;
                            }
                            let start = buffer.len();
                            entry.extend_into(buffer);
                            worker_entries[w].push((entry.file, start, entry.len()));
                        }
                    }
                    collect_end = Some(Instant::now());
                    missing_entries = expected.saturating_sub(entries_received);

                    // Per-file replica views into the worker buffers
                    // (ascending worker order by construction), then all
                    // files vote in parallel over the kernel pool — the
                    // same degraded-quorum policy as before, bit-identical
                    // to the sequential loop.
                    let r = self.assignment.replication();
                    let mut per_file: Vec<Vec<(usize, &[f32])>> =
                        (0..f).map(|_| Vec::with_capacity(r)).collect();
                    for (w, entries) in worker_entries.iter().enumerate() {
                        for &(file, start, len) in entries {
                            if (file as usize) < f {
                                per_file[file as usize]
                                    .push((w, &worker_buffers[w][start..start + len]));
                            }
                        }
                    }
                    let holders: Vec<Vec<usize>> = (0..f)
                        .map(|file| {
                            self.assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect()
                        })
                        .collect();
                    let vote_inputs: Vec<byz_aggregate::VoteInput<'_, &[f32]>> = (0..f)
                        .map(|file| (per_file[file].as_slice(), holders[file].as_slice()))
                        .collect();
                    let vote_start = Instant::now();
                    let winners = quorum_vote_all_audited(&vote_inputs, config.quorum.q_min)
                        .into_iter()
                        .map(|vote| {
                            let outcome = vote.ok()?;
                            if !outcome.is_strict {
                                non_strict += 1;
                            }
                            if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                degraded_votes += 1;
                            }
                            audits.push(outcome.audit);
                            Some(outcome.value)
                        })
                        .collect();
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    winners
                }
                (
                    Transport::Full,
                    WireFormat::Batched,
                    RoundMode::BoundedStaleness { max_staleness },
                ) => {
                    // Bounded staleness, batched wire: workers behave
                    // exactly as in barrier mode (one batched frame per
                    // round, sent after any straggler delay), but the PS
                    // closes the round once every *on-time* frame is in.
                    // A straggler's frames are banked into the
                    // cross-round backlog instead of this round's votes,
                    // and files below the on-time quorum defer to
                    // `origin + lag`. Every schedule decision — who is
                    // late, which files defer, which late deliveries to
                    // wait for — is a pure function of the fault plan,
                    // never of observed arrival order, so the outcome is
                    // deterministic. With `max_staleness = 0` nothing is
                    // ever late and this arm replays the barrier arm
                    // bit for bit.
                    for buffer in &mut worker_buffers {
                        buffer.clear();
                    }
                    for entries in &mut worker_entries {
                        entries.clear();
                    }
                    let lag_of = |w: usize| -> u64 {
                        (config.faults.straggle_factor(w).ceil() as u64)
                            .saturating_sub(1)
                            .min(max_staleness)
                    };
                    let holders: Vec<Vec<usize>> = (0..f)
                        .map(|file| {
                            self.assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect()
                        })
                        .collect();
                    // A file is on-time iff at least `q_min` of its live
                    // holders are lag-0; otherwise it defers by its
                    // slowest live holder's lag. (All-lag-0 holders but
                    // fewer than `q_min` of them stays on-time and fails
                    // quorum exactly like the barrier arm.)
                    let file_lag: Vec<u64> = (0..f)
                        .map(|file| {
                            let on_time = holders[file]
                                .iter()
                                .filter(|&&w| !config.faults.is_crashed(w) && lag_of(w) == 0)
                                .count();
                            if on_time >= config.quorum.q_min {
                                0
                            } else {
                                holders[file]
                                    .iter()
                                    .filter(|&&w| !config.faults.is_crashed(w))
                                    .map(|&w| lag_of(w))
                                    .max()
                                    .unwrap_or(0)
                            }
                        })
                        .collect();
                    // Park the deferred files *before* collecting:
                    // admission and the expected-late wait set are frozen
                    // from the plan now, so a late frame racing into this
                    // very window already finds its slot.
                    for file in 0..f {
                        if file_lag[file] == 0 {
                            continue;
                        }
                        deferred_files += 1;
                        let pending: Vec<usize> = holders[file]
                            .iter()
                            .copied()
                            .filter(|&w| {
                                !config.faults.is_crashed(w)
                                    && lag_of(w) > 0
                                    && !config.faults.drops_replica(t, 0, w, file)
                            })
                            .collect();
                        stale_backlog.push(StaleFile {
                            origin: t,
                            file,
                            lag: file_lag[file],
                            holders: holders[file].clone(),
                            pending,
                            replicas: StaleReplicas::Batched(Vec::new()),
                        });
                    }
                    let mut entries_received = 0usize;
                    let expected_frames = (0..k).filter(|&w| lag_of(w) == 0).count();
                    let mut on_time_frames = 0usize;
                    while on_time_frames < expected_frames {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(batch) = decode_gradient_batch(&frame) else {
                            on_time_frames += 1;
                            continue;
                        };
                        let w = batch.worker as usize;
                        if w < k && lag_of(w) > 0 {
                            // A straggler's frame, possibly for an
                            // earlier round: bank what its origin's
                            // deferred files still expect; never let it
                            // into an on-time vote.
                            route_late_batch(&mut stale_backlog, &batch, params.len());
                            continue;
                        }
                        on_time_frames += 1;
                        entries_received += batch.entries.len();
                        if batch.iteration != t {
                            continue;
                        }
                        if w >= k || quarantined_mask[w] {
                            continue;
                        }
                        let buffer = &mut worker_buffers[w];
                        for entry in &batch.entries {
                            if entry.len() != params.len() {
                                continue;
                            }
                            let start = buffer.len();
                            entry.extend_into(buffer);
                            worker_entries[w].push((entry.file, start, entry.len()));
                        }
                    }
                    // Hold the wire open only for deliveries the fold
                    // below still expects (wait sets were frozen at each
                    // file's origin, with the plan's drops excluded up
                    // front), bounded by the round deadline.
                    while stale_backlog
                        .iter()
                        .any(|s| s.origin + s.lag <= t && !s.pending.is_empty())
                    {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(_) => break,
                        };
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(batch) = decode_gradient_batch(&frame) else {
                            continue;
                        };
                        route_late_batch(&mut stale_backlog, &batch, params.len());
                    }
                    collect_end = Some(Instant::now());
                    missing_entries = expected.saturating_sub(entries_received);

                    // Vote every file in one parallel pass, exactly like
                    // the barrier arm. Deferred files simply miss quorum
                    // here (their on-time arrivals are below `q_min` by
                    // construction) and are parked below instead of
                    // abandoned; late holders of on-time files audit
                    // `Absent`, which is benign.
                    let r = self.assignment.replication();
                    let mut per_file: Vec<Vec<(usize, &[f32])>> =
                        (0..f).map(|_| Vec::with_capacity(r)).collect();
                    for (w, entries) in worker_entries.iter().enumerate() {
                        for &(file, start, len) in entries {
                            if (file as usize) < f {
                                per_file[file as usize]
                                    .push((w, &worker_buffers[w][start..start + len]));
                            }
                        }
                    }
                    let vote_inputs: Vec<byz_aggregate::VoteInput<'_, &[f32]>> = (0..f)
                        .map(|file| (per_file[file].as_slice(), holders[file].as_slice()))
                        .collect();
                    let vote_start = Instant::now();
                    let winners: Vec<Option<Vec<f32>>> =
                        quorum_vote_all_audited(&vote_inputs, config.quorum.q_min)
                            .into_iter()
                            .map(|vote| {
                                let outcome = vote.ok()?;
                                if !outcome.is_strict {
                                    non_strict += 1;
                                }
                                if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                    degraded_votes += 1;
                                }
                                audits.push(outcome.audit);
                                Some(outcome.value)
                            })
                            .collect();
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    // Merge the deferred files' on-time arrivals into
                    // their slots (the straggler deliveries are already
                    // there); the fold-round vote sorts by worker, so
                    // the merge order is immaterial.
                    for file in 0..f {
                        if file_lag[file] == 0 {
                            continue;
                        }
                        let Some(slot) = stale_backlog
                            .iter_mut()
                            .find(|s| s.origin == t && s.file == file)
                        else {
                            continue;
                        };
                        if let StaleReplicas::Batched(list) = &mut slot.replicas {
                            for &(w, slice) in &per_file[file] {
                                if list.iter().all(|&(lw, _)| lw != w) {
                                    list.push((w, slice.to_vec()));
                                }
                            }
                        }
                    }
                    winners
                }
                (
                    Transport::Full,
                    WireFormat::Chunked(chunk_cfg),
                    RoundMode::BoundedStaleness { max_staleness },
                ) => {
                    // Bounded staleness, chunked wire: same plan-driven
                    // schedule as the batched arm, with late replicas
                    // assembling incrementally — a deferred file owns a
                    // backlog [`ShardedFileVoter`] from its origin round
                    // on, and both its on-time chunks and the
                    // straggler's cross-round chunks route into it until
                    // the fold round.
                    let chunk_len = chunk_cfg.span_len();
                    let chunks = num_chunks(params.len(), chunk_len);
                    let lag_of = |w: usize| -> u64 {
                        (config.faults.straggle_factor(w).ceil() as u64)
                            .saturating_sub(1)
                            .min(max_staleness)
                    };
                    let holders: Vec<Vec<usize>> = (0..f)
                        .map(|file| {
                            self.assignment
                                .graph()
                                .workers_of(file)
                                .iter()
                                .copied()
                                .filter(|&w| !quarantined_mask[w])
                                .collect()
                        })
                        .collect();
                    let file_lag: Vec<u64> = (0..f)
                        .map(|file| {
                            let on_time = holders[file]
                                .iter()
                                .filter(|&&w| !config.faults.is_crashed(w) && lag_of(w) == 0)
                                .count();
                            if on_time >= config.quorum.q_min {
                                0
                            } else {
                                holders[file]
                                    .iter()
                                    .filter(|&&w| !config.faults.is_crashed(w))
                                    .map(|&w| lag_of(w))
                                    .max()
                                    .unwrap_or(0)
                            }
                        })
                        .collect();
                    for file in 0..f {
                        if file_lag[file] == 0 {
                            continue;
                        }
                        deferred_files += 1;
                        // A late replica is awaited only if none of its
                        // chunks are plan-dropped — a partially dropped
                        // replica can never complete, and waiting for it
                        // would stall the fold round at the deadline.
                        let pending: Vec<usize> = holders[file]
                            .iter()
                            .copied()
                            .filter(|&w| {
                                !config.faults.is_crashed(w)
                                    && lag_of(w) > 0
                                    && (0..chunks)
                                        .all(|c| !config.faults.drops_chunk(t, 0, w, file, c))
                            })
                            .collect();
                        stale_backlog.push(StaleFile {
                            origin: t,
                            file,
                            lag: file_lag[file],
                            holders: holders[file].clone(),
                            pending,
                            replicas: StaleReplicas::Chunked(Box::new(ShardedFileVoter::new(
                                file as u32,
                                params.len(),
                                chunk_len,
                            ))),
                        });
                    }
                    let mut voters: Vec<ShardedFileVoter> = (0..f)
                        .map(|file| ShardedFileVoter::new(file as u32, params.len(), chunk_len))
                        .collect();
                    let expected_frames = (0..k).filter(|&w| lag_of(w) == 0).count() * l * chunks;
                    let mut on_time_frames = 0usize;
                    while on_time_frames < expected_frames {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(view) = decode_gradient_chunk(&frame) else {
                            on_time_frames += 1;
                            continue;
                        };
                        let w = view.worker as usize;
                        let late_worker = w < k && lag_of(w) > 0;
                        if !late_worker {
                            on_time_frames += 1;
                        }
                        if w >= k {
                            continue;
                        }
                        // Chunks for a deferred file — this round's or
                        // an earlier round's — assemble in the backlog;
                        // everything the backlog does not claim is an
                        // on-time chunk for this round's voters.
                        if route_late_chunk(&mut stale_backlog, &view) {
                            continue;
                        }
                        if late_worker || view.iteration != t || quarantined_mask[w] {
                            continue;
                        }
                        let Some(voter) = voters.get_mut(view.file as usize) else {
                            continue;
                        };
                        voter.ingest(&view);
                    }
                    while stale_backlog
                        .iter()
                        .any(|s| s.origin + s.lag <= t && !s.pending.is_empty())
                    {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(_) => break,
                        };
                        frames_received += 1;
                        bytes_received += frame.len();
                        let Ok(view) = decode_gradient_chunk(&frame) else {
                            continue;
                        };
                        route_late_chunk(&mut stale_backlog, &view);
                    }
                    collect_end = Some(Instant::now());
                    // Deferred files' replicas live in the backlog, not
                    // these voters, so they count as not-yet-arrived
                    // here — consistent with "missing at the round's own
                    // close", and deterministic either way.
                    let complete: usize = voters.iter().map(|v| v.complete_workers().len()).sum();
                    missing_entries = expected.saturating_sub(complete);

                    let vote_start = Instant::now();
                    let mut winners: Vec<Option<Vec<f32>>> = Vec::with_capacity(f);
                    for file in 0..f {
                        if file_lag[file] > 0 {
                            winners.push(None);
                            continue;
                        }
                        match voters[file].finalize(config.quorum.q_min, &holders[file]) {
                            Ok(outcome) => {
                                if !outcome.is_strict {
                                    non_strict += 1;
                                }
                                if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                    degraded_votes += 1;
                                }
                                audits.push(outcome.audit);
                                winners.push(Some(outcome.value));
                            }
                            Err(_) => winners.push(None),
                        }
                    }
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    winners
                }
                (Transport::HashVote, _, _) => {
                    // Phase 1: collect fingerprints.
                    let mut per_file: HashMap<u32, Vec<(usize, Fingerprint)>> = HashMap::new();
                    while frames_received < expected {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(_) => break,
                        };
                        if first_frame.is_none() {
                            first_frame = Some(Instant::now());
                        }
                        frames_received += 1;
                        bytes_received += frame.len();
                        // Malformed or unexpected frames degrade, never panic
                        // (same policy as the full-gradient transport).
                        match Message::decode(&frame) {
                            Ok(Message::HashAnnounce {
                                iteration,
                                worker,
                                file,
                                fingerprint,
                            }) => {
                                if iteration != t {
                                    continue;
                                }
                                if quarantined_mask.get(worker as usize) == Some(&true) {
                                    continue;
                                }
                                per_file
                                    .entry(file)
                                    .or_default()
                                    .push((worker as usize, fingerprint));
                            }
                            Ok(_) | Err(_) => continue,
                        }
                    }
                    collect_end = Some(Instant::now());
                    // Phase 2: vote on fingerprints, pull each winner once.
                    // The same quorum floor applies: files that announced
                    // fewer than `q_min` fingerprints are abandoned, and
                    // partial announce sets count as degraded votes.
                    let vote_start = Instant::now();
                    let r = self.assignment.replication();
                    let mut winners: Vec<Option<Vec<f32>>> = vec![None; f];
                    let mut pulls: Vec<(u32, Fingerprint)> = Vec::new();
                    for file in 0..f as u32 {
                        let Some(announced) = per_file.remove(&file) else {
                            continue;
                        };
                        if announced.len() < config.quorum.q_min {
                            continue;
                        }
                        let Some(outcome) = hash_majority(&announced) else {
                            continue;
                        };
                        if !outcome.is_strict {
                            non_strict += 1;
                        }
                        if announced.len() < r {
                            degraded_votes += 1;
                        }
                        // Fingerprint votes audit exactly like full
                        // votes: announcing a losing hash is a
                        // disagreement, never announcing is an absence.
                        let mut audit = VoteAudit {
                            replicas: announced
                                .iter()
                                .map(|&(w, fp)| {
                                    let verdict = if fp == outcome.winner {
                                        ReplicaVerdict::Agreed
                                    } else {
                                        ReplicaVerdict::Disagreed
                                    };
                                    (w, verdict)
                                })
                                .collect(),
                            winner_hash: outcome.winner.0 ^ outcome.winner.1,
                        };
                        let holders: Vec<usize> = self
                            .assignment
                            .graph()
                            .workers_of(file as usize)
                            .iter()
                            .copied()
                            .filter(|&w| !quarantined_mask[w])
                            .collect();
                        audit.mark_absent(&holders);
                        audits.push(audit);
                        let holder = outcome.holders[0];
                        let req = Message::PayloadRequest { iteration: t, file }.encode();
                        // A dead holder is indistinguishable from a crashed
                        // one: the pull below simply times out.
                        let _ = to_workers[holder].send(req);
                        pulls.push((file, outcome.winner));
                    }
                    vote_ns += vote_start.elapsed().as_nanos() as u64;
                    for _ in 0..pulls.len() {
                        let Some(window) = recv_window(round_start) else {
                            break;
                        };
                        let frame = match from_workers.recv_timeout(window) {
                            Ok(fr) => fr,
                            Err(_) => break,
                        };
                        frames_received += 1;
                        bytes_received += frame.len();
                        match Message::decode(&frame) {
                            Ok(Message::GradientReturn {
                                iteration,
                                file,
                                gradient,
                                ..
                            }) => {
                                if iteration != t {
                                    continue;
                                }
                                // A payload for a file the PS never pulled is
                                // a forged frame — drop it like any other.
                                let Some(expected_fp) =
                                    pulls.iter().find(|(pf, _)| *pf == file).map(|(_, fp)| *fp)
                                else {
                                    continue;
                                };
                                // Bait-and-switch defense: the payload
                                // must hash to the winning fingerprint —
                                // and carry the model's shape (a degraded
                                // single-holder vote can be won by a
                                // Byzantine fingerprint of arbitrary
                                // length, which must not reach the
                                // median).
                                if gradient.len() == params.len()
                                    && verify_payload(&gradient, expected_fp)
                                {
                                    winners[file as usize] = Some(gradient);
                                }
                            }
                            Ok(_) | Err(_) => continue,
                        }
                    }
                    winners
                }
            };

            // Full transport: entry-level accounting (frames are per
            // worker, votes are per replica entry). HashVote keeps the
            // frame-level accounting it always had.
            let missing_votes = match config.transport {
                Transport::Full => missing_entries,
                Transport::HashVote => expected.saturating_sub(frames_received.min(expected)),
            };

            // Bounded staleness: fold the backlog entries due this round.
            // Their votes run over everything banked for them (replica
            // sets frozen at the origin round), the winners are
            // discounted by `1/(1 + lag)` and appended after this
            // round's on-time winners in (origin, file) order — the
            // order slots were parked — and their audits join this
            // round's reputation fold.
            let mut stale_values: Vec<Vec<f32>> = Vec::new();
            let mut stale_failed = 0usize;
            if stale_backlog.iter().any(|s| s.origin + s.lag <= t) {
                let vote_start = Instant::now();
                let mut keep = Vec::with_capacity(stale_backlog.len());
                for stale in stale_backlog.drain(..) {
                    if stale.origin + stale.lag > t {
                        keep.push(stale);
                        continue;
                    }
                    let lag = stale.lag;
                    match finalize_stale(stale, config.quorum.q_min) {
                        Ok(outcome) => {
                            if !outcome.is_strict {
                                non_strict += 1;
                            }
                            if matches!(outcome.provenance, Provenance::Degraded { .. }) {
                                degraded_votes += 1;
                            }
                            audits.push(outcome.audit);
                            let discount = 1.0 / (1.0 + lag as f32);
                            stale_values.push(outcome.value.iter().map(|v| v * discount).collect());
                        }
                        // A due file whose banked replicas still miss
                        // quorum (late drops, deadline) is abandoned at
                        // its fold round, exactly like an on-time quorum
                        // failure.
                        Err(_) => stale_failed += 1,
                    }
                }
                stale_backlog = keep;
                vote_ns += vote_start.elapsed().as_nanos() as u64;
            }

            let abandoned_files =
                winners.iter().filter(|w| w.is_none()).count() - deferred_files + stale_failed;
            let stale_folded = stale_values.len();
            let mut available: Vec<Vec<f32>> = winners.into_iter().flatten().collect();
            available.append(&mut stale_values);
            let update_start = Instant::now();
            if !available.is_empty() {
                // Invariant expect: `available` is non-empty and every
                // winner has the model's dimension — the shape gates at
                // every ingestion point (batched entries, chunk voters
                // sized to the model, hash-vote pulls) enforce the
                // latter even against arbitrary socket peers. A failure
                // here is a kernel bug, not reachable input, and must
                // stay a panic.
                let aggregated = aggregator
                    .aggregate(&available)
                    .expect("median is always applicable");
                let scale = f as f32 / config.batch_size as f32;
                // Chunk-parallel on the kernel pool; elementwise, so
                // bit-identical to the scalar loop at any thread count.
                byz_kernel::sgd_momentum_step(
                    &mut params,
                    &mut velocity,
                    &aggregated,
                    scale,
                    config.learning_rate,
                    config.momentum,
                );
            }
            let update_ns = update_start.elapsed().as_nanos() as u64;

            let (suspicions, reputation_events, quarantined_workers) = match ledger.as_mut() {
                Some(ledger) => {
                    let events = ledger.observe_round(t, &audits);
                    (ledger.suspicions(), events, ledger.quarantined_workers())
                }
                None => (Vec::new(), Vec::new(), Vec::new()),
            };

            let timings = PhaseTimings {
                compute_ns: first_frame
                    .map(|ff| ff.duration_since(round_start).as_nanos() as u64)
                    .unwrap_or(0),
                wire_ns: match (first_frame, collect_end) {
                    (Some(ff), Some(ce)) => ce.duration_since(ff).as_nanos() as u64,
                    _ => 0,
                },
                vote_ns,
                update_ns,
                round_ns: round_start.elapsed().as_nanos() as u64,
            };
            summaries.push(RoundSummary {
                iteration: t as usize,
                non_strict_votes: non_strict,
                frames_received,
                bytes_received,
                missing_votes,
                degraded_votes,
                abandoned_files,
                deferred_files,
                stale_folded,
                suspicions,
                reputation_events,
                quarantined_workers,
                audits,
                timings,
            });
        }
        WireTrainingRun {
            params,
            summaries,
            ledger_bytes: ledger.as_ref().map(ReputationLedger::to_bytes),
        }
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
    pub(crate) transport: Transport,
    pub(crate) wire: WireFormat,
    pub(crate) mode: RoundMode,
    pub(crate) plan: FaultPlan,
    pub(crate) delay: Duration,
    pub(crate) idle_timeout: Duration,
}

/// The worker's protocol loop over any [`Link`].
///
/// Takes the context by reference because a socket worker re-enters the
/// loop after a reconnect — the model replica and gradient cache are
/// per-connection state (the next broadcast rebuilds them), the context
/// is not.
pub(crate) fn worker_loop(ctx: &WorkerContext, link: &mut dyn Link) -> WorkerExit {
    let mut rng = rand_stub();
    let mut model = FastMlp::new(&ctx.dims, &mut rng);
    let param_len = model.num_params();
    // Cache of this iteration's computed (possibly forged) gradients, for
    // the hash-vote pull phase.
    let mut cache: HashMap<(u64, u32), Vec<f32>> = HashMap::new();

    // Run until shutdown or the link dies. A frame that fails to decode
    // or carries a message the PS never sends is ignored — a corrupted
    // broadcast degrades the worker's round, never kills it.
    loop {
        let frame = match link.recv_timeout(ctx.idle_timeout) {
            Ok(frame) => frame,
            // An idle wire is not a fault: the PS simply has not
            // broadcast yet (or this worker is quarantined-adjacent slow).
            Err(LinkError::Timeout) => continue,
            Err(LinkError::Closed | LinkError::Desync(_)) => return WorkerExit::LinkClosed,
        };
        let Ok(message) = Message::decode(&frame) else {
            continue;
        };
        match message {
            Message::Shutdown => return WorkerExit::Shutdown,
            Message::ModelBroadcast {
                iteration,
                params,
                files,
            } => {
                link.note_round(iteration);
                // Shape gate: over a real socket the broadcast may come
                // from anything claiming to be a PS. A model of the
                // wrong dimension cannot be trained on; skipping the
                // round degrades it like a dropped broadcast.
                if params.len() != param_len {
                    continue;
                }
                if ctx.is_crashed {
                    continue; // fail-stop: receive but never respond
                }
                if !ctx.delay.is_zero() {
                    // Straggler: hold the whole round's uploads back. If
                    // the delay outlives the PS's receive window the
                    // frames count as dropped — same policy as a
                    // message-dropper.
                    std::thread::sleep(ctx.delay);
                }
                cache.retain(|(it, _), _| *it + 1 >= iteration);
                model.set_params(&params);
                // Full transport, barrier mode: the whole round's
                // gradients go out as ONE batched frame (drops suppress
                // individual entries, not the frame). Streaming mode
                // emits each file's frames the moment its gradient is
                // computed. HashVote keeps per-file announces either way.
                let mut batch: Vec<(u32, Vec<f32>)> = Vec::with_capacity(ctx.my_files.len());
                for &file_idx in &ctx.my_files {
                    // Bounds gates for forged broadcasts: a file table
                    // that does not cover this worker's assignment, or
                    // sample indices outside the local dataset, degrade
                    // the file — they must never index-panic the worker.
                    let Some(file_samples) = files.get(file_idx) else {
                        continue;
                    };
                    let samples: Vec<usize> = file_samples.iter().map(|&i| i as usize).collect();
                    if samples.iter().any(|&i| i >= ctx.dataset.len()) {
                        continue;
                    }
                    let (x, labels) = gather_flat(&ctx.dataset, &samples);
                    let (_, grad) = model.gradient_sum(&x, samples.len(), &labels);
                    let gradient = if ctx.is_byz {
                        ctx.attack.forge(&grad)
                    } else {
                        grad
                    };
                    // Deterministic message loss: same hash, same seed →
                    // the same replicas vanish in the simulator and here.
                    let dropped = ctx
                        .plan
                        .drops_replica(iteration, 0, ctx.worker_id, file_idx);
                    match ctx.transport {
                        Transport::Full => match (ctx.mode, ctx.wire) {
                            (RoundMode::Streaming, WireFormat::Batched) => {
                                // One single-entry frame per file, sent as
                                // soon as the gradient exists. A dropped
                                // entry still sends an empty frame, so
                                // live workers emit exactly `l` frames —
                                // the per-file analogue of the barrier
                                // wire's send-even-when-empty policy.
                                let entries: Vec<(u32, &[f32])> = if dropped {
                                    Vec::new()
                                } else {
                                    vec![(file_idx as u32, gradient.as_slice())]
                                };
                                let frame = encode_gradient_batch(
                                    iteration,
                                    ctx.worker_id as u32,
                                    &entries,
                                );
                                if link.send(frame).is_err() {
                                    return WorkerExit::LinkClosed;
                                }
                            }
                            (RoundMode::Streaming, WireFormat::Chunked(cfg)) => {
                                if !dropped
                                    && send_replica_chunks(
                                        ctx,
                                        link,
                                        iteration,
                                        file_idx as u32,
                                        &gradient,
                                        &cfg,
                                    )
                                    .is_err()
                                {
                                    return WorkerExit::LinkClosed;
                                }
                            }
                            // Bounded staleness is a PS-side schedule:
                            // the worker sends exactly what it would in
                            // barrier mode, straggler delay and all, and
                            // the PS decides what is on time.
                            (RoundMode::Barrier | RoundMode::BoundedStaleness { .. }, _) => {
                                if !dropped {
                                    batch.push((file_idx as u32, gradient));
                                }
                            }
                        },
                        Transport::HashVote => {
                            if dropped {
                                continue;
                            }
                            let fingerprint = Fingerprint::of(&gradient);
                            cache.insert((iteration, file_idx as u32), gradient);
                            let reply = Message::HashAnnounce {
                                iteration,
                                worker: ctx.worker_id as u32,
                                file: file_idx as u32,
                                fingerprint,
                            };
                            // A hung-up PS means the run is over.
                            if link.send(reply.encode()).is_err() {
                                return WorkerExit::LinkClosed;
                            }
                        }
                    }
                }
                if ctx.transport == Transport::Full
                    && matches!(
                        ctx.mode,
                        RoundMode::Barrier | RoundMode::BoundedStaleness { .. }
                    )
                {
                    match ctx.wire {
                        WireFormat::Batched => {
                            // Sent even when every entry was dropped: the
                            // frame itself is cheap and keeps the PS's frame
                            // accounting deterministic (live workers send
                            // exactly one).
                            let entries: Vec<(u32, &[f32])> = batch
                                .iter()
                                .map(|(file, g)| (*file, g.as_slice()))
                                .collect();
                            let frame =
                                encode_gradient_batch(iteration, ctx.worker_id as u32, &entries);
                            if link.send(frame).is_err() {
                                return WorkerExit::LinkClosed;
                            }
                        }
                        WireFormat::Chunked(cfg) => {
                            for (file, gradient) in &batch {
                                if send_replica_chunks(ctx, link, iteration, *file, gradient, &cfg)
                                    .is_err()
                                {
                                    return WorkerExit::LinkClosed;
                                }
                            }
                        }
                    }
                }
            }
            Message::PayloadRequest { iteration, file } => {
                if ctx.is_crashed {
                    continue;
                }
                // The payload pull is a second delivery attempt and rolls
                // its own loss (attempt index 1); a lost pull leaves the
                // file abandoned at the PS after its receive timeout.
                if ctx
                    .plan
                    .drops_replica(iteration, 1, ctx.worker_id, file as usize)
                {
                    continue;
                }
                // The PS only pulls announced payloads, but a forged or
                // replayed request may name a file this worker never
                // cached; answering nothing lets the PS's pull timeout
                // handle it.
                let Some(gradient) = cache.get(&(iteration, file)).cloned() else {
                    continue;
                };
                let reply = Message::GradientReturn {
                    iteration,
                    worker: ctx.worker_id as u32,
                    file,
                    gradient,
                }
                .encode();
                if link.send(reply).is_err() {
                    return WorkerExit::LinkClosed;
                }
            }
            // Unexpected message types are ignored for the same reason
            // malformed frames are: only Shutdown and the two request
            // kinds above have worker-side semantics.
            _ => continue,
        }
    }
}

/// Streams one replica's gradient as independent chunk frames. Message
/// loss rolls per chunk (a lost chunk strands its replica at the PS,
/// which degrades it like a lost whole replica). Every in-flight buffer
/// is chunk-sized: the worker never serializes more than one chunk's
/// worth of gradient at a time. Shared by the barrier wire (which sends
/// all replicas after the compute loop) and the streaming wire (which
/// calls this per file as soon as its gradient is ready).
fn send_replica_chunks(
    ctx: &WorkerContext,
    link: &mut dyn Link,
    iteration: u64,
    file: u32,
    gradient: &[f32],
    cfg: &ChunkConfig,
) -> Result<(), LinkError> {
    let n = num_chunks(gradient.len(), cfg.span_len());
    for chunk_index in 0..n {
        if ctx
            .plan
            .drops_chunk(iteration, 0, ctx.worker_id, file as usize, chunk_index)
        {
            continue;
        }
        let frame = encode_gradient_chunk_into(
            iteration,
            ctx.worker_id as u32,
            file,
            gradient,
            chunk_index,
            cfg,
            BytesMut::new(),
        );
        link.send(frame)?;
    }
    Ok(())
}

/// Deterministic tiny RNG for worker-side model construction (the
/// parameters are overwritten by the first broadcast, so the values do
/// not matter — only the shape does).
fn rand_stub() -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0)
}

/// Flattened gather without depending on tensors (workers are plain
/// threads over `Vec<f32>`).
fn gather_flat(dataset: &Dataset, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
    let n = dataset.sample_len();
    let mut x = Vec::with_capacity(indices.len() * n);
    let mut labels = Vec::with_capacity(indices.len());
    for &i in indices {
        x.extend_from_slice(dataset.sample(i));
        labels.push(dataset.label(i));
    }
    (x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkScheme, SparsifyConfig};
    use byz_assign::MolsAssignment;
    use byz_data::{SyntheticConfig, SyntheticImages};
    use rand::SeedableRng;

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
        let (x, labels) = gather_flat(data, &idx);
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
    fn reputation_is_deterministic_across_transports() {
        // The ledger folds vote audits, and both transports audit the
        // same votes — so the suspicion trajectories must be identical.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            Arc::clone(&data),
            dims.clone(),
        );
        let full_cfg = ServerConfig {
            reputation: Some(ReputationConfig::default()),
            ..config(8, vec![2])
        };
        let hash_cfg = ServerConfig {
            transport: Transport::HashVote,
            ..full_cfg.clone()
        };
        let (_, s_full) = cluster.train(initial_params(&dims), &full_cfg);
        let (_, s_hash) = cluster.train(initial_params(&dims), &hash_cfg);
        for (a, b) in s_full.iter().zip(&s_hash) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.suspicions), bits(&b.suspicions));
            assert_eq!(a.quarantined_workers, b.quarantined_workers);
        }
    }

    #[test]
    fn hash_vote_transport_matches_full_transport() {
        // Same seeds, same attack: the vote-on-hash protocol must compute
        // byte-identical parameters (the winning gradients are identical),
        // while moving far fewer bytes.
        let data = dataset();
        let dims = vec![36usize, 16, 4];
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let cluster = MessagePassingCluster::new(assignment, Arc::clone(&data), dims.clone());

        let full_cfg = config(25, vec![0, 5]);
        let hash_cfg = ServerConfig {
            transport: Transport::HashVote,
            ..full_cfg.clone()
        };
        let (p_full, s_full) = cluster.train(initial_params(&dims), &full_cfg);
        let (p_hash, s_hash) = cluster.train(initial_params(&dims), &hash_cfg);

        assert_eq!(p_full, p_hash, "transports must be semantically identical");
        let bytes_full: usize = s_full.iter().map(|s| s.bytes_received).sum();
        let bytes_hash: usize = s_hash.iter().map(|s| s.bytes_received).sum();
        assert!(
            (bytes_hash as f64) < 0.5 * bytes_full as f64,
            "hash-vote moved {bytes_hash} vs full {bytes_full} bytes"
        );
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
            quorum: QuorumConfig::strict(3),
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

    #[test]
    fn outrun_straggler_uploads_are_still_counted() {
        // q_min = 1, so no file defers and the bounded PS never waits for
        // the straggler: it closes its last round while the straggler is
        // still sleeping on an earlier one. The run's traffic totals must
        // still be everything the workers sent — what a barrier PS, which
        // waits for every frame, counts round by round.
        let data = dataset();
        let dims = vec![36usize, 8, 4];
        let cluster = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            data,
            dims.clone(),
        );
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
                faults: FaultPlan::new(0).straggle(2, 4.0),
                straggler_unit: Duration::from_millis(60),
                ..barrier.clone()
            };
            let (p_barrier, s_barrier) = cluster.train(initial_params(&dims), &barrier);
            let (p_bounded, s_bounded) = cluster.train(initial_params(&dims), &bounded);
            assert_eq!(p_bounded, p_barrier, "{wire:?}");
            let totals = |s: &[RoundSummary]| {
                s.iter().fold((0, 0), |(frames, bytes), r| {
                    (frames + r.frames_received, bytes + r.bytes_received)
                })
            };
            assert_eq!(totals(&s_bounded), totals(&s_barrier), "{wire:?}");
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
}
