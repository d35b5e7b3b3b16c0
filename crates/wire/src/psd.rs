//! The standalone, multi-job, socket-facing parameter server — and the
//! matching TCP worker runner.
//!
//! [`PsServer`] listens on one TCP port and serves any number of
//! **concurrent jobs**, each with its own assignment, dataset, model,
//! reputation ledger and [`ServerConfig`]. Routing is dealer-style: the
//! first frame on every connection is a [`Handshake::Hello`] naming a
//! `(job_id, worker)` pair, and the connection is patched into that
//! job's channel fabric — jobs never share protocol state, only the
//! port.
//!
//! The load-bearing design decision is that the networked PS drives the
//! *exact same* [`Session`](crate::Session) over the exact same channel
//! delivery as the in-process transport (`MessagePassingCluster`'s PS
//! loop, still typed against crossbeam channels). TCP exists purely at
//! the edges:
//!
//! * one **reader thread per connection** decodes length-delimited
//!   frames off the socket and forwards them into the job's fan-in
//!   channel (the `from_workers` receiver the PS loop already drains);
//! * one **slot-writer thread per (job, worker)** drains the PS loop's
//!   per-worker sender and writes each frame to whatever connection
//!   currently holds that slot — no connection means the frame is
//!   dropped, exactly the observable behaviour of sending to a crashed
//!   in-process worker.
//!
//! A job ends by handoffs, not timers. Its PS thread queues `Shutdown`
//! on every slot and drops its slot senders; each slot writer writes
//! what was queued, sees its channel disconnect and half-closes the
//! slot's connection, so `Shutdown` is the last frame before FIN.
//! Readers keep reading (and, once the PS loop is gone, discarding)
//! until the worker closes, so a late upload lands instead of drawing an
//! RST. `serve` returns once every writer, reader and the accept loop
//! are done; a peer that never closes is cut off one round deadline
//! after the last job ended.
//!
//! Because the PS loop consumes the same frame multiset in both
//! deployments and is arrival-order independent, a loopback-TCP run is
//! bit-identical to a channel run — `TrainingHistory`, `VoteAudit`s and
//! ledger bytes alike (asserted by `tests/socket_deployment.rs`).
//!
//! Connection lifecycle is a fault class, not an error path: a dropped
//! or half-open connection degrades the affected replicas through the
//! usual missing-frame accounting (the round completes under the PS
//! round deadline), and a reconnecting worker re-enters through the
//! same `Hello` and resumes at the next broadcast.

use crate::handshake::{client_handshake, Handshake, HandshakeError, RejectReason};
use crate::link::{Link, LinkError};
use crate::server::{worker_loop, MessagePassingCluster, ServerConfig, WorkerExit};
use crate::tcp::TcpLink;
use crate::{Assignment, WireTrainingRun};
use bytes::Bytes;
use byz_cluster::ClusterError;
use byz_data::Dataset;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long the PS waits for a connection's `Hello` frame. Connections
/// that dawdle are dropped — they can always reconnect and try again.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// One training job hosted by a [`PsServer`].
#[derive(Clone)]
pub struct JobSpec {
    /// Identity workers name in their `Hello` frames. Must be unique
    /// within one [`PsServer::serve`] call.
    pub job_id: u64,
    /// The job's worker–file placement.
    pub assignment: Assignment,
    /// The job's training data (workers hold their own replica —
    /// typically regenerated from a shared seed).
    pub dataset: Arc<Dataset>,
    /// MLP layer widths.
    pub model_dims: Vec<usize>,
    /// Starting flat parameters.
    pub initial_params: Vec<f32>,
    /// The full protocol configuration, same type as in-process runs.
    pub config: ServerConfig,
}

/// What one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Echo of the job's id.
    pub job_id: u64,
    /// The trained parameters, summaries (audits included) and ledger.
    pub run: WireTrainingRun,
}

/// Start barrier: a job's PS loop only opens round 1 once every worker
/// slot has completed its first handshake, so round 1's broadcast is
/// never dropped on the floor of an unconnected slot.
struct JobGate {
    connected: Mutex<Vec<bool>>,
    cond: Condvar,
}

impl JobGate {
    fn new(k: usize) -> Self {
        JobGate {
            connected: Mutex::new(vec![false; k]),
            cond: Condvar::new(),
        }
    }

    fn mark(&self, worker: usize) {
        // Poison recovery everywhere the gate locks: the data is a
        // plain bool vector that no panic can leave half-written, and a
        // gate hiccup must degrade (at worst, a handshake timeout) —
        // never take the whole server down.
        let mut connected = match self.connected.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(slot) = connected.get_mut(worker) {
            *slot = true;
        }
        self.cond.notify_all();
    }

    /// Waits for all slots; returns the connected count on timeout.
    fn wait(&self, timeout: Duration) -> Result<(), usize> {
        let deadline = Instant::now() + timeout;
        let mut connected = match self.connected.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if connected.iter().all(|&c| c) {
                return Ok(());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(connected.iter().filter(|&&c| c).count());
            }
            connected = match self.cond.wait_timeout(connected, remaining) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// The shared, routable state of one job: everything the accept loop
/// needs to patch a fresh connection into the job's channel fabric.
struct JobHandle {
    fan_in: Sender<Bytes>,
    /// `slots[w]` holds worker `w`'s current write-half, if connected.
    slots: Vec<Mutex<Option<TcpStream>>>,
    /// A handle on every connection the job admitted, to cut off a peer
    /// that outstays the teardown (a slot's lock may be held by a writer
    /// blocked on that very peer).
    conns: Mutex<Vec<TcpStream>>,
    gate: JobGate,
    finished: AtomicBool,
    /// Longest frame an admitted worker may declare: the job's largest
    /// legal upload.
    max_upload: usize,
}

impl JobHandle {
    fn new(k: usize, max_upload: usize) -> (Self, Receiver<Bytes>) {
        let (fan_in, fan_in_rx) = unbounded();
        let handle = JobHandle {
            fan_in,
            slots: (0..k).map(|_| Mutex::new(None)).collect(),
            conns: Mutex::new(Vec::new()),
            gate: JobGate::new(k),
            finished: AtomicBool::new(false),
            max_upload,
        };
        (handle, fan_in_rx)
    }

    /// Shuts both directions of every connection the job admitted: a
    /// blocked reader or writer returns at once.
    fn cut_off(&self) {
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for conn in conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// A TCP parameter server hosting multiple concurrent jobs on one port.
pub struct PsServer {
    listener: TcpListener,
}

impl PsServer {
    /// Binds the server socket.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(PsServer { listener })
    }

    /// The bound address (use with port 0 binds).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs every job to completion and returns their results in input
    /// order. Blocks the calling thread; each job gets its own PS loop
    /// thread, and each admitted connection its reader thread.
    ///
    /// A job whose workers do not all complete the handshake within
    /// `ready_timeout` fails with [`ClusterError::HandshakeTimeout`] — a
    /// server whose cluster never assembled is a deployment error, not a
    /// degraded round.
    ///
    /// # Errors
    ///
    /// Any failed job fails the whole call: every job still runs to its
    /// end, then the first error in job order is returned and every
    /// job's result is dropped. [`ClusterError::HandshakeTimeout`] as
    /// above; [`ClusterError::Transport`] for listener-level socket
    /// failures and for a PS thread that panicked (the panic does not
    /// propagate).
    ///
    /// # Panics
    ///
    /// Panics if two jobs share a `job_id` (a caller bug, caught before
    /// any socket work).
    pub fn serve(
        &self,
        jobs: Vec<JobSpec>,
        ready_timeout: Duration,
    ) -> Result<Vec<JobResult>, ClusterError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Transport(format!("listener nonblocking: {e}")))?;

        // Per-job channel fabric: the PS loop keeps its channel types;
        // TCP is adapted into them at the edges.
        let mut handles: HashMap<u64, Arc<JobHandle>> = HashMap::new();
        let mut job_records = Vec::with_capacity(jobs.len());
        for job in jobs {
            let k = job.assignment.num_workers();
            let (slot_txs, slot_rxs): (Vec<_>, Vec<_>) = (0..k).map(|_| unbounded()).unzip();
            let load = (0..k)
                .map(|w| job.assignment.graph().files_of(w).len())
                .max()
                .unwrap_or(0);
            let max_upload = job
                .config
                .wire
                .max_upload_frame_len(load, job.initial_params.len());
            let (handle, fan_in_rx) = JobHandle::new(k, max_upload);
            let handle = Arc::new(handle);
            assert!(
                handles.insert(job.job_id, Arc::clone(&handle)).is_none(),
                "duplicate job id {}",
                job.job_id
            );
            job_records.push((job, handle, slot_txs, slot_rxs, fan_in_rx));
        }
        // The teardown bound: the longest round deadline of any job.
        let linger = job_records
            .iter()
            .map(|(job, ..)| job.config.round_deadline)
            .max()
            .unwrap_or_default();

        let stop = AtomicBool::new(false);
        let handles = &handles;
        let stop_ref = &stop;

        // A PS thread's panic is joined below as its job's error; any
        // other scoped thread's is re-raised when the scope ends, and
        // lands here.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                // Every thread that still owns an end of a connection
                // holds a clone: the slot writers, and the accept loop
                // until it has joined its readers. Teardown waits for the
                // last one to drop.
                let (open, all_closed) = unbounded::<()>();

                // The accept loop: admit, handshake, route.
                let accept_open = open.clone();
                let accept_thread = scope.spawn(move || {
                    let _open = accept_open;
                    accept_loop(&self.listener, handles, stop_ref);
                });

                let mut job_threads = Vec::with_capacity(job_records.len());
                for (job, handle, slot_txs, slot_rxs, fan_in_rx) in job_records {
                    // Slot writers: one thread per worker, draining the PS
                    // loop's sender into whatever connection holds the slot.
                    for (worker, rx) in slot_rxs.into_iter().enumerate() {
                        let handle = Arc::clone(&handle);
                        let open = open.clone();
                        scope.spawn(move || {
                            let _open = open;
                            slot_writer(&handle, worker, &rx);
                        });
                    }
                    // One PS thread per job — running the identical
                    // protocol loop the channel transport runs.
                    let job_id = job.job_id;
                    job_threads.push((
                        job_id,
                        scope.spawn(move || {
                            run_job(&job, &handle, slot_txs, fan_in_rx, ready_timeout)
                        }),
                    ));
                }
                drop(open);

                let mut results = Vec::with_capacity(job_threads.len());
                let mut first_err = None;
                for (job_id, thread) in job_threads {
                    match thread.join() {
                        Ok(Ok(run)) => results.push(JobResult { job_id, run }),
                        Ok(Err(e)) => first_err = first_err.or(Some(e)),
                        // A panicked PS thread is a typed error like any
                        // other job failure: it fails the whole call.
                        Err(_) => {
                            first_err = first_err.or(Some(ClusterError::Transport(format!(
                                "PS thread for job {job_id} panicked"
                            ))));
                        }
                    }
                }
                // Every PS thread is gone, so every slot sender has
                // dropped (a panicked thread's too) and the writers are
                // handing `Shutdown` and FIN to their workers. Wait for
                // the workers to close, then cut off whoever did not.
                stop_ref.store(true, Ordering::SeqCst);
                for handle in handles.values() {
                    handle.finished.store(true, Ordering::SeqCst);
                }
                let _ = all_closed.recv_timeout(linger);
                for handle in handles.values() {
                    handle.cut_off();
                }
                // A panicked accept thread means no NEW connections were
                // admitted — the jobs above already ran on whatever was
                // connected, so degrade silently rather than die.
                let _ = accept_thread.join();
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(results),
                }
            })
        }));
        outcome.unwrap_or_else(|_| {
            Err(ClusterError::Transport(
                "PS server scope panicked".to_string(),
            ))
        })
    }
}

/// One job's PS thread: waits for every slot, runs the PS loop, then
/// queues `Shutdown` on every slot. The slot senders drop with the
/// thread — on a panic too — and that is what ends the slot writers.
fn run_job(
    job: &JobSpec,
    handle: &JobHandle,
    slot_txs: Vec<Sender<Bytes>>,
    fan_in_rx: Receiver<Bytes>,
    ready_timeout: Duration,
) -> Result<WireTrainingRun, ClusterError> {
    if let Err(connected) = handle.gate.wait(ready_timeout) {
        handle.finished.store(true, Ordering::SeqCst);
        return Err(ClusterError::HandshakeTimeout {
            job_id: job.job_id,
            connected,
            expected: job.assignment.num_workers(),
        });
    }
    let cluster = MessagePassingCluster::new(
        job.assignment.clone(),
        Arc::clone(&job.dataset),
        job.model_dims.clone(),
    );
    let run = cluster.ps_loop(
        job.initial_params.clone(),
        &job.config,
        &slot_txs,
        &fan_in_rx,
    );
    // From here on readers discard what arrives, and no worker is
    // admitted.
    drop(fan_in_rx);
    handle.finished.store(true, Ordering::SeqCst);
    let bye = crate::Message::Shutdown.encode();
    for tx in &slot_txs {
        let _ = tx.send(bye.clone());
    }
    Ok(run)
}

/// The accept loop: polls for connections until told to stop, runs the
/// hello/welcome exchange, and patches admitted connections into their
/// job's fabric.
fn accept_loop(listener: &TcpListener, handles: &HashMap<u64, Arc<JobHandle>>, stop: &AtomicBool) {
    let mut readers = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Some(reader) = admit_connection(stream, handles) {
                    readers.push(reader);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Runs the PS side of the handshake on a fresh connection. Returns the
/// reader thread on admission, `None` on rejection (the connection is
/// closed either way when rejected).
fn admit_connection(
    stream: TcpStream,
    handles: &HashMap<u64, Arc<JobHandle>>,
) -> Option<std::thread::JoinHandle<()>> {
    let mut link = TcpLink::from_stream(stream);
    let hello = link.recv_timeout(HELLO_TIMEOUT).ok()?;
    // `Hello` is the only way in. Anything else — a retired join
    // request, a round frame, garbage — comes from a confused or hostile
    // peer: drop it silently, touching no slot.
    let Ok(Handshake::Hello { job_id, worker }) = Handshake::decode(&hello) else {
        return None;
    };
    let reject = |mut link: TcpLink, reason: RejectReason| {
        let _ = link.send(Handshake::Reject { job_id, reason }.encode());
        None
    };
    let Some(handle) = handles.get(&job_id) else {
        return reject(link, RejectReason::UnknownJob);
    };
    if handle.finished.load(Ordering::SeqCst) {
        return reject(link, RejectReason::JobFinished);
    }
    let w = worker as usize;
    if w >= handle.slots.len() {
        return reject(link, RejectReason::BadWorker);
    }
    // The admission reply is on the wire (`send` flushes) BEFORE the
    // write-half is installed in the slot: the slot writer only touches
    // installed streams, so the worker is guaranteed to read it before
    // any round frame.
    link.send(Handshake::Welcome { job_id, worker }.encode())
        .ok()?;
    // From here on the peer is a worker of this job: nothing it may
    // upload is longer than the job's largest legal frame.
    link.set_max_frame_len(handle.max_upload);

    let write_half = link.stream().try_clone().ok()?;
    let cut = link.stream().try_clone().ok()?;
    {
        let mut slot = handle.slots[w].lock().ok()?;
        // A reconnect replaces whatever stale stream the slot held; the
        // old connection's reader dies on its closed socket.
        if let Some(old) = slot.replace(write_half) {
            let _ = old.shutdown(Shutdown::Both);
        }
    }
    handle
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(cut);
    handle.gate.mark(w);

    let handle = Arc::clone(handle);
    Some(std::thread::spawn(move || {
        connection_reader(link, &handle);
    }))
}

/// Pumps one admitted connection's frames into the job's fan-in channel
/// until the worker closes it. Which frames *count* is decided
/// downstream by the PS loop's round deadline over the fan-in — the
/// reader enforces no protocol deadline of its own, exactly as a
/// crossbeam channel enforces none. Once the PS loop has dropped the
/// fan-in, frames are read and discarded: the connection stays intact
/// until the worker has read its `Shutdown` and closed.
///
/// A dropped or desynced connection ends the reader; the worker's
/// missing frames degrade its replicas through the PS's ordinary timeout
/// accounting, and the worker may reconnect through a fresh handshake.
fn connection_reader(mut link: TcpLink, handle: &JobHandle) {
    while let Ok(frame) = link.recv() {
        let _ = handle.fan_in.send(frame);
    }
}

/// Drains one worker slot's outbound channel into whatever connection
/// currently holds the slot. No connection ⇒ the frame is dropped — the
/// same fate as a frame sent to a crashed in-process worker, which is
/// what keeps connection loss inside the existing fault model.
///
/// The channel disconnects when the job's PS thread ends, after it
/// queued `Shutdown`; the writer then half-closes the slot's connection,
/// so `Shutdown` is the last frame before FIN.
fn slot_writer(handle: &JobHandle, worker: usize, rx: &Receiver<Bytes>) {
    while let Ok(frame) = rx.recv() {
        write_to_slot(handle, worker, &frame);
    }
    if let Ok(slot) = handle.slots[worker].lock() {
        if let Some(stream) = slot.as_ref() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// Writes one frame to whatever stream holds the slot; a failed write
/// clears the slot so later frames drop cheaply until a reconnect
/// installs a fresh stream.
fn write_to_slot(handle: &JobHandle, worker: usize, frame: &Bytes) {
    let Ok(mut slot) = handle.slots[worker].lock() else {
        return;
    };
    if let Some(stream) = slot.as_mut() {
        if crate::tcp::write_frame(stream, frame).is_err() {
            if let Some(old) = slot.take() {
                let _ = old.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Everything a TCP worker process needs to join a job.
pub struct WorkerSpec {
    /// The job to join.
    pub job_id: u64,
    /// This worker's slot.
    pub worker_id: usize,
    /// The job's placement (the worker derives its file set from it).
    pub assignment: Assignment,
    /// The worker's local dataset replica.
    pub dataset: Arc<Dataset>,
    /// MLP layer widths (must match the PS's).
    pub model_dims: Vec<usize>,
    /// The job's protocol configuration. Worker-relevant fields:
    /// `byzantine`, `attack`, `faults` (including connection faults),
    /// `wire`, `mode`, `straggler_unit`.
    pub config: ServerConfig,
    /// How long to keep retrying the initial TCP connect (covers the PS
    /// starting a moment after the workers).
    pub connect_timeout: Duration,
    /// How many reconnects to attempt after a lost connection before
    /// giving up with [`ClusterError::PeerDisconnected`].
    pub reconnect_attempts: usize,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl WorkerSpec {
    /// A spec with deployment-tuned connect/reconnect defaults.
    pub fn new(
        job_id: u64,
        worker_id: usize,
        assignment: Assignment,
        dataset: Arc<Dataset>,
        model_dims: Vec<usize>,
        config: ServerConfig,
    ) -> Self {
        WorkerSpec {
            job_id,
            worker_id,
            assignment,
            dataset,
            model_dims,
            config,
            connect_timeout: Duration::from_secs(10),
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

/// Connection-fault injector: wraps the worker's [`TcpLink`] and fires
/// the [`FaultPlan`](byz_cluster::FaultPlan)'s connection faults against
/// protocol rounds (learned via [`Link::note_round`] from broadcast
/// iterations, so faults are seeded and deterministic).
///
/// * `stall_from(w, r)`: from round `r` on, uploads are swallowed — the
///   connection stays open and downlink traffic still flows, which is
///   exactly how a half-open connection looks from the PS: a healthy
///   socket that never delivers.
/// * `disconnect_at(w, r)`: the first upload of round `r` is let
///   through (flushed onto the wire), then the socket is cut — a
///   mid-round disconnect. The `fired` flag lives in the caller so the
///   fault fires once across reconnects.
struct ChaosLink<'a> {
    inner: TcpLink,
    disconnect_round: Option<u64>,
    stall_round: Option<u64>,
    fired: &'a mut bool,
    round: u64,
}

impl ChaosLink<'_> {
    /// Hands one upload to `pass` (the inner link's `send` or `queue`)
    /// unless the connection has stalled, and fires the disconnect.
    fn upload(
        &mut self,
        frame: Bytes,
        pass: fn(&mut TcpLink, Bytes) -> Result<(), LinkError>,
    ) -> Result<(), LinkError> {
        if self.stall_round.is_some_and(|s| self.round >= s) {
            // Half-open wire: the worker believes it uploaded.
            return Ok(());
        }
        let result = pass(&mut self.inner, frame);
        if result.is_ok() && !*self.fired && self.disconnect_round == Some(self.round) {
            *self.fired = true;
            let _ = self.inner.flush();
            self.inner.shutdown();
        }
        result
    }
}

impl Link for ChaosLink<'_> {
    fn send(&mut self, frame: Bytes) -> Result<(), LinkError> {
        self.upload(frame, <TcpLink as Link>::send)
    }

    fn queue(&mut self, frame: Bytes) -> Result<(), LinkError> {
        self.upload(frame, <TcpLink as Link>::queue)
    }

    fn flush(&mut self) -> Result<(), LinkError> {
        self.inner.flush()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, LinkError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Result<Bytes, LinkError> {
        self.inner.try_recv()
    }

    fn note_round(&mut self, round: u64) {
        self.round = round;
        self.inner.note_round(round);
    }
}

/// Runs one worker over TCP until its job shuts down: connect (with
/// retry), handshake, protocol loop; on a lost connection, reconnect
/// through a fresh handshake and resume at the next broadcast.
///
/// # Errors
///
/// [`ClusterError::PeerDisconnected`] when the reconnect budget runs
/// out, [`ClusterError::Transport`] for unrecoverable socket or
/// handshake failures.
pub fn run_tcp_worker(addr: SocketAddr, spec: &WorkerSpec) -> Result<(), ClusterError> {
    let cluster = MessagePassingCluster::new(
        spec.assignment.clone(),
        Arc::clone(&spec.dataset),
        spec.model_dims.clone(),
    );
    let ctx = cluster.worker_context(spec.worker_id, &spec.config);
    let disconnect_round = spec.config.faults.disconnects_at(spec.worker_id);
    let stall_round = spec.config.faults.stalls_from(spec.worker_id);
    let mut disconnect_fired = false;
    let mut attempts_left = spec.reconnect_attempts;

    loop {
        let tcp = connect_with_retry(addr, spec.connect_timeout)
            .map_err(|e| ClusterError::Transport(format!("connect to {addr}: {e}")))?;
        let mut link = ChaosLink {
            inner: tcp,
            disconnect_round,
            stall_round,
            fired: &mut disconnect_fired,
            round: 0,
        };
        match client_handshake(&mut link, spec.job_id, spec.worker_id as u32, HELLO_TIMEOUT) {
            Ok(()) => {}
            // The job ran to completion while this worker was away —
            // a clean exit, not a failure.
            Err(HandshakeError::Rejected(RejectReason::JobFinished)) => return Ok(()),
            Err(HandshakeError::Rejected(reason)) => {
                return Err(ClusterError::Transport(format!(
                    "PS rejected worker {}: {reason}",
                    spec.worker_id
                )));
            }
            Err(e) => {
                if attempts_left == 0 {
                    return Err(ClusterError::Transport(format!(
                        "handshake failed for worker {}: {e}",
                        spec.worker_id
                    )));
                }
                attempts_left -= 1;
                std::thread::sleep(spec.reconnect_backoff);
                continue;
            }
        }
        match worker_loop(&ctx, &mut link) {
            WorkerExit::Shutdown => return Ok(()),
            WorkerExit::LinkClosed => {
                if attempts_left == 0 {
                    return Err(ClusterError::PeerDisconnected {
                        worker: spec.worker_id,
                    });
                }
                attempts_left -= 1;
                std::thread::sleep(spec.reconnect_backoff);
                // Loop around: fresh connect, fresh handshake, resume at
                // the next broadcast.
            }
        }
    }
}

/// Dials until `timeout` elapses — the PS may bind a beat after its
/// workers launch.
fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> io::Result<TcpLink> {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "connect retry budget exhausted",
            ));
        }
        match TcpLink::connect(addr, remaining.min(Duration::from_millis(250))) {
            Ok(link) => return Ok(link),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_model_broadcast;
    use crate::tcp::MAX_FRAME_LEN;
    use byz_assign::MolsAssignment;
    use byz_data::{SyntheticConfig, SyntheticImages};
    use byz_nn::FastMlp;
    use rand::SeedableRng;

    #[test]
    fn bytes_sent_is_the_same_over_channels_and_loopback_tcp() {
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
        let dims = vec![36usize, 8, 4];
        let job = JobSpec {
            job_id: 1,
            assignment: MolsAssignment::new(5, 3).unwrap().build(),
            dataset: Arc::new(train),
            initial_params: FastMlp::new(&dims, &mut rand::rngs::StdRng::seed_from_u64(2))
                .params_flat(),
            model_dims: dims,
            config: ServerConfig {
                iterations: 3,
                seed: 31,
                ..ServerConfig::default()
            },
        };
        let channel = MessagePassingCluster::new(
            job.assignment.clone(),
            Arc::clone(&job.dataset),
            job.model_dims.clone(),
        )
        .train_run(job.initial_params.clone(), &job.config);

        let server = PsServer::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr().unwrap();
        let workers: Vec<_> = (0..15)
            .map(|w| {
                let spec = WorkerSpec::new(
                    job.job_id,
                    w,
                    job.assignment.clone(),
                    Arc::clone(&job.dataset),
                    job.model_dims.clone(),
                    job.config.clone(),
                );
                std::thread::spawn(move || run_tcp_worker(addr, &spec))
            })
            .collect();
        let mut results = server
            .serve(vec![job.clone()], Duration::from_secs(30))
            .unwrap();
        for worker in workers {
            worker.join().unwrap().unwrap();
        }
        let tcp = results.remove(0).run;

        let files = vec![vec![0u32; job.config.batch_size / 25]; 25];
        let per_round = 15 * encode_model_broadcast(1, &job.initial_params, &files).len();
        let sent = |run: &WireTrainingRun| -> Vec<usize> {
            run.summaries.iter().map(|s| s.bytes_sent).collect()
        };
        assert_eq!(sent(&channel), vec![per_round; 3]);
        assert_eq!(sent(&tcp), sent(&channel));
    }

    /// A 15-slot job with the given upload budget, and its fan-in.
    fn job_handle(max_upload: usize) -> (Arc<JobHandle>, Receiver<Bytes>) {
        let (handle, fan_in_rx) = JobHandle::new(15, max_upload);
        (Arc::new(handle), fan_in_rx)
    }

    #[test]
    fn welcome_reaches_the_worker_before_the_first_broadcast() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (handle, _fan_in_rx) = job_handle(MAX_FRAME_LEN);
        let handles = HashMap::from([(1u64, Arc::clone(&handle))]);
        let mut worker = TcpLink::connect(addr, Duration::from_secs(5)).unwrap();
        worker
            .send(
                Handshake::Hello {
                    job_id: 1,
                    worker: 4,
                }
                .encode(),
            )
            .unwrap();
        let reader = admit_connection(listener.accept().unwrap().0, &handles).expect("admitted");
        // The slot writer's first frame, written the moment the slot is
        // installed.
        let broadcast = encode_model_broadcast(1, &[0.5; 64], &[vec![0]]);
        write_to_slot(&handle, 4, &broadcast);
        let first = worker.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            Handshake::decode(&first),
            Ok(Handshake::Welcome {
                job_id: 1,
                worker: 4
            })
        );
        assert_eq!(
            worker.recv_timeout(Duration::from_secs(5)).unwrap(),
            broadcast
        );
        // The reader runs until the worker closes.
        drop(worker);
        reader.join().unwrap();
    }

    #[test]
    fn admitted_worker_declaring_an_oversized_upload_is_cut_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // wire_dense's shape: l = 5 files of d = 264 970 floats.
        let budget = crate::WireFormat::Batched.max_upload_frame_len(5, 264_970);
        let (handle, fan_in_rx) = job_handle(budget);
        let handles = HashMap::from([(1u64, handle)]);
        let mut rogue = TcpLink::connect(addr, Duration::from_secs(5)).unwrap();
        let ps_side = std::thread::spawn(move || {
            let stream = listener.accept().unwrap().0;
            admit_connection(stream, &handles).expect("admitted")
        });
        client_handshake(&mut rogue, 1, 4, Duration::from_secs(5)).unwrap();
        let reader = ps_side.join().unwrap();

        // A 64 MiB declaration behind a valid magic, then a block of
        // filler the PS must not wait for.
        let mut raw = rogue.stream().try_clone().unwrap();
        let mut bogus = (64u32 << 20).to_le_bytes().to_vec();
        bogus.extend_from_slice(&crate::Message::Shutdown.encode()[..4]);
        bogus.resize(crate::tcp::READ_BLOCK_LEN, 0xAB);
        let _ = std::io::Write::write_all(&mut raw, &bogus);

        let deadline = Instant::now() + Duration::from_secs(5);
        while !reader.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(reader.is_finished(), "the reader still waits on the frame");
        reader.join().unwrap();
        assert_eq!(
            rogue.recv_timeout(Duration::from_secs(5)),
            Err(LinkError::Closed),
            "the PS closed the connection"
        );
        assert!(fan_in_rx.try_recv().is_err(), "nothing reached the job");
    }

    #[test]
    fn retired_join_request_is_dropped_without_touching_the_slot() {
        use bytes::{BufMut, BytesMut};
        use std::io::Read;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (handle, _fan_in_rx) = job_handle(MAX_FRAME_LEN);
        let handles = HashMap::from([(1u64, Arc::clone(&handle))]);

        // Slot 9 holds an honest worker's live stream.
        let honest = TcpStream::connect(addr).unwrap();
        *handle.slots[9].lock().unwrap() = Some(listener.accept().unwrap().0);

        // A second peer opens with a sealed kind-11 frame (the retired
        // join request) claiming the same slot.
        let mut rogue = TcpStream::connect(addr).unwrap();
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u32_le(9);
        crate::tcp::write_frame(&mut rogue, &crate::message::seal_frame(11, body)).unwrap();
        let (rogue_at_ps, _) = listener.accept().unwrap();

        assert!(admit_connection(rogue_at_ps, &handles).is_none());
        rogue
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(rogue.read(&mut [0u8; 64]).unwrap(), 0, "no reply, just EOF");
        let slot = handle.slots[9].lock().unwrap();
        assert_eq!(
            slot.as_ref().unwrap().peer_addr().unwrap(),
            honest.local_addr().unwrap(),
            "slot 9 still holds the honest stream"
        );
        assert_eq!(handle.gate.wait(Duration::ZERO), Err(0), "no slot marked");
    }
}
