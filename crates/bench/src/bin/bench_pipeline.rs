//! Streaming-round pipeline benchmark: records `BENCH_pipeline.json`
//! comparing the streaming PS round against the barrier round at the
//! reference geometry K = 25 workers (Ramanujan Case 2: f = 25,
//! l = r = 5), d = 1M, under a straggler plan.
//!
//! Like `bench_round` and `bench_wire`, this is a *driver* benchmark: it
//! spawns the 25 workers as real OS threads that serialize real wire
//! frames ([`encode_gradient_batch`] / [`encode_gradient_chunks`]) over
//! a channel to a PS loop that mirrors the two `RoundMode` arms of
//! `byz-wire`'s server with the same primitives — batched-barrier votes
//! all files on the pool after the window ([`quorum_vote_all_audited`]),
//! batched-streaming votes each file eagerly inside the window
//! ([`quorum_vote_audited`]), and the chunked arms ingest into
//! [`ShardedFileVoter`]s finalized after the window (barrier) or the
//! moment a file's last holder completes (streaming). Worker *compute*
//! is modeled as latency (`thread::sleep`, the `CostModel` convention
//! from `byz-cluster`): the quantity under test is the PS-side pipeline,
//! not the gradient kernels, and real-model rounds on this box are
//! compute-bound enough to bury the wire/vote overlap being measured.
//! The semantic contract — streaming `TrainingHistory`, `VoteAudit`s and
//! ledger bytes bit-identical to barrier on the *real* engine, across
//! Sequential/Threaded and both wire formats — is pinned by the tests in
//! `crates/wire/src/server.rs` and `tests/streaming_pipeline.rs`; this
//! binary cross-checks its own four cells by vote digest (winner
//! fingerprints + vote counts) and bit-identical updated parameters
//! before timing anything.
//!
//! The speedup being measured is wave pipelining: a streaming worker
//! uploads file `i` while it computes file `i + 1`, so the PS decodes,
//! copies and votes wave `i` during wave `i + 1`'s compute latency and
//! only the straggler's last files plus the aggregate/update tail
//! remain serial. The barrier path sits idle through the whole compute
//! phase and then pays decode + vote + aggregate back-to-back. The
//! **batched wire is the gated row**: its per-entry window cost is one
//! memcpy + checksum, so nearly the entire vote pass is barrier-side
//! post-window work for streaming to hide. The chunked wire spends
//! extra in-window CPU on per-chunk fingerprint folding in *both*
//! modes, which crowds out hideable work on a single core, so its ratio
//! is structurally smaller and reported as a secondary row. The barrier
//! batched vote runs pool-parallel exactly like the real server, which
//! shrinks the hideable work on multi-core machines — CI therefore pins
//! the benchmark to one core (`taskset -c 0`), where the ratio is
//! independent of `BYZ_KERNEL_THREADS`, matching how the 1-core
//! reference numbers in README were produced.
//!
//! `--check MIN` turns the binary into a regression gate: the batched
//! streaming/barrier rounds-per-second ratio must be at least `MIN`
//! (CI runs `--check 1.3`).

use bytes::Bytes;
use byz_aggregate::{
    aggregate_winners, quorum_vote_all_audited, quorum_vote_audited, CoordinateMedian,
    QuorumOutcome, VoteInput,
};
use byz_assign::RamanujanAssignment;
use byz_bench::harness::{check_min_arg, fail_gate, median_ns, rounds_per_sec, JsonReport};
use byz_wire::{
    decode_gradient_batch, decode_gradient_chunk, encode_gradient_batch, encode_gradient_chunks,
    ChunkConfig, ShardedFileVoter,
};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Model dimension — the d = 1M reference point of the other benches.
const D: usize = 1_000_000;
/// Modeled per-file gradient latency — the measured cost of one file's
/// `FastMlp` [784, 1272, 16] batch-25 gradient (d ≈ 1M) on the 1-core
/// reference box (~6.5 ms/sample), so the wave cadence the streaming PS
/// pipelines against is the real engine's.
const COMPUTE: Duration = Duration::from_millis(160);
/// Extra one-shot delay for the straggler, on top of its compute — the
/// window slack the streaming PS fills with vote work.
const STRAGGLE: Duration = Duration::from_millis(300);
/// Worker that straggles every round.
const STRAGGLER: usize = 4;
/// Workers that forge a constant payload for every file they hold.
const BYZANTINE: [usize; 2] = [0, 6];
/// Minimum replicas for a file's vote to count.
const Q_MIN: usize = 3;
/// Chunk width for the chunked wire (floats per frame).
const CHUNK_LEN: usize = 65_536;
/// Rounds per timed repetition; per-round time is the median over
/// repetitions divided by this.
const ROUNDS_PER_REP: usize = 3;
/// Timed repetitions per (wire, mode) cell (plus one warm-up).
const REPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Wire {
    Batched,
    Chunked,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Barrier,
    Streaming,
}

/// The assignment graph, flattened for the worker/PS loops.
struct Geometry {
    k: usize,
    f: usize,
    files_of: Vec<Vec<usize>>,
    holders: Vec<Vec<usize>>,
}

fn geometry() -> Geometry {
    let assignment = RamanujanAssignment::new(5, 5)
        .expect("Case 2 (m = s = 5) is valid")
        .build();
    let (k, f) = (assignment.num_workers(), assignment.num_files());
    assert_eq!((k, f), (25, 25), "the gate geometry is K = 25, f = 25");
    assert_eq!(assignment.replication(), 5);
    Geometry {
        k,
        f,
        files_of: (0..k)
            .map(|w| assignment.graph().files_of(w).to_vec())
            .collect(),
        holders: (0..f)
            .map(|file| assignment.graph().workers_of(file).to_vec())
            .collect(),
    }
}

/// Deterministic per-file honest gradient (file-distinct so every vote
/// groups real content, cheap so setup stays off the clock).
fn honest_gradients(f: usize) -> Vec<Vec<f32>> {
    (0..f)
        .map(|file| {
            (0..D)
                .map(|i| ((file * 31 + i) % 977) as f32 * 1e-4 - 0.05)
                .collect()
        })
        .collect()
}

fn replica<'a>(worker: usize, file: usize, honest: &'a [Vec<f32>], forged: &'a [f32]) -> &'a [f32] {
    if BYZANTINE.contains(&worker) {
        forged
    } else {
        &honest[file]
    }
}

/// One worker's round: straggle, then compute (modeled as sleep) and
/// upload each assigned file — per file under streaming, all at once
/// after the last file under barrier, exactly like the server's worker
/// loop.
#[allow(clippy::too_many_arguments)]
fn worker_round(
    worker: usize,
    files: &[usize],
    wire: Wire,
    mode: Mode,
    round: u64,
    honest: &[Vec<f32>],
    forged: &[f32],
    cfg: &ChunkConfig,
    tx: &mpsc::Sender<Bytes>,
) {
    if worker == STRAGGLER {
        thread::sleep(STRAGGLE);
    }
    let send_file = |file: usize| {
        let g = replica(worker, file, honest, forged);
        match wire {
            Wire::Batched => {
                let frame = encode_gradient_batch(round, worker as u32, &[(file as u32, g)]);
                tx.send(frame).expect("PS outlives the round");
            }
            Wire::Chunked => {
                for frame in encode_gradient_chunks(round, worker as u32, file as u32, g, cfg) {
                    tx.send(frame).expect("PS outlives the round");
                }
            }
        }
    };
    match mode {
        Mode::Streaming => {
            for &file in files {
                thread::sleep(COMPUTE);
                send_file(file);
            }
        }
        Mode::Barrier => {
            thread::sleep(COMPUTE * files.len() as u32);
            if wire == Wire::Batched {
                let entries: Vec<(u32, &[f32])> = files
                    .iter()
                    .map(|&file| (file as u32, replica(worker, file, honest, forged)))
                    .collect();
                let frame = encode_gradient_batch(round, worker as u32, &entries);
                tx.send(frame).expect("PS outlives the round");
            } else {
                files.iter().for_each(|&file| send_file(file));
            }
        }
    }
}

/// PS collection for the batched wire, mirroring the server's two
/// `RoundMode` arms: barrier decodes everything then votes all files on
/// the pool; streaming votes each file the moment its last holder's
/// entry arrives.
fn ps_batched(geom: &Geometry, mode: Mode, rx: &mpsc::Receiver<Bytes>) -> Vec<QuorumOutcome> {
    let mut file_replicas: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); geom.f];
    let mut eager: Vec<Option<QuorumOutcome>> = vec![None; geom.f];
    let frames = match mode {
        Mode::Barrier => geom.k,
        Mode::Streaming => geom.files_of.iter().map(Vec::len).sum(),
    };
    for _ in 0..frames {
        let frame = rx.recv().expect("workers send every frame");
        let batch = decode_gradient_batch(&frame).expect("driver frames are well-formed");
        let worker = batch.worker as usize;
        for entry in &batch.entries {
            let file = entry.file as usize;
            let mut g = Vec::with_capacity(entry.len());
            entry.extend_into(&mut g);
            file_replicas[file].push((worker, g));
            if mode == Mode::Streaming && file_replicas[file].len() >= geom.holders[file].len() {
                eager[file] = Some(
                    quorum_vote_audited(&file_replicas[file], Q_MIN, &geom.holders[file])
                        .expect("all holders arrived"),
                );
            }
        }
    }
    match mode {
        Mode::Streaming => eager
            .into_iter()
            .map(|o| o.expect("every file completed in-window"))
            .collect(),
        Mode::Barrier => {
            let inputs: Vec<VoteInput<'_, Vec<f32>>> = (0..geom.f)
                .map(|file| {
                    (
                        file_replicas[file].as_slice(),
                        geom.holders[file].as_slice(),
                    )
                })
                .collect();
            quorum_vote_all_audited(&inputs, Q_MIN)
                .into_iter()
                .map(|r| r.expect("all holders arrived"))
                .collect()
        }
    }
}

/// PS collection for the chunked wire: both modes ingest every chunk
/// into the file's [`ShardedFileVoter`]; barrier finalizes the voters
/// back-to-back after the window, streaming finalizes each file as soon
/// as its last holder's replica completes.
fn ps_chunked(geom: &Geometry, mode: Mode, rx: &mpsc::Receiver<Bytes>) -> Vec<QuorumOutcome> {
    let mut voters: Vec<ShardedFileVoter> = (0..geom.f)
        .map(|file| ShardedFileVoter::new(file as u32, D, CHUNK_LEN))
        .collect();
    let mut eager: Vec<Option<QuorumOutcome>> = vec![None; geom.f];
    let frames_per_file = byz_wire::num_chunks(D, CHUNK_LEN);
    let total: usize = geom.files_of.iter().map(Vec::len).sum::<usize>() * frames_per_file;
    for _ in 0..total {
        let frame = rx.recv().expect("workers send every frame");
        let view = decode_gradient_chunk(&frame).expect("driver frames are well-formed");
        let file = view.file as usize;
        voters[file].ingest(&view);
        if mode == Mode::Streaming
            && eager[file].is_none()
            && voters[file].complete_workers().len() >= geom.holders[file].len()
        {
            eager[file] = Some(
                voters[file]
                    .finalize(Q_MIN, &geom.holders[file])
                    .expect("all holders complete"),
            );
        }
    }
    match mode {
        Mode::Streaming => eager
            .into_iter()
            .map(|o| o.expect("every file completed in-window"))
            .collect(),
        Mode::Barrier => (0..geom.f)
            .map(|file| {
                voters[file]
                    .finalize(Q_MIN, &geom.holders[file])
                    .expect("all holders arrived")
            })
            .collect(),
    }
}

/// One full round: worker threads + PS window, then the aggregate/update
/// tail. Returns the round's vote digest (sum of winner fingerprints,
/// total votes) — the cross-mode equality check.
#[allow(clippy::too_many_arguments)]
fn run_round(
    geom: &Geometry,
    wire: Wire,
    mode: Mode,
    round: u64,
    honest: &[Vec<f32>],
    forged: &[f32],
    cfg: &ChunkConfig,
    params: &mut [f32],
    velocity: &mut [f32],
) -> (u64, usize) {
    let outcomes = thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Bytes>();
        for worker in 0..geom.k {
            let tx = tx.clone();
            let files = &geom.files_of[worker];
            s.spawn(move || {
                worker_round(worker, files, wire, mode, round, honest, forged, cfg, &tx);
            });
        }
        drop(tx);
        match wire {
            Wire::Batched => ps_batched(geom, mode, &rx),
            Wire::Chunked => ps_chunked(geom, mode, &rx),
        }
    });
    // Canonical ascending-file fold, as in both server arms.
    let digest = outcomes.iter().fold((0u64, 0usize), |(h, v), o| {
        (h.wrapping_add(o.audit.winner_hash), v + o.votes)
    });
    let update = aggregate_winners(&CoordinateMedian, outcomes).expect("no file was abandoned");
    byz_kernel::sgd_momentum_step(params, velocity, &update, 1.0, 0.05, 0.9);
    digest
}

/// Runs `rounds` rounds and returns (digest fold, final params).
fn run_mode(
    geom: &Geometry,
    wire: Wire,
    mode: Mode,
    rounds: usize,
    honest: &[Vec<f32>],
    forged: &[f32],
    cfg: &ChunkConfig,
) -> (u64, usize, Vec<f32>) {
    let mut params = vec![0.1f32; D];
    let mut velocity = vec![0.0f32; D];
    let (mut hash, mut votes) = (0u64, 0usize);
    for round in 0..rounds {
        let (h, v) = run_round(
            geom,
            wire,
            mode,
            round as u64,
            honest,
            forged,
            cfg,
            &mut params,
            &mut velocity,
        );
        hash = hash.wrapping_add(h);
        votes += v;
    }
    (hash, votes, params)
}

struct WireResult {
    label: &'static str,
    barrier_round_ns: u128,
    streaming_round_ns: u128,
}

impl WireResult {
    fn speedup(&self) -> f64 {
        self.barrier_round_ns as f64 / self.streaming_round_ns as f64
    }
}

fn run_wire(
    label: &'static str,
    wire: Wire,
    geom: &Geometry,
    honest: &[Vec<f32>],
    forged: &[f32],
    cfg: &ChunkConfig,
) -> WireResult {
    // ── Digest + parameter cross-check before timing ──────────────────
    let (bh, bv, bp) = run_mode(geom, wire, Mode::Barrier, 2, honest, forged, cfg);
    let (sh, sv, sp) = run_mode(geom, wire, Mode::Streaming, 2, honest, forged, cfg);
    assert_eq!(
        (bh, bv),
        (sh, sv),
        "{label}: streaming vote digest diverged from barrier"
    );
    assert_eq!(
        bp, sp,
        "{label}: streaming parameters diverged from barrier"
    );

    // ── Timed medians ─────────────────────────────────────────────────
    let time_mode = |mode: Mode| {
        median_ns(REPS, || {
            std::hint::black_box(run_mode(
                geom,
                wire,
                mode,
                ROUNDS_PER_REP,
                honest,
                forged,
                cfg,
            ));
        }) / ROUNDS_PER_REP as u128
    };
    WireResult {
        label,
        barrier_round_ns: time_mode(Mode::Barrier),
        streaming_round_ns: time_mode(Mode::Streaming),
    }
}

fn main() {
    let check_min = check_min_arg();
    println!(
        "pipeline benches (pool: {} threads, K=25 f=25 r=5, d=1M, compute {} ms/file, straggler +{} ms) — median ns/round\n",
        byz_kernel::num_threads(),
        COMPUTE.as_millis(),
        STRAGGLE.as_millis()
    );

    let geom = geometry();
    let honest = honest_gradients(geom.f);
    let forged = vec![-50.0f32; D];
    let cfg = ChunkConfig::dense(CHUNK_LEN);

    let mut results: Vec<WireResult> = Vec::new();
    for (label, wire) in [("batched", Wire::Batched), ("chunked", Wire::Chunked)] {
        let r = run_wire(label, wire, &geom, &honest, &forged, &cfg);
        println!(
            "{:<8} barrier {:>12} ns/round | streaming {:>12} ns/round | {:.2}x",
            r.label,
            r.barrier_round_ns,
            r.streaming_round_ns,
            r.speedup(),
        );
        results.push(r);
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{ \"wire\": \"{}\", \"barrier_round_ns\": {}, \"streaming_round_ns\": {}, \"barrier_rounds_per_sec\": {:.3}, \"streaming_rounds_per_sec\": {:.3}, \"speedup\": {:.3} }}",
                r.label,
                r.barrier_round_ns,
                r.streaming_round_ns,
                rounds_per_sec(r.barrier_round_ns),
                rounds_per_sec(r.streaming_round_ns),
                r.speedup(),
            )
        })
        .collect();
    let gated = &results[0]; // batched
    let mut report = JsonReport::new();
    report
        .field("pool_threads", byz_kernel::num_threads())
        .field("workers", 25)
        .field("files", 25)
        .field("replication", 5)
        .field("model_dim", D)
        .field("compute_ms_per_file", COMPUTE.as_millis())
        .field("straggler_extra_ms", STRAGGLE.as_millis())
        .field("rounds_per_rep", ROUNDS_PER_REP)
        .array("configs", &rows)
        .field(
            "gate",
            format!(
                "{{ \"wire\": \"batched\", \"speedup\": {:.3} }}",
                gated.speedup()
            ),
        );
    report.write("BENCH_pipeline.json");

    if let Some(min) = check_min {
        let speedup = gated.speedup();
        if speedup < min {
            fail_gate(format!(
                "batched streaming speedup {speedup:.3}x at K=25, d=1M is below the {min}x gate"
            ));
        }
        println!(
            "gate OK: batched streaming {speedup:.3}x >= {min}x over barrier (chunked {:.3}x) at K=25, d=1M",
            results[1].speedup()
        );
    }
}
