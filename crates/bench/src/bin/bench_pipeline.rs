//! Streaming-round pipeline benchmark: records `BENCH_pipeline.json`
//! comparing the streaming PS round against the barrier round at the
//! reference geometry K = 25 workers (Ramanujan Case 2: f = 25,
//! l = r = 5), d = 1M, under a straggler plan.
//!
//! This is a *driver* benchmark: it spawns the 25 workers as real OS
//! threads that serialize real wire frames ([`encode_gradient_batch`] /
//! [`encode_gradient_chunks`]) over a channel, and the PS side drives
//! the server's own round engine ([`RoundCore`]: `begin` → `ingest` →
//! `close`) — the same admission gate, replica stores and close policy
//! `MessagePassingCluster` runs, not a mirror of them. Worker *compute*
//! is modeled as latency (`thread::sleep`, the `CostModel` convention
//! from `byz-cluster`): the quantity under test is the PS-side pipeline,
//! not the gradient kernels, and real-model rounds on this box are
//! compute-bound enough to bury the wire/vote overlap being measured.
//! The semantic contract — streaming `TrainingHistory`, `VoteAudit`s and
//! ledger bytes bit-identical to barrier on the *real* engine, across
//! Sequential/Threaded and both wire formats — is pinned by the tests in
//! `crates/wire/src/server.rs`, `crates/wire/tests/round_properties.rs`
//! and `tests/streaming_pipeline.rs`; this binary cross-checks its own
//! four cells by vote digest (winner fingerprints + vote counts) and
//! bit-identical updated parameters before timing anything.
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
use byz_aggregate::{Aggregator, CoordinateMedian, QuorumConfig, ReplicaVerdict};
use byz_assign::RamanujanAssignment;
use byz_bench::harness::{check_min_arg, fail_gate, median_ns, rounds_per_sec, JsonReport};
use byz_wire::{
    encode_gradient_batch, encode_gradient_chunks, Assignment, ChunkConfig, RoundCore, RoundMode,
    ServerConfig, WireFormat,
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
const ROUNDS_PER_REP: u64 = 3;
/// Timed repetitions per (wire, mode) cell (plus one warm-up).
const REPS: usize = 3;

fn assignment() -> Assignment {
    let assignment = RamanujanAssignment::new(5, 5)
        .expect("Case 2 (m = s = 5) is valid")
        .build();
    assert_eq!(
        (assignment.num_workers(), assignment.num_files()),
        (25, 25),
        "the gate geometry is K = 25, f = 25"
    );
    assert_eq!(assignment.replication(), 5);
    assignment
}

/// The server configuration of one (wire, mode) cell: everything the
/// round engine reads.
fn cell(wire: WireFormat, mode: RoundMode) -> ServerConfig {
    ServerConfig {
        wire,
        mode,
        quorum: QuorumConfig::strict(Q_MIN),
        ..ServerConfig::default()
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
/// after the last file otherwise, exactly like the server's worker loop.
fn worker_round(
    worker: usize,
    files: &[usize],
    config: &ServerConfig,
    round: u64,
    honest: &[Vec<f32>],
    forged: &[f32],
    tx: &mpsc::Sender<Bytes>,
) {
    if worker == STRAGGLER {
        thread::sleep(STRAGGLE);
    }
    let flush = |files: &[usize]| {
        let entries: Vec<(u32, &[f32])> = files
            .iter()
            .map(|&file| (file as u32, replica(worker, file, honest, forged)))
            .collect();
        let frames = match config.wire {
            WireFormat::Batched => vec![encode_gradient_batch(round, worker as u32, &entries)],
            WireFormat::Chunked(cfg) => entries
                .iter()
                .flat_map(|&(file, g)| encode_gradient_chunks(round, worker as u32, file, g, &cfg))
                .collect(),
        };
        for frame in frames {
            tx.send(frame).expect("PS outlives the round");
        }
    };
    if config.mode == RoundMode::Streaming {
        for file in files {
            thread::sleep(COMPUTE);
            flush(std::slice::from_ref(file));
        }
    } else {
        thread::sleep(COMPUTE * files.len() as u32);
        flush(files);
    }
}

/// Runs `rounds` rounds — worker threads + the PS window on the real
/// round engine, then the aggregate/update tail — and returns the vote
/// digest (sum of winner fingerprints, total votes: the cross-mode
/// equality check) and the final params.
fn run_mode(
    assignment: &Assignment,
    config: &ServerConfig,
    rounds: u64,
    honest: &[Vec<f32>],
    forged: &[f32],
) -> (u64, usize, Vec<f32>) {
    let k = assignment.num_workers();
    let mut params = vec![0.1f32; D];
    let mut velocity = vec![0.0f32; D];
    let mut core = RoundCore::new(assignment, D, config);
    let (mut hash, mut votes) = (0u64, 0usize);
    for round in 0..rounds {
        let result = thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Bytes>();
            for worker in 0..k {
                let tx = tx.clone();
                let files = assignment.graph().files_of(worker);
                s.spawn(move || worker_round(worker, files, config, round, honest, forged, &tx));
            }
            drop(tx);
            core.begin(round, &vec![false; k]);
            while core.wants_more() {
                let frame = rx.recv().expect("workers send every frame");
                let admitted = core.ingest(&frame).expect("driver frames are well-formed");
                assert!(admitted.refused.is_empty(), "driver frames pass the gate");
            }
            core.close()
        });
        assert_eq!(result.abandoned_files, 0, "all holders arrived");
        for audit in &result.audits {
            hash = hash.wrapping_add(audit.winner_hash);
            votes += audit.count(ReplicaVerdict::Agreed);
        }
        let update = CoordinateMedian
            .aggregate(&result.winners)
            .expect("no file was abandoned");
        byz_kernel::sgd_momentum_step(&mut params, &mut velocity, &update, 1.0, 0.05, 0.9);
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
    wire: WireFormat,
    assignment: &Assignment,
    honest: &[Vec<f32>],
    forged: &[f32],
) -> WireResult {
    let barrier = cell(wire, RoundMode::Barrier);
    let streaming = cell(wire, RoundMode::Streaming);
    // ── Digest + parameter cross-check before timing ──────────────────
    let (bh, bv, bp) = run_mode(assignment, &barrier, 2, honest, forged);
    let (sh, sv, sp) = run_mode(assignment, &streaming, 2, honest, forged);
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
    let time_mode = |config: &ServerConfig| {
        median_ns(REPS, || {
            std::hint::black_box(run_mode(assignment, config, ROUNDS_PER_REP, honest, forged));
        }) / ROUNDS_PER_REP as u128
    };
    WireResult {
        label,
        barrier_round_ns: time_mode(&barrier),
        streaming_round_ns: time_mode(&streaming),
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

    let assignment = assignment();
    let honest = honest_gradients(assignment.num_files());
    let forged = vec![-50.0f32; D];

    let mut results: Vec<WireResult> = Vec::new();
    for (label, wire) in [
        ("batched", WireFormat::Batched),
        (
            "chunked",
            WireFormat::Chunked(ChunkConfig::dense(CHUNK_LEN)),
        ),
    ] {
        let r = run_wire(label, wire, &assignment, &honest, &forged);
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
