//! Per-layer probes: each times one layer's public functions at the
//! workload's exact geometry (d, r, f, K, chunk length, samples per
//! file), outside any job. Nothing under `crates/` is instrumented; what
//! a layer costs *inside* a round comes from multiplying these by the
//! calls a round makes (see `attributed_cpu_ms_per_round`).

use crate::job::first_samples;
use crate::trace::Tracer;
use crate::workload::{Workload, CHUNK_LEN, TOP_K};
use bytes::{Bytes, BytesMut};
use byz_aggregate::{quorum_vote_audited, Aggregator, CoordinateMedian, VoteAudit};
use byz_assign::MolsAssignment;
use byz_data::{split_batch_into_files, BatchSampler};
use byz_nn::FastMlp;
use byz_psd::DeploySpec;
use byz_reputation::{ReputationConfig, ReputationLedger};
use byz_wire::{
    channel_link_pair, decode_gradient_batch, decode_gradient_chunk, encode_gradient_batch_into,
    encode_gradient_chunk_into, num_chunks, ChunkConfig, ChunkScheme, Link, Message,
    ShardedFileVoter, SparsifyConfig, TcpLink, WireFormat,
};
use byzshield::experiments::{
    run_experiment, AggregatorKind, AttackKind, ClusterSize, ExperimentSpec, SchemeSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The shape every probe runs at, read off the workload's spec.
struct Geometry {
    dims: Vec<usize>,
    /// Model size `d`.
    d: usize,
    workers: usize,
    files: usize,
    replication: usize,
    samples_per_file: usize,
    /// `Some` when the workload's wire is chunked.
    chunked: Option<ChunkConfig>,
    reputation: bool,
    top_k_seed: u64,
}

impl Geometry {
    fn of(workload: &Workload, spec: &DeploySpec) -> Geometry {
        let mut config = spec.server_config();
        workload.patch(&mut config);
        let files = spec.l * spec.l;
        Geometry {
            dims: spec.dims.clone(),
            d: spec.initial_params().len(),
            workers: spec.num_workers(),
            files,
            replication: spec.r,
            samples_per_file: spec.batch_size / files,
            chunked: match config.wire {
                WireFormat::Batched => None,
                WireFormat::Chunked(cfg) => Some(cfg),
            },
            reputation: spec.reputation,
            top_k_seed: workload.top_k_seed.unwrap_or(spec.seed),
        }
    }

    fn files_per_worker(&self) -> usize {
        self.files * self.replication / self.workers
    }

    fn chunks_per_replica(&self) -> usize {
        num_chunks(self.d, CHUNK_LEN)
    }

    fn sparse_config(&self) -> ChunkConfig {
        ChunkConfig {
            chunk_len: CHUNK_LEN,
            scheme: ChunkScheme::TopK(SparsifyConfig::top_k(TOP_K, self.top_k_seed)),
        }
    }
}

/// Seconds per call of the layer functions a round is made of, kept so
/// the per-round attribution can be computed from them.
#[derive(Debug, Default)]
struct Costs {
    gradient: f64,
    broadcast_encode: f64,
    broadcast_decode: f64,
    batch_encode: f64,
    batch_decode: f64,
    chunk_replica_encode: f64,
    chunk_replica_decode: f64,
    sparse_replica_encode: f64,
    sparse_replica_decode: f64,
    voter_ingest_chunk: f64,
    voter_finalize: f64,
    vote: f64,
    median: f64,
    step: f64,
    reputation: f64,
    batch_split: f64,
}

/// What the probes found.
pub struct ProbeReport {
    pub metrics: Vec<Metric>,
    /// Σ (probe cost × calls per round): the CPU a round would take if
    /// it were nothing but these layer calls, in ms.
    pub attributed_cpu_ms_per_round: f64,
}

/// Median seconds per call of `op`, called until `budget` is spent and
/// at least three times.
fn time_median(budget: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Runs every probe at `workload`'s geometry, giving each timed loop
/// `budget` of wall time.
pub fn run_all(workload: &Workload, budget: Duration, tracer: &mut Tracer) -> ProbeReport {
    let spec = &workload.spec();
    let tokens = &workload.tokens;
    let dataset = &*spec.dataset();
    let g = &Geometry::of(workload, spec);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut out: Vec<Metric> = Vec::new();
    let mut costs = Costs::default();
    let root = tracer.begin("probes", None);
    let gb = |bytes: usize, secs: f64| bytes as f64 / secs / 1e9;

    // env: what this box can do, the reference the layer rates read against.
    tracer.span("probe.env", root, || {
        let src = vec![1u8; 32 << 20];
        let mut dst = vec![0u8; 32 << 20];
        let t = time_median(budget, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });
        out.push(metric("env.memcpy_gbps", gb(src.len(), t), "GB/s"));
        let nproc = thread::available_parallelism().map_or(1, usize::from);
        out.push(metric("env.nproc", nproc as f64, "count"));
        out.push(metric(
            "env.kernel_threads",
            byz_kernel::num_threads() as f64,
            "count",
        ));
    });

    // nn + kernel: one file's gradient, the worker-side unit of compute.
    tracer.span("probe.nn", root, || {
        let model = FastMlp::new(&g.dims, &mut rng);
        let n = g.samples_per_file;
        let (x, labels) = first_samples(dataset, n);
        costs.gradient = time_median(budget, || {
            black_box(model.gradient_sum(black_box(&x), n, &labels));
        });
        // Nominal: forward 2·b·in·out per layer, backward twice that.
        let macs: usize = g.dims.windows(2).map(|w| w[0] * w[1]).sum();
        let flops = 6.0 * n as f64 * macs as f64;
        out.push(metric(
            "nn.gradient_ms_per_file",
            costs.gradient * 1e3,
            "ms",
        ));
        out.push(metric(
            "nn.gradient_gflops",
            flops / costs.gradient / 1e9,
            "GFLOP/s",
        ));
    });
    tracer.span("probe.kernel", root, || {
        let (m, k, n) = (g.samples_per_file, g.dims[0], g.dims[1]);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut c = vec![0.0f32; m * n];
        let t = time_median(budget, || {
            byz_kernel::matmul(black_box(&a), black_box(&b), &mut c, m, k, n);
            black_box(&mut c);
        });
        out.push(metric(
            "kernel.matmul_gflops",
            2.0 * (m * k * n) as f64 / t / 1e9,
            "GFLOP/s",
        ));

        let mut params = random_vec(&mut rng, g.d);
        let mut velocity = vec![0.0f32; g.d];
        let gradient = random_vec(&mut rng, g.d);
        costs.step = time_median(budget, || {
            byz_kernel::sgd_momentum_step(
                &mut params,
                &mut velocity,
                black_box(&gradient),
                1.0,
                1e-6,
                0.9,
            );
            black_box(&mut params);
        });
        // Reads params, velocity, gradient; writes params, velocity.
        out.push(metric(
            "kernel.sgd_step_gbps",
            gb(20 * g.d, costs.step),
            "GB/s",
        ));
    });

    // wire.codec: the frames of one round.
    let replica = random_vec(&mut rng, g.d);
    tracer.span("probe.wire.codec", root, || {
        let files: Vec<Vec<u32>> = (0..g.files)
            .map(|f| {
                (0..g.samples_per_file)
                    .map(|s| (f * g.samples_per_file + s) as u32)
                    .collect()
            })
            .collect();
        let broadcast = Message::ModelBroadcast {
            iteration: 1,
            params: replica.clone(),
            files,
        };
        costs.broadcast_encode = time_median(budget, || {
            black_box(black_box(&broadcast).encode());
        });
        let frame = broadcast.encode();
        costs.broadcast_decode = time_median(budget, || {
            black_box(Message::decode(black_box(&frame)).expect("own frame decodes"));
        });
        out.push(metric(
            "wire.codec.broadcast_encode_ms",
            costs.broadcast_encode * 1e3,
            "ms",
        ));
        out.push(metric(
            "wire.codec.broadcast_decode_ms",
            costs.broadcast_decode * 1e3,
            "ms",
        ));

        // One worker's round on the batched wire: its l files in one frame.
        let entries: Vec<(u32, &[f32])> = (0..g.files_per_worker())
            .map(|f| (f as u32, replica.as_slice()))
            .collect();
        costs.batch_encode = time_median(budget, || {
            black_box(encode_gradient_batch_into(
                1,
                0,
                black_box(&entries),
                BytesMut::new(),
            ));
        });
        let frame = encode_gradient_batch_into(1, 0, &entries, BytesMut::new());
        let mut flat: Vec<f32> = Vec::with_capacity(entries.len() * g.d);
        costs.batch_decode = time_median(budget, || {
            let view = decode_gradient_batch(black_box(&frame)).expect("own frame decodes");
            flat.clear();
            for entry in &view.entries {
                entry.extend_into(&mut flat);
            }
            black_box(&mut flat);
        });
        out.push(metric(
            "wire.codec.batch_encode_gbps",
            gb(frame.len(), costs.batch_encode),
            "GB/s",
        ));
        out.push(metric(
            "wire.codec.batch_decode_gbps",
            gb(frame.len(), costs.batch_decode),
            "GB/s",
        ));

        // One replica on the chunked wire, dense then seeded top-k.
        let dense = ChunkConfig::dense(CHUNK_LEN);
        let sparse = g.sparse_config();
        let chunks = g.chunks_per_replica();
        let encode_all = |cfg: &ChunkConfig| -> Vec<Bytes> {
            (0..chunks)
                .map(|i| encode_gradient_chunk_into(1, 0, 0, &replica, i, cfg, BytesMut::new()))
                .collect()
        };
        let mut scratch: Vec<f32> = Vec::with_capacity(CHUNK_LEN);
        let mut decode_all = |frames: &[Bytes]| {
            for frame in frames {
                let view = decode_gradient_chunk(black_box(frame)).expect("own frame decodes");
                scratch.clear();
                view.densify_into(&mut scratch);
                black_box(&mut scratch);
            }
        };
        costs.chunk_replica_encode = time_median(budget, || {
            black_box(encode_all(black_box(&dense)));
        });
        let dense_frames = encode_all(&dense);
        costs.chunk_replica_decode = time_median(budget, || decode_all(&dense_frames));
        costs.sparse_replica_encode = time_median(budget, || {
            black_box(encode_all(black_box(&sparse)));
        });
        let sparse_frames = encode_all(&sparse);
        costs.sparse_replica_decode = time_median(budget, || decode_all(&sparse_frames));
        let bytes = |frames: &[Bytes]| frames.iter().map(Bytes::len).sum::<usize>();
        out.push(metric(
            "wire.codec.chunk_encode_gbps",
            gb(bytes(&dense_frames), costs.chunk_replica_encode),
            "GB/s",
        ));
        out.push(metric(
            "wire.codec.chunk_decode_gbps",
            gb(bytes(&dense_frames), costs.chunk_replica_decode),
            "GB/s",
        ));
        out.push(metric(
            "wire.codec.sparsify_ns_per_coord",
            costs.sparse_replica_encode * 1e9 / g.d as f64,
            "ns",
        ));
        out.push(metric(
            "wire.codec.sparse_ratio",
            bytes(&sparse_frames) as f64 / bytes(&dense_frames) as f64,
            "ratio",
        ));
    });

    // wire.link: a sender thread streams frames, this thread drains them.
    tracer.span("probe.wire.link", root, || {
        let small = encode_gradient_chunk_into(
            1,
            0,
            0,
            &replica[..CHUNK_LEN],
            0,
            &ChunkConfig::dense(CHUNK_LEN),
            BytesMut::new(),
        );
        // The largest frame a round moves: the model broadcast (1 MB at
        // d = 264 970).
        let large = Message::ModelBroadcast {
            iteration: 1,
            params: replica.clone(),
            files: Vec::new(),
        }
        .encode();
        let (tx, rx) = channel_link_pair();
        let (tx, rx, small_s) = stream_frames(tx, rx, &small, budget);
        let (_, _, large_s) = stream_frames(tx, rx, &large, budget);
        out.push(metric("wire.link.channel_frame_us", small_s * 1e6, "us"));
        out.push(metric(
            "wire.link.channel_gbps",
            gb(large.len(), large_s),
            "GB/s",
        ));

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let tx = TcpLink::connect(addr, Duration::from_secs(5)).expect("connect loopback");
        let rx = TcpLink::from_stream(listener.accept().expect("accept loopback").0);
        let (tx, rx, small_s) = stream_frames(tx, rx, &small, budget);
        let (_, _, large_s) = stream_frames(tx, rx, &large, budget);
        out.push(metric("wire.link.tcp_frame_us", small_s * 1e6, "us"));
        out.push(metric(
            "wire.link.tcp_gbps",
            gb(large.len(), large_s),
            "GB/s",
        ));
    });

    // wire.voter + aggregate: one file's vote, then the median over f winners.
    let holders: Vec<usize> = (0..g.replication).collect();
    let mut audits: Vec<VoteAudit> = Vec::new();
    tracer.span("probe.wire.voter", root, || {
        let dense = ChunkConfig::dense(CHUNK_LEN);
        let chunks = g.chunks_per_replica();
        let frames: Vec<Bytes> = holders
            .iter()
            .flat_map(|&w| {
                let replica = &replica;
                (0..chunks).map(move |i| {
                    encode_gradient_chunk_into(1, w as u32, 0, replica, i, &dense, BytesMut::new())
                })
            })
            .collect();
        let views: Vec<_> = frames
            .iter()
            .map(|f| decode_gradient_chunk(f).expect("own frame decodes"))
            .collect();
        let mut voter = ShardedFileVoter::new(0, g.d, CHUNK_LEN);
        let ingest_all = time_median(budget, || {
            voter = ShardedFileVoter::new(0, g.d, CHUNK_LEN);
            for view in &views {
                black_box(voter.ingest(black_box(view)));
            }
        });
        costs.voter_ingest_chunk = ingest_all / views.len() as f64;
        costs.voter_finalize = time_median(budget, || {
            black_box(
                voter
                    .finalize(1, &holders)
                    .expect("three complete replicas"),
            );
        });
        out.push(metric(
            "wire.voter.ingest_ns_per_chunk",
            costs.voter_ingest_chunk * 1e9,
            "ns",
        ));
        out.push(metric(
            "wire.voter.finalize_us_per_file",
            costs.voter_finalize * 1e6,
            "us",
        ));
    });
    tracer.span("probe.aggregate", root, || {
        let unanimous: Vec<(usize, &[f32])> =
            holders.iter().map(|&w| (w, replica.as_slice())).collect();
        // The dissenter differs in its last coordinate only: the vote
        // must read every replica to the end to tell them apart.
        let mut dissenter = replica.clone();
        *dissenter.last_mut().expect("d > 0") += 1.0;
        let mut split = unanimous.clone();
        split[0].1 = dissenter.as_slice();
        costs.vote = time_median(budget, || {
            black_box(quorum_vote_audited(black_box(&unanimous), 1, &holders).expect("quorum met"));
        });
        let split_s = time_median(budget, || {
            black_box(quorum_vote_audited(black_box(&split), 1, &holders).expect("quorum met"));
        });
        let voted = g.replication * g.d * 4;
        out.push(metric(
            "aggregate.vote_unanimous_gbps",
            gb(voted, costs.vote),
            "GB/s",
        ));
        out.push(metric(
            "aggregate.vote_split_gbps",
            gb(voted, split_s),
            "GB/s",
        ));
        let audit = quorum_vote_audited(&split, 1, &holders)
            .expect("quorum met")
            .audit;
        audits = vec![audit; g.files];

        let winners: Vec<Vec<f32>> = (0..g.files).map(|_| random_vec(&mut rng, g.d)).collect();
        costs.median = time_median(budget, || {
            black_box(
                CoordinateMedian
                    .aggregate(black_box(&winners))
                    .expect("f equal-length winners"),
            );
        });
        out.push(metric(
            "aggregate.median_ns_per_coord",
            costs.median * 1e9 / g.d as f64,
            "ns",
        ));
    });

    // The PS's once-per-round bookkeeping, and what a job builds once.
    tracer.span("probe.round_bookkeeping", root, || {
        let mut ledger = ReputationLedger::new(g.workers, ReputationConfig::default());
        let mut round = 0;
        costs.reputation = time_median(budget, || {
            round += 1;
            black_box(ledger.observe_round(round, black_box(&audits)));
        });
        out.push(metric(
            "reputation.observe_us_per_round",
            costs.reputation * 1e6,
            "us",
        ));

        let mut sampler = BatchSampler::new(dataset.len(), spec.batch_size, spec.seed);
        costs.batch_split = time_median(budget, || {
            black_box(split_batch_into_files(&sampler.next_batch(), g.files));
        });
        out.push(metric("data.batch_split_us", costs.batch_split * 1e6, "us"));
    });
    tracer.span("probe.setup", root, || {
        let build = time_median(budget, || {
            black_box(
                MolsAssignment::new(spec.l as u64, spec.r)
                    .expect("MOLS(5,3) exists")
                    .build(),
            );
        });
        out.push(metric("assign.mols_build_ms", build * 1e3, "ms"));
        let job = time_median(budget, || {
            let spec = DeploySpec::parse(black_box(tokens)).expect("generated tokens parse");
            black_box(spec.job_spec().expect("assignment exists"));
        });
        out.push(metric("psd.job_spec_ms", job * 1e3, "ms"));
    });

    // core: the in-process engine's round, the second implementation of
    // the protocol. Two run lengths, so dataset and model set-up cancel.
    tracer.span("probe.core.experiment", root, || {
        let run = |iterations: usize| {
            let mut e = ExperimentSpec::new(
                SchemeSpec::ByzShield,
                AggregatorKind::Median,
                ClusterSize::K15,
                AttackKind::Alie,
                3,
            );
            e.iterations = iterations;
            e.eval_every = 1 << 20;
            e.seed = spec.seed;
            let t = Instant::now();
            black_box(run_experiment(&e));
            t.elapsed().as_secs_f64()
        };
        let (short, long) = (run(2), run(12));
        out.push(metric(
            "core.experiment_round_ms",
            (long - short).max(0.0) * 1e3 / 10.0,
            "ms",
        ));
    });
    tracer.end(root);

    let attributed = attributed_cpu_s_per_round(g, &costs) * 1e3;
    ProbeReport {
        metrics: out,
        attributed_cpu_ms_per_round: attributed,
    }
}

/// Streams copies of `frame` from a sender thread to this thread for
/// `budget` and returns the links and the seconds per frame delivered.
fn stream_frames<L: Link + 'static>(
    mut tx: L,
    mut rx: L,
    frame: &Bytes,
    budget: Duration,
) -> (L, L, f64) {
    // Sized from a short calibration so the stream lasts about `budget`
    // without the sender checking a clock per frame.
    let calibrate = 64;
    let mut count = calibrate;
    let mut per_frame = 0.0;
    for pass in 0..2 {
        let payload = frame.clone();
        let sender = thread::spawn(move || {
            for _ in 0..count {
                tx.send(payload.clone()).expect("receiver is draining");
            }
            tx
        });
        let started = Instant::now();
        for _ in 0..count {
            black_box(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("frame arrives"),
            );
        }
        per_frame = started.elapsed().as_secs_f64() / count as f64;
        tx = sender.join().expect("sender thread");
        if pass == 0 {
            count = ((budget.as_secs_f64() / per_frame) as usize).clamp(calibrate, 1 << 20);
        }
    }
    (tx, rx, per_frame)
}

/// Σ probe cost × calls a round makes: r·f file gradients, one upload
/// encode and decode per worker (per replica on the chunked wire), f
/// votes, one median, one step, one broadcast encode and K decodes, and
/// the per-round bookkeeping.
fn attributed_cpu_s_per_round(g: &Geometry, c: &Costs) -> f64 {
    let replicas = (g.replication * g.files) as f64;
    let workers = g.workers as f64;
    let files = g.files as f64;
    let uplink = match g.chunked {
        None => workers * (c.batch_encode + c.batch_decode) + files * c.vote,
        Some(cfg) => {
            let (encode, decode) = match cfg.scheme {
                ChunkScheme::TopK(_) => (c.sparse_replica_encode, c.sparse_replica_decode),
                _ => (c.chunk_replica_encode, c.chunk_replica_decode),
            };
            let ingest = c.voter_ingest_chunk * g.chunks_per_replica() as f64;
            replicas * (encode + decode + ingest) + files * c.voter_finalize
        }
    };
    replicas * c.gradient
        + uplink
        + c.median
        + c.step
        + c.broadcast_encode
        + workers * c.broadcast_decode
        + c.batch_split
        + if g.reputation { c.reputation } else { 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_runs_at_least_three_times() {
        let mut calls = 0;
        let t = time_median(Duration::ZERO, || calls += 1);
        assert_eq!(calls, 3);
        assert!(t >= 0.0);
    }

    #[test]
    fn attribution_follows_the_wire_format() {
        let workload = Workload::new("wire_dense", 1, Some(2)).unwrap();
        let mut g = Geometry::of(&workload, &workload.spec());
        assert_eq!(
            (g.d, g.workers, g.files, g.replication),
            (264_970, 15, 25, 3)
        );
        assert_eq!((g.samples_per_file, g.files_per_worker()), (1, 5));
        assert_eq!(g.chunks_per_replica(), 65);
        let costs = Costs {
            gradient: 1.0,
            batch_encode: 10.0,
            chunk_replica_encode: 100.0,
            sparse_replica_encode: 1000.0,
            ..Costs::default()
        };
        assert_eq!(attributed_cpu_s_per_round(&g, &costs), 75.0 + 150.0);
        g.chunked = Some(ChunkConfig::dense(CHUNK_LEN));
        assert_eq!(attributed_cpu_s_per_round(&g, &costs), 75.0 + 7500.0);
        g.chunked = Some(g.sparse_config());
        assert_eq!(attributed_cpu_s_per_round(&g, &costs), 75.0 + 75_000.0);
    }

    #[test]
    fn every_probe_reports_a_finite_positive_number() {
        let workload = Workload::new("compute_heavy", 1, Some(2)).unwrap();
        let mut tracer = Tracer::new(true);
        let report = run_all(&workload, Duration::from_millis(1), &mut tracer);
        assert_eq!(report.metrics.len(), 29);
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{m:?}");
        }
        let mut names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), report.metrics.len(), "duplicate metric name");
        assert!(report.attributed_cpu_ms_per_round > 0.0);
        assert!(tracer.spans().iter().any(|s| s.name == "probe.wire.link"));
    }
}
