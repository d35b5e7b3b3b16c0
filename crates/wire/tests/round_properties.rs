//! Thread-free, link-free properties of the round engine: for random
//! fault plans, Byzantine sets, holder sets and arrival orders, across
//! {batch, chunk} × {Barrier, Streaming, Bounded(0..=2)}, a
//! [`RoundResult`] is a function of the *set* of replicas delivered in a
//! round — never of their order, nor of the door they came through
//! (frames into `ingest`, voted in place or copied out, slices into
//! `offer`) — and Streaming
//! and `Bounded{0}` are Barrier bit for bit (winners, audits, counters).

use bytes::Bytes;
use byz_assign::{DynamicAssignment, MolsAssignment};
use byz_cluster::FaultPlan;
use byz_wire::{
    decode_gradient_batch, encode_gradient_batch, encode_gradient_chunks, write_frame, Assignment,
    BatchFrameBuilder, ChunkConfig, Reject, RoundCore, RoundMode, RoundResult, ServerConfig,
    StreamDecoder, WireFormat,
};
use proptest::prelude::*;

/// Model length: three chunks of at most 8 floats.
const D: usize = 23;
const ROUNDS: u64 = 4;

fn gradient(t: u64, file: usize, forged: bool) -> Vec<f32> {
    if forged {
        return vec![-50.0; D];
    }
    (0..D)
        .map(|i| ((t as usize * 31 + file * 7 + i) % 13) as f32 - 6.0)
        .collect()
}

/// A membership decision: who may vote on each file, and which files
/// each worker therefore computes and uploads.
struct Placement {
    holders: Vec<Vec<usize>>,
    files_of: Vec<Vec<usize>>,
}

impl Placement {
    /// The assigned placement under a quarantine mask: masked workers
    /// keep uploading, the PS drops them from every holder set.
    fn masked(assignment: &Assignment, quarantined: &[bool]) -> Self {
        let graph = assignment.graph();
        let in_service = |w: &usize| !quarantined[*w];
        Placement {
            holders: (0..graph.num_files())
                .map(|file| {
                    let assigned = graph.workers_of(file).iter().copied();
                    assigned.filter(in_service).collect()
                })
                .collect(),
            files_of: (0..graph.num_workers())
                .map(|w| graph.files_of(w).to_vec())
                .collect(),
        }
    }

    /// The placement repaired after `leaver` left and a worker with an id
    /// past `K` joined: the joiner is a holder like any other.
    fn repaired(assignment: &Assignment, leaver: usize, joiner: usize) -> Self {
        let mut dynamic = DynamicAssignment::new(assignment.clone());
        dynamic.apply(&[joiner], &[leaver]);
        let graph = dynamic.graph();
        Placement {
            holders: (0..graph.num_files())
                .map(|file| graph.workers_of(file).to_vec())
                .collect(),
            files_of: (0..dynamic.universe())
                .map(|w| graph.files_of(w).to_vec())
                .collect(),
        }
    }
}

/// One flush of worker `w`'s round-`t` upload: the replicas the plan does
/// not drop whole.
struct Flush {
    w: usize,
    t: u64,
    replicas: Vec<(u32, Vec<f32>)>,
}

/// What worker `w` uploads for round `t`: the worker loop's protocol,
/// restated without a link — replicas flush per file when streaming and
/// once per round otherwise.
fn worker_flushes(
    files: &[usize],
    config: &ServerConfig,
    byzantine: &[usize],
    w: usize,
    t: u64,
) -> Vec<Flush> {
    let plan = &config.faults;
    if plan.is_crashed(w) {
        return Vec::new();
    }
    let flush = |files: &[usize]| Flush {
        w,
        t,
        replicas: files
            .iter()
            .filter(|&&file| !plan.drops_replica(t, w, file))
            .map(|&file| (file as u32, gradient(t, file, byzantine.contains(&w))))
            .collect(),
    };
    if config.mode == RoundMode::Streaming {
        let per_file = files.iter().map(std::slice::from_ref);
        per_file.map(flush).collect()
    } else {
        vec![flush(files)]
    }
}

/// A flush on the wire: one (possibly empty) batch frame, or every
/// undropped chunk of every replica.
fn frames(flush: &Flush, config: &ServerConfig) -> Vec<Bytes> {
    let Flush { w, t, replicas } = flush;
    match config.wire {
        WireFormat::Batched => {
            let views: Vec<(u32, &[f32])> =
                replicas.iter().map(|(f, g)| (*f, g.as_slice())).collect();
            vec![encode_gradient_batch(*t, *w as u32, &views)]
        }
        WireFormat::Chunked(cfg) => replicas
            .iter()
            .flat_map(|(file, g)| {
                let chunks = encode_gradient_chunks(*t, *w as u32, *file, g, &cfg);
                let kept = move |&(c, _): &(usize, Bytes)| {
                    !config.faults.drops_chunk(*t, *w, *file as usize, c)
                };
                chunks.into_iter().enumerate().filter(kept).map(|(_, f)| f)
            })
            .collect(),
    }
}

/// Fisher–Yates driven by an LCG: reaches any permutation.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (*state >> 33) as usize % (i + 1));
    }
}

/// How a round's deliveries reach the engine.
#[derive(Clone, Copy, Debug)]
enum Door {
    /// Encoded frames into [`RoundCore::ingest`] (the wire PS). A batch
    /// frame from `encode_gradient_batch` has misaligned payloads, so the
    /// engine copies them.
    Frames,
    /// Batch frames built in place by [`BatchFrameBuilder`], as a worker
    /// sends them: aligned, so voted inside the frame.
    Built,
    /// [`Door::Frames`]' frames through `write_frame` and a
    /// [`StreamDecoder`], as the TCP PS receives them: realigned.
    Streamed,
    /// In-memory replicas into [`RoundCore::offer`] (the in-process
    /// trainer); batched engines only.
    Slices,
}

/// `flush` as one batch frame built in place.
fn built(flush: &Flush) -> Bytes {
    let floats = flush.replicas.iter().map(|(_, g)| g.len()).sum();
    let mut builder = BatchFrameBuilder::new(flush.replicas.len(), floats);
    builder.begin(flush.t, flush.w as u32, flush.replicas.len());
    for (file, g) in &flush.replicas {
        builder.next_slot(g.len()).copy_from_slice(g);
        builder.commit(*file);
    }
    builder.finish()
}

/// `frames` written to one byte stream and read back in random-sized
/// segments.
fn streamed(frames: &[Bytes], state: &mut u64) -> Vec<Bytes> {
    let mut stream = Vec::new();
    for frame in frames {
        write_frame(&mut stream, frame).expect("Vec<u8> write cannot fail");
    }
    let mut decoder = StreamDecoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let end = (at + 1 + (*state >> 40) as usize % 512).min(stream.len());
        decoder.feed(&stream[at..end]);
        at = end;
        while let Some(frame) = decoder.next_frame().expect("a clean stream decodes") {
            out.push(frame);
        }
    }
    out
}

/// Drives [`ROUNDS`] rounds. A worker of staleness lag `λ` delivers its
/// round-`o` uploads while the PS is in round `o + λ`; each round's
/// deliveries arrive in an order drawn from `seed`.
fn run(
    config: &ServerConfig,
    byzantine: &[usize],
    placement: &Placement,
    seed: u64,
    door: Door,
) -> Vec<RoundResult> {
    deliver(config, byzantine, placement, seed, door).0
}

/// One whole replica's fate at the gate: `(worker, round stamp, file,
/// verdict)`.
type Verdict = (usize, u64, u32, Result<(), Reject>);

/// [`run`], plus the gate's verdict on every whole replica delivered
/// (batched wire), in `(worker, round stamp, file)` order.
fn deliver(
    config: &ServerConfig,
    byzantine: &[usize],
    placement: &Placement,
    seed: u64,
    door: Door,
) -> (Vec<RoundResult>, Vec<Verdict>) {
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let max_staleness = match config.mode {
        RoundMode::BoundedStaleness { max_staleness } => max_staleness,
        _ => 0,
    };
    let mut core = RoundCore::new(&assignment, D, config);
    let mut state = seed | 1;
    let mut verdicts = Vec::new();
    let mut results = Vec::new();
    for t in 1..=ROUNDS {
        let flushes: Vec<Flush> = (0..placement.files_of.len())
            .flat_map(|w| {
                let lag = (config.faults.straggle_factor(w).ceil() as u64 - 1).min(max_staleness);
                let origin = t.checked_sub(lag).filter(|&origin| origin >= 1);
                origin.map_or_else(Vec::new, |origin| {
                    worker_flushes(&placement.files_of[w], config, byzantine, w, origin)
                })
            })
            .collect();
        core.begin(t, &placement.holders);
        match door {
            Door::Frames | Door::Built | Door::Streamed => {
                let mut frames: Vec<Bytes> = match door {
                    Door::Built => flushes.iter().map(built).collect(),
                    _ => flushes.iter().flat_map(|f| frames(f, config)).collect(),
                };
                shuffle(&mut frames, &mut state);
                if let Door::Streamed = door {
                    frames = streamed(&frames, &mut state);
                }
                for frame in &frames {
                    let admitted = core.ingest(frame);
                    let Ok(batch) = decode_gradient_batch(frame) else {
                        continue;
                    };
                    for entry in &batch.entries {
                        let refused = match &admitted {
                            Ok(admitted) => admitted.refused.iter().find(|r| r.0 == entry.file),
                            Err(_) => unreachable!("every sender is a worker slot"),
                        };
                        let verdict = refused.map_or(Ok(()), |&(_, reason)| Err(reason));
                        verdicts.push((
                            batch.worker as usize,
                            batch.iteration,
                            entry.file,
                            verdict,
                        ));
                    }
                }
            }
            Door::Slices => {
                let mut replicas: Vec<(usize, u64, u32, &[f32])> = flushes
                    .iter()
                    .flat_map(|f| f.replicas.iter().map(|(file, g)| (f.w, f.t, *file, &g[..])))
                    .collect();
                shuffle(&mut replicas, &mut state);
                for (w, origin, file, replica) in replicas {
                    let verdict = core.offer(w, origin, file as usize, replica);
                    verdicts.push((w, origin, file, verdict));
                }
            }
        }
        results.push(core.close());
    }
    verdicts.sort_by_key(|&(w, t, file, _)| (w, t, file));
    (results, verdicts)
}

fn fault_plan(seed: u64, drop_pct: u32, crashed: usize, stragglers: &[(usize, u32)]) -> FaultPlan {
    let mut faults = FaultPlan::new(seed).drop_rate(f64::from(drop_pct) / 100.0);
    if crashed < 15 {
        faults = faults.crash(crashed);
    }
    for &(w, factor) in stragglers {
        faults = faults.straggle(w, f64::from(factor));
    }
    faults
}

proptest! {
    #[test]
    fn round_result_depends_on_the_frame_set_not_the_schedule(
        plan_seed in 0u64..u64::MAX,
        drop_pct in prop::sample::select(vec![0u32, 0, 10, 25]),
        crashed in 0usize..30,
        stragglers in prop::collection::vec((0usize..15, 1u32..4), 0..5),
        byzantine in prop::collection::vec(0usize..15, 0..3),
        quarantined_worker in 0usize..30,
        q_min in 1usize..4,
        order_a in 0u64..u64::MAX,
        order_b in 0u64..u64::MAX,
    ) {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let faults = fault_plan(plan_seed, drop_pct, crashed, &stragglers);
        let quarantined: Vec<bool> = (0..15).map(|w| w == quarantined_worker).collect();
        let placement = Placement::masked(&assignment, &quarantined);

        for wire in [WireFormat::Batched, WireFormat::Chunked(ChunkConfig::dense(8))] {
            let results = |mode: RoundMode, order: u64| {
                let config = ServerConfig {
                    wire,
                    mode,
                    faults: faults.clone(),
                    q_min,
                    ..ServerConfig::default()
                };
                run(&config, &byzantine, &placement, order, Door::Frames)
            };
            let barrier = results(RoundMode::Barrier, order_a);
            prop_assert_eq!(&barrier, &results(RoundMode::Barrier, order_b), "{:?} barrier", wire);
            prop_assert_eq!(&barrier, &results(RoundMode::Streaming, order_a), "{:?} streaming", wire);
            prop_assert_eq!(&barrier, &results(RoundMode::Streaming, order_b), "{:?} streaming", wire);
            for max_staleness in 0..=2 {
                let mode = RoundMode::BoundedStaleness { max_staleness };
                let bounded = results(mode, order_a);
                prop_assert_eq!(&bounded, &results(mode, order_b), "{:?} {:?}", wire, mode);
                if max_staleness == 0 {
                    prop_assert_eq!(&barrier, &bounded, "{:?} bounded(0)", wire);
                }
            }
        }
    }

    /// The in-process door: the same replica set closes to the same
    /// result — winners, audits, every counter — whether it arrives as
    /// batch frames or as offered slices, under a quarantine mask and on a
    /// repaired placement whose joiner's id lies past `K`.
    #[test]
    fn offered_slices_close_like_ingested_frames(
        plan_seed in 0u64..u64::MAX,
        drop_pct in prop::sample::select(vec![0u32, 0, 10, 25]),
        crashed in 0usize..30,
        stragglers in prop::collection::vec((0usize..16, 1u32..4), 0..5),
        byzantine in prop::collection::vec(0usize..16, 0..3),
        quarantined_worker in 0usize..30,
        leaver in 0usize..15,
        q_min in 1usize..4,
        order_a in 0u64..u64::MAX,
        order_b in 0u64..u64::MAX,
    ) {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        // The joiner's slot exists because the plan schedules it.
        let faults = fault_plan(plan_seed, drop_pct, crashed, &stragglers).join_at(15, 1);
        let quarantined: Vec<bool> = (0..15).map(|w| w == quarantined_worker).collect();
        let placements = [
            Placement::masked(&assignment, &quarantined),
            Placement::repaired(&assignment, leaver, 15),
        ];
        for (nth, placement) in placements.iter().enumerate() {
            for mode in [
                RoundMode::Barrier,
                RoundMode::Streaming,
                RoundMode::BoundedStaleness { max_staleness: 1 },
                RoundMode::BoundedStaleness { max_staleness: 2 },
            ] {
                let config = ServerConfig {
                    mode,
                    faults: faults.clone(),
                    q_min,
                    ..ServerConfig::default()
                };
                let framed = run(&config, &byzantine, placement, order_a, Door::Frames);
                let offered = run(&config, &byzantine, placement, order_b, Door::Slices);
                prop_assert_eq!(framed, offered, "placement {} {:?}", nth, mode);
            }
        }
    }

    /// Where the engine keeps a replica is invisible: voted inside an
    /// aligned frame, copied out of a misaligned one, read off a TCP
    /// byte stream or offered in memory, the same replica set closes to
    /// the same results — winner bits, audits, every counter — and meets
    /// the same verdict at the gate.
    #[test]
    fn in_place_copied_streamed_and_offered_replicas_vote_alike(
        plan_seed in 0u64..u64::MAX,
        drop_pct in prop::sample::select(vec![0u32, 0, 10, 25]),
        crashed in 0usize..30,
        stragglers in prop::collection::vec((0usize..15, 1u32..4), 0..5),
        byzantine in prop::collection::vec(0usize..15, 0..3),
        quarantined_worker in 0usize..30,
        q_min in 1usize..4,
        order in 0u64..u64::MAX,
    ) {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let quarantined: Vec<bool> = (0..15).map(|w| w == quarantined_worker).collect();
        let placement = Placement::masked(&assignment, &quarantined);
        for mode in [
            RoundMode::Barrier,
            RoundMode::Streaming,
            RoundMode::BoundedStaleness { max_staleness: 1 },
        ] {
            let config = ServerConfig {
                mode,
                faults: fault_plan(plan_seed, drop_pct, crashed, &stragglers),
                q_min,
                ..ServerConfig::default()
            };
            let in_place = deliver(&config, &byzantine, &placement, order, Door::Built);
            for door in [Door::Frames, Door::Streamed, Door::Slices] {
                let other = deliver(&config, &byzantine, &placement, order, door);
                prop_assert_eq!(&in_place, &other, "{:?} {:?}", door, mode);
            }
        }
    }
}

/// `offer` refuses a replica for the reason `ingest` records against the
/// same replica as a batch entry.
#[test]
fn offer_and_ingest_refuse_for_the_same_reason() {
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let config = ServerConfig {
        mode: RoundMode::BoundedStaleness { max_staleness: 1 },
        faults: FaultPlan::new(1).straggle(7, 2.0),
        ..ServerConfig::default()
    };
    let placement = Placement::masked(&assignment, &[false; 15]);
    let holder = placement.holders[0][0];
    let outsider = (0..15).find(|w| !placement.holders[0].contains(w)).unwrap();
    let late_file = placement.files_of[7][0];
    // (worker, round stamp, file, replica length) → the gate's verdict.
    let cases = [
        (holder, 1, 0, D, Ok(())),
        (holder, 1, 0, D, Err(Reject::Duplicate)),
        (outsider, 1, 0, D, Err(Reject::NotHolder)),
        (placement.holders[1][0], 1, 1, D + 1, Err(Reject::Shape)),
        (7, 1, late_file, D, Err(Reject::Late)),
        (holder, 2, 0, D, Err(Reject::WrongRound)),
        (holder, 0, 0, D, Err(Reject::WrongRound)),
        (15, 1, 0, D, Err(Reject::UnknownWorker)),
        (holder, 1, 25, D, Err(Reject::UnknownFile)),
    ];
    let mut offered = RoundCore::new(&assignment, D, &config);
    let mut framed = RoundCore::new(&assignment, D, &config);
    offered.begin(1, &placement.holders);
    framed.begin(1, &placement.holders);
    for (w, t, file, len, expected) in cases {
        let replica = vec![1.0f32; len];
        assert_eq!(offered.offer(w, t, file, &replica), expected);
        let frame = encode_gradient_batch(t, w as u32, &[(file as u32, &replica[..])]);
        let through_frame = framed.ingest(&frame).and_then(|admitted| {
            let refused = admitted.refused.first();
            refused.map_or(Ok(()), |&(_, reason)| Err(reason))
        });
        assert_eq!(through_frame, expected, "worker {w} round {t} file {file}");
    }
    assert_eq!(offered.close(), framed.close());
}

/// Drives `config` through [`ROUNDS`] + 2 rounds with no deliveries, so
/// every parked file waits to its fold unfed, and at each round `t′`
/// offers and ingests, from every holder of every file, a replica stamped
/// each round `t` with `t + s < t′`: the gate must refuse them all, or a
/// worker that skips a superseded broadcast could change a vote.
fn assert_past_horizon_is_refused(config: &ServerConfig, placement: &Placement) {
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let s = config.mode.max_staleness();
    let mut core = RoundCore::new(&assignment, D, config);
    let replica = gradient(0, 0, false);
    for now in 1..=ROUNDS + 2 {
        core.begin(now, &placement.holders);
        for stale in (0..now).filter(|&t| t + s < now) {
            for (file, holders) in placement.holders.iter().enumerate() {
                for &w in holders {
                    let frames = match config.wire {
                        WireFormat::Batched => {
                            let offered = core.offer(w, stale, file, &replica);
                            assert_eq!(offered, Err(Reject::WrongRound), "{config:?}");
                            let entry = [(file as u32, &replica[..])];
                            vec![encode_gradient_batch(stale, w as u32, &entry)]
                        }
                        WireFormat::Chunked(cfg) => {
                            encode_gradient_chunks(stale, w as u32, file as u32, &replica, &cfg)
                        }
                    };
                    for frame in &frames {
                        let refused = core.ingest(frame).and_then(|admitted| {
                            assert_eq!(admitted.accepted, 0, "{config:?}");
                            admitted.refused.first().map_or(Ok(()), |&(_, r)| Err(r))
                        });
                        assert_eq!(refused, Err(Reject::WrongRound), "{config:?} round {now}");
                    }
                }
            }
        }
        core.close();
    }
}

proptest! {
    /// The worker's premise for skipping a superseded broadcast: once the
    /// engine has begun a round past `t + s`, `ingest` and `offer` refuse
    /// every replica stamped `t` — parked files included.
    #[test]
    fn the_gate_refuses_replicas_past_the_horizon(
        plan_seed in 0u64..u64::MAX,
        crashed in 0usize..30,
        stragglers in prop::collection::vec((0usize..15, 1u32..5), 0..5),
        q_min in 1usize..4,
    ) {
        let assignment = MolsAssignment::new(5, 3).unwrap().build();
        let placement = Placement::masked(&assignment, &[false; 15]);
        let faults = fault_plan(plan_seed, 0, crashed, &stragglers);
        for wire in [WireFormat::Batched, WireFormat::Chunked(ChunkConfig::dense(8))] {
            for mode in [
                RoundMode::Barrier,
                RoundMode::Streaming,
                RoundMode::BoundedStaleness { max_staleness: 0 },
                RoundMode::BoundedStaleness { max_staleness: 1 },
                RoundMode::BoundedStaleness { max_staleness: 2 },
            ] {
                let config = ServerConfig { wire, mode, faults: faults.clone(), q_min, ..ServerConfig::default() };
                assert_past_horizon_is_refused(&config, &placement);
            }
        }
    }
}

/// [`assert_past_horizon_is_refused`] where files are sure to park with
/// the longest lag the horizon allows: worker 7 trails by `s` rounds and
/// every file needs all three holders.
#[test]
fn parked_files_refuse_past_the_horizon() {
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let placement = Placement::masked(&assignment, &[false; 15]);
    for wire in [
        WireFormat::Batched,
        WireFormat::Chunked(ChunkConfig::dense(8)),
    ] {
        for s in 1..=2 {
            let config = ServerConfig {
                wire,
                mode: RoundMode::BoundedStaleness { max_staleness: s },
                faults: FaultPlan::new(3).straggle(7, 4.0),
                q_min: 3,
                ..ServerConfig::default()
            };
            let mut core = RoundCore::new(&assignment, D, &config);
            core.begin(1, &placement.holders);
            assert_eq!(core.close().deferred_files, 5, "{config:?}");
            assert_past_horizon_is_refused(&config, &placement);
        }
    }
}
