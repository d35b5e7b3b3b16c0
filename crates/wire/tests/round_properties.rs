//! Thread-free, link-free properties of the round engine: for random
//! fault plans, Byzantine sets, quarantine masks and frame arrival
//! orders, across {batch, chunk} × {Barrier, Streaming, Bounded(0..=2)},
//! a [`RoundResult`] is a function of the *set* of frames delivered in
//! a round — never of their order — and Streaming and `Bounded{0}` are
//! Barrier bit for bit (winners, audits, counters).

use bytes::Bytes;
use byz_aggregate::QuorumConfig;
use byz_assign::MolsAssignment;
use byz_cluster::FaultPlan;
use byz_wire::{
    encode_gradient_batch, encode_gradient_chunks, Assignment, ChunkConfig, RoundCore, RoundMode,
    RoundResult, ServerConfig, WireFormat,
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

/// What worker `w` uploads for round `t`: the worker loop's protocol,
/// restated without a link — replicas flush per file when streaming and
/// once per round otherwise; a batch flush is one (possibly empty)
/// frame, a chunk flush every undropped chunk of every replica.
fn worker_frames(
    assignment: &Assignment,
    config: &ServerConfig,
    byzantine: &[usize],
    w: usize,
    t: u64,
) -> Vec<Bytes> {
    let plan = &config.faults;
    if plan.is_crashed(w) {
        return Vec::new();
    }
    let flush = |files: &[usize]| -> Vec<Bytes> {
        let replicas: Vec<(u32, Vec<f32>)> = files
            .iter()
            .filter(|&&file| !plan.drops_replica(t, 0, w, file))
            .map(|&file| (file as u32, gradient(t, file, byzantine.contains(&w))))
            .collect();
        match config.wire {
            WireFormat::Batched => {
                let views: Vec<(u32, &[f32])> =
                    replicas.iter().map(|(f, g)| (*f, g.as_slice())).collect();
                vec![encode_gradient_batch(t, w as u32, &views)]
            }
            WireFormat::Chunked(cfg) => replicas
                .iter()
                .flat_map(|(file, g)| {
                    let chunks = encode_gradient_chunks(t, w as u32, *file, g, &cfg);
                    let kept = move |&(c, _): &(usize, Bytes)| {
                        !plan.drops_chunk(t, 0, w, *file as usize, c)
                    };
                    chunks.into_iter().enumerate().filter(kept).map(|(_, f)| f)
                })
                .collect(),
        }
    };
    let files = assignment.graph().files_of(w);
    if config.mode == RoundMode::Streaming {
        files
            .iter()
            .flat_map(|file| flush(std::slice::from_ref(file)))
            .collect()
    } else {
        flush(files)
    }
}

/// Drives [`ROUNDS`] rounds. A worker of staleness lag `λ` delivers its
/// round-`o` uploads while the PS is in round `o + λ`; each round's
/// deliveries arrive in an order drawn from `seed`.
fn run(
    assignment: &Assignment,
    config: &ServerConfig,
    byzantine: &[usize],
    quarantined: &[bool],
    seed: u64,
) -> Vec<RoundResult> {
    let max_staleness = match config.mode {
        RoundMode::BoundedStaleness { max_staleness } => max_staleness,
        _ => 0,
    };
    let mut core = RoundCore::new(assignment, D, config);
    let mut state = seed | 1;
    (1..=ROUNDS)
        .map(|t| {
            let mut frames: Vec<Bytes> = (0..assignment.num_workers())
                .flat_map(|w| {
                    let lag =
                        (config.faults.straggle_factor(w).ceil() as u64 - 1).min(max_staleness);
                    let origin = t.checked_sub(lag).filter(|&origin| origin >= 1);
                    origin.map_or_else(Vec::new, |origin| {
                        worker_frames(assignment, config, byzantine, w, origin)
                    })
                })
                .collect();
            // Fisher–Yates driven by an LCG: reaches any permutation.
            for i in (1..frames.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                frames.swap(i, (state >> 33) as usize % (i + 1));
            }
            core.begin(t, quarantined);
            for frame in &frames {
                let _ = core.ingest(frame);
            }
            core.close()
        })
        .collect()
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
        let mut faults = FaultPlan::new(plan_seed).drop_rate(f64::from(drop_pct) / 100.0);
        if crashed < 15 {
            faults = faults.crash(crashed);
        }
        for &(w, factor) in &stragglers {
            faults = faults.straggle(w, f64::from(factor));
        }
        let quarantined: Vec<bool> = (0..15).map(|w| w == quarantined_worker).collect();

        for wire in [WireFormat::Batched, WireFormat::Chunked(ChunkConfig::dense(8))] {
            let results = |mode: RoundMode, order: u64| {
                let config = ServerConfig {
                    wire,
                    mode,
                    faults: faults.clone(),
                    quorum: QuorumConfig::strict(q_min),
                    ..ServerConfig::default()
                };
                run(&assignment, &config, &byzantine, &quarantined, order)
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
}
