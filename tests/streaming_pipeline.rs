//! Bit-identity pin for the pipelined streaming round engine.
//!
//! Streaming changes *when* work runs — per-file vote finalize inside
//! the collection window, update overlapped with late votes — but never
//! *what* any stage sees. This pins
//! that contract on the message-passing wire
//! (`ServerConfig::mode = RoundMode::Streaming`), with Byzantine
//! workers, a straggler, message drops, reputation and both wire formats
//! in play. (The in-process trainer has no wire window: there
//! `Streaming` is `Barrier`.) It holds at any `BYZ_KERNEL_THREADS` (CI
//! runs 1 and 4).

use std::sync::Arc;

use byz_wire::{ChunkConfig, RoundMode};
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_dataset() -> (Dataset, Dataset) {
    SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 800,
        test_samples: 200,
        noise: 0.5,
        max_shift: 1,
        seed: 2024,
    })
    .generate()
}

/// The wire layer's streaming mode must agree with its barrier mode on
/// parameters AND on every vote-derived summary field, under both wire
/// formats at once (batched here, chunked in the sibling assertion),
/// with drops, a straggler and reputation active.
#[test]
fn streaming_wire_matches_barrier_for_both_formats() {
    let (train, _) = small_dataset();
    let data = Arc::new(train);
    let dims = vec![64usize, 16, 5];
    let cluster = MessagePassingCluster::new(
        MolsAssignment::new(5, 3).unwrap().build(),
        Arc::clone(&data),
        dims.clone(),
    );
    let initial = {
        let mut rng = StdRng::seed_from_u64(2);
        FastMlp::new(&dims, &mut rng).params_flat()
    };
    for wire in [
        WireFormat::Batched,
        WireFormat::Chunked(ChunkConfig::dense(256)),
    ] {
        let barrier_cfg = ServerConfig {
            iterations: 6,
            byzantine: vec![0, 5],
            attack: LocalAttack::Constant { value: -50.0 },
            faults: FaultPlan::new(7).drop_rate(0.08).straggle(4, 3.0),
            reputation: Some(ReputationConfig::default()),
            seed: 31,
            wire,
            ..ServerConfig::default()
        };
        let streaming_cfg = ServerConfig {
            mode: RoundMode::Streaming,
            ..barrier_cfg.clone()
        };
        let (p_barrier, s_barrier) = cluster.train(initial.clone(), &barrier_cfg);
        let (p_streaming, s_streaming) = cluster.train(initial.clone(), &streaming_cfg);
        assert_eq!(p_barrier, p_streaming, "{wire:?}: params diverged");
        for (a, b) in s_barrier.iter().zip(&s_streaming) {
            assert_eq!(a.non_strict_votes, b.non_strict_votes, "{wire:?}");
            assert_eq!(a.missing_votes, b.missing_votes, "{wire:?}");
            assert_eq!(a.degraded_votes, b.degraded_votes, "{wire:?}");
            assert_eq!(a.abandoned_files, b.abandoned_files, "{wire:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.suspicions), bits(&b.suspicions), "{wire:?}");
            assert_eq!(a.quarantined_workers, b.quarantined_workers, "{wire:?}");
        }
    }
}
