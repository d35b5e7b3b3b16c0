//! Run the FULL protocol over a real multi-threaded message-passing
//! cluster: one OS thread per worker, every model broadcast and gradient
//! upload serialized into checksummed binary frames — no shared memory
//! between the parameter server and the workers.
//!
//! ```sh
//! cargo run --release --example message_passing_cluster
//! ```

use byz_nn::FastMlp;
use byz_wire::RoundMode;
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // Dataset shared read-only across worker threads.
    let (train, test) = SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 1_500,
        test_samples: 400,
        noise: 0.6,
        max_shift: 1,
        seed: 77,
    })
    .generate();
    let train = Arc::new(train);

    // ByzShield placement: MOLS (l = 5, r = 3) on K = 15 worker threads.
    let assignment = MolsAssignment::new(5, 3).expect("valid parameters").build();
    let dims = vec![train.sample_len(), 32, 5];
    let cluster = MessagePassingCluster::new(assignment, Arc::clone(&train), dims.clone());

    // q = 4 Byzantine threads mounting the constant attack; by Table 3
    // they can corrupt at most 5 of the 25 file majorities.
    let config = ServerConfig {
        batch_size: 250,
        iterations: 120,
        byzantine: vec![0, 5, 10, 11],
        attack: LocalAttack::Constant { value: -100.0 },
        seed: 9,
        ..ServerConfig::default()
    };

    let init = FastMlp::new(&dims, &mut StdRng::seed_from_u64(3)).params_flat();
    println!(
        "training on 15 worker threads, {} Byzantine, all traffic framed + checksummed...",
        config.byzantine.len()
    );
    let (params, summaries) = cluster.train(init, &config);

    let total_bytes: usize = summaries.iter().map(|s| s.bytes_received).sum();
    let total_frames: usize = summaries.iter().map(|s| s.frames_received).sum();
    println!(
        "PS ingested {total_frames} gradient frames / {:.1} MiB over {} iterations",
        total_bytes as f64 / (1024.0 * 1024.0),
        summaries.len()
    );

    // Per-phase wall time, as recorded on every RoundSummary.
    let phase_report = |label: &str, summaries: &[RoundSummary]| {
        let n = summaries.len().max(1) as u64;
        let mean = |f: fn(&PhaseTimings) -> u64| {
            summaries.iter().map(|s| f(&s.timings)).sum::<u64>() / n / 1_000
        };
        let overlap = summaries
            .iter()
            .map(|s| s.timings.overlap_ratio())
            .sum::<f64>()
            / n as f64;
        println!(
            "{label:<9} compute {:>6} µs | wire {:>6} µs | vote {:>6} µs | update {:>6} µs | round {:>6} µs | overlap {overlap:.2}",
            mean(|t| t.compute_ns),
            mean(|t| t.wire_ns),
            mean(|t| t.vote_ns),
            mean(|t| t.update_ns),
            mean(|t| t.round_ns),
        );
        overlap
    };
    let barrier_overlap = phase_report("barrier", &summaries);

    // The same run in streaming mode: the PS votes each file the moment
    // its last replica lands instead of waiting for the whole window, so
    // vote time hides inside the wire phase and the overlap ratio rises —
    // with bit-identical parameters (the canonical-fold guarantee).
    let streaming_config = ServerConfig {
        mode: RoundMode::Streaming,
        ..config
    };
    let init_streaming = FastMlp::new(&dims, &mut StdRng::seed_from_u64(3)).params_flat();
    let (streaming_params, streaming_summaries) = cluster.train(init_streaming, &streaming_config);
    let streaming_overlap = phase_report("streaming", &streaming_summaries);
    println!(
        "streaming == barrier parameters: {}, overlap {:.2} vs {:.2}",
        streaming_params == params,
        streaming_overlap,
        barrier_overlap,
    );

    // Evaluate the trained parameters.
    let mut model = FastMlp::new(&dims, &mut StdRng::seed_from_u64(0));
    model.set_params(&params);
    let n = test.len();
    let mut x = Vec::with_capacity(n * test.sample_len());
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        x.extend_from_slice(test.sample(i));
        labels.push(test.label(i));
    }
    let preds = model.predict(&x, n);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    println!(
        "top-1 test accuracy under attack: {:.1}% (chance = 20%)",
        100.0 * correct as f64 / n as f64
    );

    // Bonus: the signSGD wire format — 32× smaller gradient frames.
    let g: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
    let packed = PackedSigns::pack(&g);
    println!(
        "signSGD sign-packing: {} floats → {} bytes on the wire ({}x compression)",
        g.len(),
        packed.wire_len(),
        (g.len() * 4) / packed.wire_len()
    );
}
