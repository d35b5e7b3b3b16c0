//! Tier-1 pins for the gradient wire codecs (batched and chunked) and
//! for pool-parallel / sharded voting.
//!
//! A corrupt or lost chunk must degrade its replica exactly like a
//! dropped whole replica — never a panic, never a poisoned vote. The
//! batched frame codec and the pool-parallel vote must give the same
//! winners, with the same `VoteAudit` verdicts in the same order, as
//! per-file votes over the replicas as computed. And the two wires,
//! which vote on different schedules — a chunked file as soon as its
//! live holders complete it, a batched round at close — train the same
//! bits through the real worker and PS loops.

use std::sync::Arc;

use byz_aggregate::{quorum_vote_all_audited, quorum_vote_audited, QuorumOutcome, VoteInput};
use byz_wire::{
    decode_gradient_batch, decode_gradient_chunk, encode_gradient_batch, encode_gradient_chunks,
    ChunkConfig, RoundMode, ShardedFileVoter,
};
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn corrupt_chunk_degrades_like_a_dropped_replica_end_to_end() {
    // Flip one payload byte of one chunk frame in flight: the checksum
    // gate rejects the frame, the voter marks that replica incomplete,
    // and the final outcome — winner, audit verdicts, degradation — is
    // exactly the whole-vector vote with that replica absent.
    let d = 500;
    let cfg = ChunkConfig::dense(64);
    let honest: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
    let forged: Vec<f32> = honest.iter().map(|g| -2.0 * g).collect();
    let holders = [1usize, 4, 7];

    let mut voter = ShardedFileVoter::new(3, d, 64);
    for (w, grad) in [(1u32, &honest), (4, &honest), (7, &forged)] {
        for (ci, frame) in encode_gradient_chunks(9, w, 3, grad, &cfg)
            .iter()
            .enumerate()
        {
            if w == 4 && ci == 2 {
                let mut bytes = frame.as_ref().to_vec();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x40;
                assert!(
                    decode_gradient_chunk(&bytes::Bytes::from(bytes)).is_err(),
                    "corrupt frame must be rejected, not decoded"
                );
                continue; // the PS skips undecodable frames
            }
            let view = decode_gradient_chunk(frame).expect("clean frame decodes");
            voter.ingest(&view);
        }
    }
    let outcome = voter.finalize(2, &holders).expect("quorum of 2 survives");

    let reference = quorum_vote_audited(
        &[(1, honest.as_slice()), (7, forged.as_slice())],
        2,
        &holders,
    )
    .expect("reference vote");
    assert_eq!(outcome, reference, "corrupt chunk ≡ dropped replica");
    assert_eq!(outcome.winner_worker, 1, "honest replica wins the tie");
    assert!(matches!(outcome.provenance, Provenance::Degraded { .. }));
}

const Q_MIN: usize = 2;

/// Deterministic synthetic gradient: params shifted per file, so every
/// honest replica of a file is bit-identical and distinct across files.
fn toy_compute(params: &[f32], file: usize) -> Vec<f32> {
    params
        .iter()
        .enumerate()
        .map(|(j, p)| p + file as f32 + (j % 7) as f32 * 0.25)
        .collect()
}

/// `replicas[file]` = the `(worker, gradient)` pairs that reach the PS in
/// `round` under `plan`, ascending by worker: every holder the
/// assignment names, minus crashed workers and dropped messages.
fn arriving_replicas(
    assignment: &Assignment,
    plan: &FaultPlan,
    params: &[f32],
    round: u64,
) -> Vec<Vec<(usize, Vec<f32>)>> {
    (0..assignment.num_files())
        .map(|file| {
            assignment
                .graph()
                .workers_of(file)
                .iter()
                .filter(|&&w| plan.replica_arrives(round, w, file))
                .map(|&w| (w, toy_compute(params, file)))
                .collect()
        })
        .collect()
}

/// Sequential per-file votes, audits included.
fn vote_sequential<G: AsRef<[f32]>>(
    replicas: &[Vec<(usize, G)>],
    assignment: &Assignment,
) -> Vec<Option<QuorumOutcome>> {
    replicas
        .iter()
        .enumerate()
        .map(|(f, reps)| quorum_vote_audited(reps, Q_MIN, assignment.graph().workers_of(f)).ok())
        .collect()
}

#[test]
fn pool_parallel_votes_match_per_file_votes_audits_included() {
    // Crashes and message drops thin the replica sets differently every
    // round; the pool-parallel vote must agree with the per-file loop on
    // every outcome, including the full VoteAudit verdict list.
    // QuorumOutcome derives PartialEq over value, votes, provenance AND
    // audit.
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let plan = FaultPlan::new(1312).crash(4).crash(9).drop_rate(0.25);
    let mut params = vec![0.5f32, -1.25, 3.0, 0.0625];

    for round in 0..24u64 {
        let replicas = arriving_replicas(&assignment, &plan, &params, round);
        let inputs: Vec<VoteInput<'_, Vec<f32>>> = replicas
            .iter()
            .enumerate()
            .map(|(f, reps)| (reps.as_slice(), assignment.graph().workers_of(f)))
            .collect();
        let parallel: Vec<Option<QuorumOutcome>> = quorum_vote_all_audited(&inputs, Q_MIN)
            .into_iter()
            .map(Result::ok)
            .collect();
        assert_eq!(
            vote_sequential(&replicas, &assignment),
            parallel,
            "vote outcomes diverged at round {round}"
        );
        params.iter_mut().for_each(|p| *p += 0.03125);
    }
}

#[test]
fn batched_wire_roundtrip_preserves_vote_outcomes() {
    // Push every round through the batched wire codec — encode one frame
    // per worker, decode into flat PS buffers — and verify the votes over
    // the decoded views equal the votes over the replicas as computed.
    // f32 -> LE bytes -> f32 is exact, so this must be bit-identical.
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let plan = FaultPlan::new(5).crash(7).drop_rate(0.15);
    let k = assignment.num_workers();
    let params = vec![0.1f32, -2.5, 7.75];

    for round in 0..21u64 {
        let replicas = arriving_replicas(&assignment, &plan, &params, round);
        let direct_votes = vote_sequential(&replicas, &assignment);

        // Worker side: one batched frame per surviving worker.
        let frames: Vec<bytes::Bytes> = (0..k)
            .map(|worker| {
                let entries: Vec<(u32, &[f32])> = assignment
                    .graph()
                    .files_of(worker)
                    .iter()
                    .filter_map(|&file| {
                        replicas[file]
                            .iter()
                            .find(|(w, _)| *w == worker)
                            .map(|(_, g)| (file as u32, g.as_slice()))
                    })
                    .collect();
                encode_gradient_batch(round, worker as u32, &entries)
            })
            .collect();

        // PS side: flat per-worker buffers, then views, then votes.
        let mut buffers: Vec<Vec<f32>> = vec![Vec::new(); k];
        let mut index: Vec<Vec<(u32, usize, usize)>> = vec![Vec::new(); k];
        for frame in &frames {
            let batch = decode_gradient_batch(frame).expect("self-encoded frame decodes");
            let w = batch.worker as usize;
            for entry in &batch.entries {
                let start = buffers[w].len();
                entry.extend_into(&mut buffers[w]);
                index[w].push((entry.file, start, entry.len()));
            }
        }
        let mut decoded_views: Vec<Vec<(usize, &[f32])>> = vec![Vec::new(); assignment.num_files()];
        for worker in 0..k {
            for &(file, start, len) in &index[worker] {
                decoded_views[file as usize].push((worker, &buffers[worker][start..start + len]));
            }
        }
        assert_eq!(
            direct_votes,
            vote_sequential(&decoded_views, &assignment),
            "wire roundtrip changed votes at round {round}"
        );
    }
}

/// Everything a run decides, without the traffic (the wires frame it
/// differently) and the wall-clock timings.
fn decided(run: &WireTrainingRun) -> (Vec<u32>, Vec<RoundSummary>, Option<Vec<u8>>) {
    let summaries = run
        .summaries
        .iter()
        .map(|s| RoundSummary {
            frames_received: 0,
            bytes_received: 0,
            timings: PhaseTimings::default(),
            ..s.clone()
        })
        .collect();
    let bits = run.params.iter().map(|p| p.to_bits()).collect();
    (bits, summaries, run.ledger_bytes.clone())
}

/// The chunked wire votes a file in the receive window, the batched wire
/// at close; neither schedule may change a result. With Byzantine
/// workers the ledger quarantines, a straggler, and — under bounded
/// staleness — files deferred to a later round, both wires train the
/// same parameters and report the same summaries (audits, suspicions,
/// quarantines and every vote counter, `missing_votes` included) and
/// ledger bytes. It holds at any `BYZ_KERNEL_THREADS` (CI runs 1 and 4).
#[test]
fn both_wires_train_the_same_bits_on_their_own_schedules() {
    let (train, _) = SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 800,
        test_samples: 200,
        noise: 0.5,
        max_shift: 1,
        seed: 2024,
    })
    .generate();
    let dims = vec![64usize, 16, 5];
    let cluster = MessagePassingCluster::new(
        MolsAssignment::new(5, 3).unwrap().build(),
        Arc::new(train),
        dims.clone(),
    );
    let initial = FastMlp::new(&dims, &mut StdRng::seed_from_u64(2)).params_flat();
    for (mode, q_min) in [
        (RoundMode::Streaming, 1),
        (RoundMode::BoundedStaleness { max_staleness: 1 }, 3),
    ] {
        let batched = ServerConfig {
            iterations: 6,
            byzantine: vec![0, 5],
            attack: LocalAttack::Constant { value: -50.0 },
            faults: FaultPlan::new(7).straggle(4, 3.0),
            reputation: Some(ReputationConfig::default()),
            seed: 31,
            mode,
            q_min,
            ..ServerConfig::default()
        };
        let chunked = ServerConfig {
            wire: WireFormat::Chunked(ChunkConfig::dense(256)),
            ..batched.clone()
        };
        let batched = cluster.train_run(initial.clone(), &batched);
        let chunked = cluster.train_run(initial.clone(), &chunked);
        let last = batched.summaries.last().unwrap();
        assert_eq!(last.quarantined_workers, vec![0, 5], "{mode:?}");
        if q_min == 3 {
            assert!(batched.summaries.iter().all(|s| s.deferred_files == 5));
        }
        assert_eq!(decided(&batched), decided(&chunked), "{mode:?}");
    }
}
