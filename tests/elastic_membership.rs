//! Acceptance suite for elastic membership and bounded staleness.
//!
//! Four contracts, across both protocol planes:
//!
//! 1. churn is a *placement* event — a graceful leave repairs the
//!    assignment without perturbing what honest training learns, and a
//!    joiner starts contributing the round it is admitted;
//! 2. the chaos run (churn × ALIE × quarantine) is bit-reproducible: a
//!    rerun lands on the identical history, ledger and membership
//!    reports, at any `BYZ_KERNEL_THREADS` (CI runs 1 and 4);
//! 3. `RoundMode::BoundedStaleness { max_staleness: 0 }` is the barrier
//!    round, bit for bit, on the wire (the trainer runs only the barrier
//!    round);
//! 4. under a straggler, bounded staleness buys wall-clock rounds/s at
//!    the PS without a loss regression.
//!
//! Churn is an in-process axis: a socket job admits workers only through
//! `Hello` into its spec's fixed slot table (`tests/socket_deployment.rs`).

use std::sync::Arc;
use std::time::Duration;

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

fn run_trainer(cfg: TrainingConfig, byzantine: Vec<usize>) -> TrainingHistory {
    let (train, test) = small_dataset();
    let mut rng = StdRng::seed_from_u64(9);
    let mut model = FastMlp::new(&[64, 32, 5], &mut rng);
    Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(byzantine),
        Box::new(Alie::default()),
        Box::new(CoordinateMedian),
        cfg,
    )
    .run()
    .expect("training completes")
}

/// Wall-clock fields are the only admissible difference between reruns;
/// zero them so the rest of the record compares exactly.
fn normalized(records: &[IterationRecord]) -> Vec<IterationRecord> {
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.compute_time = Duration::ZERO;
            r.aggregate_time = Duration::ZERO;
            r
        })
        .collect()
}

fn assert_histories_bit_identical(label: &str, a: &TrainingHistory, b: &TrainingHistory) {
    assert_eq!(normalized(&a.records), normalized(&b.records), "{label}");
    assert_eq!(
        a.final_loss.to_bits(),
        b.final_loss.to_bits(),
        "{label}: final loss diverged"
    );
    let bytes = |h: &TrainingHistory| h.ledger.as_ref().map(ReputationLedger::to_bytes);
    assert_eq!(bytes(a), bytes(b), "{label}: ledger bytes diverged");
}

/// (1) A graceful leave re-homes the departed worker's files before the
/// round is polled — nothing beyond the placement changes — and a joiner
/// holds (and serves) its rebalanced share from its admission round.
/// With every member honest, the repaired runs must land on the *same
/// parameters* as a churn-free run: the placement is not part of what
/// the protocol learns.
#[test]
fn leave_repairs_placement_and_joiner_contributes_on_admission() {
    let config = |faults: FaultPlan| TrainingConfig {
        batch_size: 100,
        iterations: 8,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: 0,
        eval_every: 0,
        eval_samples: 100,
        seed: 77,
        faults,
        ..TrainingConfig::default()
    };
    let baseline = run_trainer(config(FaultPlan::new(5)), vec![]);
    let churned = run_trainer(
        config(FaultPlan::new(5).leave_at(3, 3).join_at(15, 5)),
        vec![],
    );

    let bits = |h: &TrainingHistory| {
        h.records
            .last()
            .map(|r| r.epsilon_hat.to_bits())
            .unwrap_or_default()
    };
    assert_eq!(
        baseline.final_loss.to_bits(),
        churned.final_loss.to_bits(),
        "honest churn must not perturb learning"
    );
    assert_eq!(bits(&baseline), bits(&churned));

    // Membership reports fire exactly on the churn rounds.
    for (i, record) in churned.records.iter().enumerate() {
        let t = i + 1;
        match t {
            3 => {
                let m = record.membership.as_ref().expect("leave reported");
                assert_eq!(m.left, vec![3]);
                assert!(m.joined.is_empty());
                assert!(!m.members.contains(&3));
                assert!(
                    m.under_replicated.is_empty(),
                    "14 survivors keep every file at r = 3"
                );
                assert!(m.load_skew <= 3, "repair skew {} > r", m.load_skew);
            }
            5 => {
                let m = record.membership.as_ref().expect("join reported");
                assert_eq!(m.joined, vec![15]);
                assert!(m.left.is_empty());
                assert!(m.members.contains(&15));
                // The joiner took over a real share: with 15 members and
                // a bounded skew it cannot be idle, so its replicas are
                // polled from this round on — "contributes within 2
                // rounds" with a round to spare.
                assert!(m.load_skew <= 3, "rebalance skew {} > r", m.load_skew);
                assert!(m.under_replicated.is_empty());
                assert_eq!(
                    m.realized_epsilon_bound,
                    Some(0.0),
                    "q = 0 distorts nothing"
                );
            }
            _ => assert!(
                record.membership.is_none(),
                "round {t}: membership report without a churn event"
            ),
        }
    }
}

/// (2) The churn × ALIE × quarantine run reruns to the bit-identical
/// history, membership reports and ledger included.
#[test]
fn churn_alie_quarantine_matrix_is_bit_reproducible() {
    let config = || TrainingConfig {
        batch_size: 100,
        iterations: 8,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: 2,
        eval_every: 4,
        eval_samples: 100,
        seed: 77,
        faults: FaultPlan::new(5)
            .leave_at(7, 4)
            .join_at(15, 3)
            .drop_rate(0.08),
        reputation: Some(ReputationConfig::default()),
        ..TrainingConfig::default()
    };
    let first = run_trainer(config(), vec![0, 5]);
    let second = run_trainer(config(), vec![0, 5]);
    assert_histories_bit_identical("churn × ALIE × quarantine", &first, &second);
    assert!(
        first.records.iter().any(|r| r.membership.is_some()),
        "churn plan produced no membership report"
    );
}

/// (3) `max_staleness = 0` is the barrier round on the wire, for both
/// wire formats, with drops, a straggler and reputation active: same
/// parameters, same vote-derived summary fields, and zero staleness
/// accounting.
#[test]
fn zero_staleness_is_bit_identical_to_barrier_wire() {
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
        let bounded_cfg = ServerConfig {
            mode: RoundMode::BoundedStaleness { max_staleness: 0 },
            ..barrier_cfg.clone()
        };
        let (p_barrier, s_barrier) = cluster.train(initial.clone(), &barrier_cfg);
        let (p_bounded, s_bounded) = cluster.train(initial.clone(), &bounded_cfg);
        assert_eq!(p_barrier, p_bounded, "{wire:?}: params diverged");
        for (a, b) in s_barrier.iter().zip(&s_bounded) {
            assert_eq!(a.non_strict_votes, b.non_strict_votes, "{wire:?}");
            assert_eq!(a.missing_votes, b.missing_votes, "{wire:?}");
            assert_eq!(a.degraded_votes, b.degraded_votes, "{wire:?}");
            assert_eq!(a.abandoned_files, b.abandoned_files, "{wire:?}");
            assert_eq!(b.deferred_files, 0, "{wire:?}: s = 0 deferred a file");
            assert_eq!(b.stale_folded, 0, "{wire:?}: s = 0 folded a stale vote");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.suspicions), bits(&b.suspicions), "{wire:?}");
            assert_eq!(a.quarantined_workers, b.quarantined_workers, "{wire:?}");
        }
    }
}

/// (4) The speedup the mode exists for: in the straggler geometry of
/// §14 (Ramanujan Case 2, K = 25, f = 25, r = 5) with one straggler delayed
/// in 300 ms units, the bounded PS closes rounds on the 24 on-time
/// workers while the barrier PS waits out the straggler every round. Rounds/s —
/// measured from the PS's own round wall times, the quantity the mode
/// controls — must improve ≥ 1.2× (in practice it is far more), and the
/// trained parameters must not regress: with `r = 5` every file keeps an
/// on-time honest majority, so the winners (and hence the model) are
/// bit-identical to barrier's.
#[test]
fn bounded_staleness_outpaces_barrier_under_straggler() {
    let (train, _) = small_dataset();
    let data = Arc::new(train);
    // The smallest model the dataset admits: the quantity under test is
    // the PS's straggler wait, and on a small CI box the 25
    // oversubscribed worker threads already serialize a few hundred ms
    // of compute per round. The straggler factor below is sized so its
    // delay (3 × 300 ms) dominates that baseline rather than hiding
    // under it.
    let dims = vec![64usize, 8, 5];
    let cluster = MessagePassingCluster::new(
        RamanujanAssignment::new(5, 5).unwrap().build(),
        Arc::clone(&data),
        dims.clone(),
    );
    let initial = {
        let mut rng = StdRng::seed_from_u64(2);
        FastMlp::new(&dims, &mut rng).params_flat()
    };
    let barrier_cfg = ServerConfig {
        iterations: 4,
        batch_size: 25,
        faults: FaultPlan::new(3).straggle(4, 4.0),
        straggler_unit: Duration::from_millis(300),
        // Wide enough that the barrier PS actually waits out the
        // straggler's 900 ms delay instead of abandoning its frame at
        // the default 500 ms quiet gap — the wait is the cost the
        // bounded mode removes.
        receive_timeout: Duration::from_secs(2),
        seed: 13,
        ..ServerConfig::default()
    };
    let bounded_cfg = ServerConfig {
        mode: RoundMode::BoundedStaleness { max_staleness: 1 },
        ..barrier_cfg.clone()
    };
    let (p_barrier, s_barrier) = cluster.train(initial.clone(), &barrier_cfg);
    let (p_bounded, s_bounded) = cluster.train(initial, &bounded_cfg);

    assert_eq!(p_barrier, p_bounded, "loss regression: params diverged");

    let total_round_ns =
        |s: &[RoundSummary]| s.iter().map(|r| r.timings.round_ns).sum::<u64>().max(1);
    let barrier_ns = total_round_ns(&s_barrier);
    let bounded_ns = total_round_ns(&s_bounded);
    // rounds/s ratio = barrier time / bounded time for the same round
    // count.
    assert!(
        barrier_ns as f64 >= 1.2 * bounded_ns as f64,
        "bounded staleness too slow: barrier {barrier_ns} ns vs bounded {bounded_ns} ns \
         ({}x)",
        barrier_ns as f64 / bounded_ns as f64,
    );
}
