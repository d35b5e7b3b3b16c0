//! `Trainer::run` as a driver of the deployed round engine
//! (`byz_wire::RoundCore`): what the trainer reports is what the engine
//! decided — the wire's booking convention under bounded staleness, and
//! the paper's Eq. 3 counted on live rounds from the engine's winners.

use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(cfg: TrainingConfig, selector: ByzantineSelector) -> TrainingHistory {
    let (train, test) = SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 400,
        test_samples: 50,
        noise: 0.5,
        max_shift: 1,
        seed: 2024,
    })
    .generate();
    let mut model = FastMlp::new(&[64, 16, 5], &mut StdRng::seed_from_u64(3));
    Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        selector,
        Box::new(ConstantAttack { value: -50.0 }),
        Defense::VoteThenAggregate(Box::new(CoordinateMedian)),
        cfg,
    )
    .run()
    .unwrap()
}

fn config(iterations: usize, q: usize) -> TrainingConfig {
    TrainingConfig {
        batch_size: 100,
        iterations,
        num_byzantine: q,
        eval_every: 0,
        eval_samples: 50,
        ..TrainingConfig::default()
    }
}

/// One booking convention: a file is booked in the round its vote folds
/// in. With `q_min = 3` the lag-1 straggler's five files defer every
/// round, so every round accounts for `f` files minus the ones it parks
/// plus the ones parked the round before — won or abandoned (drops are
/// on, so some are).
#[test]
fn deferred_files_are_booked_at_their_fold_round() {
    let history = run(
        TrainingConfig {
            faults: FaultPlan::new(10).straggle(7, 2.0).drop_rate(0.1),
            quorum: QuorumConfig::strict(3),
            mode: RoundMode::BoundedStaleness { max_staleness: 1 },
            ..config(6, 0)
        },
        ByzantineSelector::Fixed(vec![]),
    );
    let mut parked_before = 0;
    let mut abandoned_stale = 0;
    for rec in &history.records {
        let o = &rec.outcome;
        assert_eq!(o.deferred, 5, "round {}", rec.iteration);
        assert_eq!(
            o.full_quorum + o.degraded + o.abandoned.len(),
            25 - o.deferred + parked_before,
            "round {}",
            rec.iteration
        );
        assert!(o.stale_folded <= parked_before);
        abandoned_stale += parked_before - o.stale_folded;
        parked_before = o.deferred;
    }
    assert!(abandoned_stale > 0, "drops abandoned no parked file");
}

/// Paper Eq. 3 on the running round: under the omniscient selector the
/// number of engine winners that are not the honest gradient is Table 3's
/// `c_max(q)` for MOLS(5,3), every round. The ledger only watches
/// (nobody reaches its evidence floor), which is what makes ε̂ a measured
/// quantity here rather than `count_distorted`'s prediction.
#[test]
fn live_distorted_files_are_table3_cmax() {
    for (q, c_max) in (2..=7).zip([1, 3, 5, 8, 12, 14]) {
        let history = run(
            TrainingConfig {
                reputation: Some(ReputationConfig {
                    min_evidence: u64::MAX,
                    ..ReputationConfig::default()
                }),
                ..config(3, q)
            },
            ByzantineSelector::Omniscient,
        );
        for rec in &history.records {
            assert!(rec.reputation.as_ref().unwrap().quarantined.is_empty());
            assert_eq!(rec.distorted_files, c_max, "q = {q}");
            assert_eq!(rec.epsilon_hat, c_max as f64 / 25.0, "q = {q}");
        }
    }
}
