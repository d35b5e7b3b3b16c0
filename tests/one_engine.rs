//! `Trainer::run` as a driver of the deployed round engine
//! (`byz_wire::RoundCore`): what the trainer reports is what the engine
//! decided — the paper's Eq. 3 counted on live rounds from the engine's
//! winners.

use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIMS: [usize; 3] = [64, 16, 5];

fn data() -> (Dataset, Dataset) {
    SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 400,
        test_samples: 50,
        noise: 0.5,
        max_shift: 1,
        seed: 2024,
    })
    .generate()
}

fn model() -> FastMlp {
    FastMlp::new(&DIMS, &mut StdRng::seed_from_u64(3))
}

fn run(cfg: TrainingConfig, selector: ByzantineSelector) -> TrainingHistory {
    let (train, test) = data();
    let mut model = model();
    Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        selector,
        Box::new(ConstantAttack { value: -50.0 }),
        Box::new(CoordinateMedian),
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

/// One degradation policy on both drivers: the in-process trainer and the
/// message-passing cluster vote over what arrived, so under the same
/// placement, batch seed and fault plan every round abandons and degrades
/// the same files — neither driver re-requests a replica the other loses.
#[test]
fn trainer_and_wire_degrade_alike_under_one_plan() {
    let plan = FaultPlan::new(11).crash(0).drop_rate(0.1);
    let (iterations, seed, q_min) = (6, 77, 3);
    let history = run(
        TrainingConfig {
            faults: plan.clone(),
            seed,
            q_min,
            ..config(iterations, 0)
        },
        ByzantineSelector::Fixed(vec![]),
    );
    let wire = MessagePassingCluster::new(
        MolsAssignment::new(5, 3).unwrap().build(),
        std::sync::Arc::new(data().0),
        DIMS.to_vec(),
    )
    .train_run(
        model().params_flat(),
        &ServerConfig {
            batch_size: 100,
            iterations,
            faults: plan,
            q_min,
            seed,
            ..ServerConfig::default()
        },
    );
    let trainer: Vec<(usize, usize)> = history
        .records
        .iter()
        .map(|r| (r.outcome.abandoned.len(), r.outcome.degraded))
        .collect();
    let wire: Vec<(usize, usize)> = wire
        .summaries
        .iter()
        .map(|s| (s.abandoned_files, s.degraded_votes))
        .collect();
    assert!(trainer.iter().any(|&(abandoned, _)| abandoned > 5));
    assert_eq!(trainer, wire);
}

/// One loop, two deliveries: the in-process trainer (constant learning
/// rate, median) and the channel PS train the same parameters bit for
/// bit and fold the same ledger, on a clean run, under a fixed attack
/// the ledger only watches, and under drops plus a crash. They part ways
/// only once a quarantine fires: the trainer repairs the placement, the
/// PS filters the holder sets.
#[test]
fn trainer_and_channel_ps_train_the_same_bits() {
    let (iterations, seed) = (8, 31);
    let watching = ReputationConfig {
        min_evidence: u64::MAX,
        ..ReputationConfig::default()
    };
    let cases = [
        (vec![], None, FaultPlan::none()),
        (vec![0, 5], Some(watching), FaultPlan::none()),
        (vec![], None, FaultPlan::new(7).drop_rate(0.08).crash(3)),
    ];
    for (byzantine, reputation, faults) in cases {
        let (train, test) = data();
        let mut model = model();
        let history = Trainer::new(
            &mut model,
            &train,
            &test,
            MolsAssignment::new(5, 3).unwrap().build(),
            ByzantineSelector::Fixed(byzantine.clone()),
            Box::new(ConstantAttack { value: -50.0 }),
            Box::new(CoordinateMedian),
            TrainingConfig {
                lr_schedule: StepDecaySchedule::new(0.05, 1.0, 0),
                num_byzantine: byzantine.len(),
                seed,
                faults: faults.clone(),
                reputation,
                ..config(iterations, 0)
            },
        )
        .run()
        .unwrap();
        let wire = MessagePassingCluster::new(
            MolsAssignment::new(5, 3).unwrap().build(),
            std::sync::Arc::new(train),
            DIMS.to_vec(),
        )
        .train_run(
            self::model().params_flat(),
            &ServerConfig {
                batch_size: 100,
                iterations,
                learning_rate: 0.05,
                byzantine: byzantine.clone(),
                attack: LocalAttack::Constant { value: -50.0 },
                faults,
                seed,
                reputation,
                ..ServerConfig::default()
            },
        );
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&model.params_flat()),
            bits(&wire.params),
            "{byzantine:?}"
        );
        assert_eq!(
            history.ledger.as_ref().map(ReputationLedger::to_bytes),
            wire.ledger_bytes,
            "{byzantine:?}"
        );
        if let Some(ledger) = &history.ledger {
            assert!(ledger.quarantined_workers().is_empty());
        }
    }
}
