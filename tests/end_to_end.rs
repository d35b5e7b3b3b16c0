//! End-to-end integration tests: full training runs through the public
//! API, spanning data generation, assignment, attacks, defenses and
//! optimization.

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

fn mlp(seed: u64) -> FastMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    FastMlp::new(&[64, 32, 5], &mut rng)
}

fn config(iterations: usize, q: usize) -> TrainingConfig {
    TrainingConfig {
        batch_size: 100,
        iterations,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: q,
        eval_every: 0,
        eval_samples: 200,
        seed: 77,
        ..TrainingConfig::default()
    }
}

/// With no Byzantine workers, ByzShield training converges to a usable
/// model — the substrate itself learns.
#[test]
fn clean_training_converges() {
    let (train, test) = small_dataset();
    let mut model = mlp(1);
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let mut trainer = Trainer::new(
        &mut model,
        &train,
        &test,
        assignment,
        ByzantineSelector::Fixed(vec![]),
        Box::new(ReversedGradient::default()),
        Box::new(CoordinateMedian),
        config(120, 0),
    );
    let history = trainer.run().unwrap();
    assert!(
        history.final_accuracy > 0.6,
        "clean accuracy only {:.2}",
        history.final_accuracy
    );
    assert_eq!(history.mean_epsilon_hat(), 0.0);
}

/// The paper's central phenomenon (Figure 6's q = 9 collapse, scaled to
/// the K = 15 cluster): at q = 6 the omniscient adversary corrupts
/// ⌊6/2⌋ = 3 of DETOX's 5 vote groups — a majority — so DETOX's
/// median-of-means breaks, while ByzShield's distortion stays at
/// 12/25 < 1/2 and training still converges.
#[test]
fn byzshield_survives_where_detox_breaks() {
    let (train, test) = small_dataset();
    let q = 6;

    let run = |assignment: Assignment, aggregator: Box<dyn Aggregator>| {
        let mut model = mlp(2);
        let mut trainer = Trainer::new(
            &mut model,
            &train,
            &test,
            assignment,
            ByzantineSelector::Omniscient,
            Box::new(ConstantAttack::default()),
            aggregator,
            config(120, q),
        );
        trainer.run().unwrap()
    };

    let byzshield = run(
        MolsAssignment::new(5, 3).unwrap().build(),
        Box::new(CoordinateMedian),
    );
    let detox = run(
        FrcAssignment::new(15, 3).unwrap().build(),
        Box::new(MedianOfMeans { num_groups: 5 }),
    );

    // Distortion: ByzShield 12/25 = 0.48 (Table 3) vs FRC 3·3/15 = 0.6.
    assert!((byzshield.mean_epsilon_hat() - 0.48).abs() < 1e-9);
    assert!((detox.mean_epsilon_hat() - 0.6).abs() < 1e-9);
    // Convergence: ByzShield trains; DETOX is at or below chance-ish
    // accuracy because a majority of its vote groups are adversarial.
    assert!(
        byzshield.final_accuracy > 0.55,
        "ByzShield failed to converge: {:.3}",
        byzshield.final_accuracy
    );
    assert!(
        byzshield.final_accuracy > detox.final_accuracy + 0.2,
        "expected a large gap: ByzShield {:.3} vs DETOX {:.3}",
        byzshield.final_accuracy,
        detox.final_accuracy
    );
}

/// Exact recovery regime: when q < r′ no file can be distorted, so the
/// attacked run matches the clean run exactly (same seeds, same data).
#[test]
fn exact_recovery_when_q_below_threshold() {
    let (train, test) = small_dataset();

    let run = |q: usize| {
        let mut model = mlp(3);
        let mut trainer = Trainer::new(
            &mut model,
            &train,
            &test,
            MolsAssignment::new(5, 3).unwrap().build(),
            ByzantineSelector::Omniscient,
            Box::new(ConstantAttack::default()),
            Box::new(CoordinateMedian),
            config(40, q),
        );
        trainer.run().unwrap()
    };

    // r = 3 → r′ = 2: one Byzantine worker can never flip a majority.
    let attacked = run(1);
    let clean = run(0);
    assert_eq!(attacked.mean_epsilon_hat(), 0.0);
    assert_eq!(
        attacked.final_accuracy, clean.final_accuracy,
        "q < r′ must be indistinguishable from clean training"
    );
}

/// The trainer surfaces defense inapplicability rather than mis-training:
/// Bulyan over DETOX's 5 vote winners cannot tolerate any corruption.
#[test]
fn inapplicable_defense_is_reported() {
    let (train, test) = small_dataset();
    let mut model = mlp(4);
    let mut trainer = Trainer::new(
        &mut model,
        &train,
        &test,
        FrcAssignment::new(15, 3).unwrap().build(),
        ByzantineSelector::Omniscient,
        Box::new(Alie::default()),
        Box::new(Bulyan { num_byzantine: 1 }),
        config(5, 3),
    );
    let err = trainer.run().unwrap_err();
    assert!(matches!(err, TrainingError::DefenseInapplicable { .. }));
}

/// Config validation errors.
#[test]
fn config_errors() {
    let (train, test) = small_dataset();
    let mut model = mlp(5);
    // f = 25 does not divide b = 90.
    let mut trainer = Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(vec![]),
        Box::new(Alie::default()),
        Box::new(CoordinateMedian),
        TrainingConfig {
            batch_size: 90,
            ..config(5, 0)
        },
    );
    assert!(matches!(
        trainer.run().unwrap_err(),
        TrainingError::BatchNotDivisible {
            batch: 90,
            files: 25
        }
    ));

    let mut model = mlp(6);
    let mut trainer = Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(vec![]),
        Box::new(Alie::default()),
        Box::new(CoordinateMedian),
        config(5, 99),
    );
    assert!(matches!(
        trainer.run().unwrap_err(),
        TrainingError::TooManyByzantine { q: 99, workers: 15 }
    ));
}

/// A batch size the sampler cannot draw — zero, or more samples than the
/// training set holds — is a configuration error, not a panic.
#[test]
fn batch_size_out_of_range_is_an_error() {
    let (train, test) = small_dataset();
    for batch in [0, 825] {
        let mut model = mlp(7);
        let mut trainer = Trainer::new(
            &mut model,
            &train,
            &test,
            MolsAssignment::new(5, 3).unwrap().build(),
            ByzantineSelector::Fixed(vec![]),
            Box::new(Alie::default()),
            Box::new(CoordinateMedian),
            TrainingConfig {
                batch_size: batch,
                ..config(5, 0)
            },
        );
        assert_eq!(
            trainer.run().unwrap_err(),
            TrainingError::BatchSizeOutOfRange {
                batch,
                samples: 800
            }
        );
    }
}
