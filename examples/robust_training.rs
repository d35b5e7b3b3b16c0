//! Robust training walkthrough: wire a `Trainer` by hand (custom model,
//! dataset, attack and defense) instead of using the preconfigured
//! experiment drivers.
//!
//! ```sh
//! cargo run --release --example robust_training
//! ```

use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Data: 10-class synthetic images, 1×12×12.
    let (train, test) = SyntheticImages::new(SyntheticConfig {
        num_classes: 10,
        channels: 1,
        hw: 12,
        train_samples: 3_000,
        test_samples: 600,
        noise: 0.8,
        max_shift: 2,
        seed: 99,
    })
    .generate();

    // Model: an MLP over flattened pixels.
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = FastMlp::new(&[144, 64, 10], &mut rng);
    println!("model parameters: {}", model.num_params());

    // Placement: the paper's K = 25 cluster (Ramanujan Case 2, r = l = 5).
    let assignment = RamanujanAssignment::new(5, 5)
        .expect("valid parameters")
        .build();

    // Adversary: q = 5 workers, chosen omnisciently, mounting the
    // constant attack.
    let q = 5;
    let selector = ByzantineSelector::Omniscient;
    let attack = Box::new(ConstantAttack { value: -100.0 });

    // Aggregation: ByzShield = majority vote per file (the round's),
    // then coordinate-wise median across the 25 vote winners.
    let aggregator = Box::new(CoordinateMedian);

    let config = TrainingConfig {
        batch_size: 300,
        iterations: 150,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: q,
        eval_every: 25,
        eval_samples: 600,
        seed: 1234,
        ..TrainingConfig::default()
    };

    let mut trainer = Trainer::new(
        &mut model, &train, &test, assignment, selector, attack, aggregator, config,
    );

    let history = trainer
        .run()
        .expect("defense applicable for these parameters");
    println!("\niter  ε̂     top-1 accuracy");
    for r in &history.records {
        if let Some(acc) = r.test_accuracy {
            println!(
                "{:4}  {:.2}   {:5.1}%",
                r.iteration,
                r.epsilon_hat,
                100.0 * acc
            );
        }
    }
    println!(
        "\nfinal accuracy {:.1}% | mean ε̂ = {:.3} | total time {:.1?}",
        100.0 * history.final_accuracy,
        history.mean_epsilon_hat(),
        history.total_time
    );

    // Contrast: the same adversary against plain averaging diverges or
    // stalls — run it and see.
    let mut rng = StdRng::seed_from_u64(7);
    let mut naive_model = FastMlp::new(&[144, 64, 10], &mut rng);
    let naive = Trainer::new(
        &mut naive_model,
        &train,
        &test,
        FrcAssignment::new(25, 1).expect("valid parameters").build(),
        ByzantineSelector::Omniscient,
        Box::new(ConstantAttack { value: -100.0 }),
        Box::new(Mean),
        TrainingConfig {
            batch_size: 300,
            iterations: 150,
            lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
            momentum: 0.9,
            num_byzantine: q,
            eval_every: 0,
            eval_samples: 600,
            seed: 1234,
            ..TrainingConfig::default()
        },
    )
    .run()
    .expect("mean is always applicable");
    println!(
        "same attack vs plain mean aggregation: final accuracy {:.1}%",
        100.0 * naive.final_accuracy
    );
}
