//! Quick driver: degraded-quorum training under crash + drop faults.
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (train, test) = SyntheticImages::new(SyntheticConfig {
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
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = FastMlp::new(&[64, 32, 5], &mut rng);
    let cfg = TrainingConfig {
        batch_size: 100,
        iterations: 20,
        eval_every: 5,
        eval_samples: 200,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        num_byzantine: 2,
        seed: 77,
        faults: FaultPlan::new(0xC0FFEE).crash(10).drop_rate(0.10),
        ..TrainingConfig::default()
    };
    let history = Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(vec![0, 5]),
        Box::new(Alie::default()),
        Box::new(CoordinateMedian),
        cfg,
    )
    .run()
    .expect("train survives faults");
    let last = history.records.last().unwrap();
    println!("final round outcome: {:?}", last.outcome);
    println!("epsilon_hat (over survivors): {:.3}", last.epsilon_hat);
    println!(
        "final loss {:.4}, final accuracy {:.1}%",
        history.final_loss,
        100.0 * history.final_accuracy
    );
    println!(
        "degraded files total: {}, abandoned: {}",
        history.total_degraded(),
        history.total_abandoned()
    );
}
