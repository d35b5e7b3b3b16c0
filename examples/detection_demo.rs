//! Detection demo: a K = 15 MOLS cluster with 3 ALIE workers, watched by
//! the vote-audit reputation ledger. Every round prints the worst active
//! suspicion and the measured distortion ε̂; the liars are quarantined
//! mid-training and ε̂ collapses to zero for the rest of the run.
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
    let byzantine = vec![0usize, 5, 10];
    let cfg = TrainingConfig {
        batch_size: 100,
        iterations: 25,
        eval_every: 5,
        eval_samples: 200,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        num_byzantine: byzantine.len(),
        seed: 77,
        reputation: Some(ReputationConfig::default()),
        ..TrainingConfig::default()
    };
    println!(
        "MOLS(5,3): K = 15 workers, f = 25 files, r = 3; ALIE on {byzantine:?}; \
         quarantine threshold {:.2}, min evidence {}",
        ReputationConfig::default().quarantine_threshold,
        ReputationConfig::default().min_evidence,
    );
    let history = Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(byzantine.clone()),
        Box::new(Alie::default()),
        Box::new(CoordinateMedian),
        cfg,
    )
    .run()
    .expect("training completes");

    println!("round  max-active-suspicion  eps_hat  quarantined");
    for rec in &history.records {
        let rep = rec.reputation.as_ref().expect("reputation enabled");
        let max_active = rep
            .suspicions
            .iter()
            .enumerate()
            .filter(|(w, _)| !rep.quarantined.contains(w))
            .map(|(_, s)| *s)
            .fold(0.0f64, f64::max);
        println!(
            "{:>5}  {:>20.3}  {:>7.3}  {:?}",
            rec.iteration, max_active, rec.epsilon_hat, rep.quarantined
        );
        for event in &rep.events {
            println!("       >> {event:?}");
        }
    }

    let timeline = history.quarantine_timeline();
    println!("\nquarantine timeline (worker, round): {timeline:?}");
    assert_eq!(
        history.ledger.as_ref().unwrap().quarantined_workers(),
        byzantine,
        "exactly the ALIE workers are quarantined"
    );
    let post: Vec<f64> = history
        .records
        .iter()
        .filter(|r| {
            timeline
                .iter()
                .all(|&(_, round)| (r.iteration as u64) > round)
        })
        .map(|r| r.epsilon_hat)
        .collect();
    println!(
        "post-quarantine eps_hat over {} rounds: max {:.3}",
        post.len(),
        post.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "final loss {:.4}, final accuracy {:.1}%",
        history.final_loss,
        100.0 * history.final_accuracy
    );
}
