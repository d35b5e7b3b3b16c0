//! Detection matrix for the vote-audit reputation subsystem.
//!
//! The ledger turns every lost majority vote into evidence, so an
//! always-lying Byzantine worker must be quarantined within a bounded
//! number of rounds, after which the *measured* distortion `ε̂` drops to
//! zero. Benign faults (crashes, stragglers, message drops) produce
//! absences, never disagreements — so under pure chaos the suspicion of
//! every worker must stay exactly `0.0` and nobody may be quarantined.
//! Everything is a seeded pure fold and therefore bit-reproducible
//! across reruns.

use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_dataset() -> (Dataset, Dataset) {
    SyntheticImages::new(SyntheticConfig {
        num_classes: 5,
        channels: 1,
        hw: 8,
        train_samples: 600,
        test_samples: 100,
        noise: 0.5,
        max_shift: 1,
        seed: 2024,
    })
    .generate()
}

fn mlp(seed: u64) -> FastMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    FastMlp::new(&[64, 24, 5], &mut rng)
}

fn config(iterations: usize, q: usize, faults: FaultPlan) -> TrainingConfig {
    TrainingConfig {
        batch_size: 100,
        iterations,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: q,
        eval_every: 0,
        eval_samples: 100,
        seed: 77,
        faults,
        reputation: Some(ReputationConfig::default()),
        ..TrainingConfig::default()
    }
}

fn run(
    cfg: TrainingConfig,
    byzantine: Vec<usize>,
    attack: Box<dyn AttackVector>,
) -> TrainingHistory {
    let (train, test) = small_dataset();
    let mut model = mlp(8);
    Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(byzantine),
        attack,
        Box::new(CoordinateMedian),
        cfg,
    )
    .run()
    .expect("training completes")
}

/// Workers a history's ledger ended up quarantining, ascending.
fn flagged(history: &TrainingHistory) -> Vec<usize> {
    history
        .ledger
        .as_ref()
        .expect("reputation enabled")
        .quarantined_workers()
}

#[test]
fn always_lying_attackers_are_quarantined_within_bounded_rounds() {
    let byz = vec![0usize, 5, 10];
    let history = run(
        config(15, 3, FaultPlan::none()),
        byz.clone(),
        Box::new(Alie::default()),
    );

    assert_eq!(flagged(&history), byz, "exactly the liars are flagged");
    let timeline = history.quarantine_timeline();
    assert_eq!(timeline.len(), 3);
    for &(worker, round) in &timeline {
        assert!(byz.contains(&worker));
        assert!(
            round <= 6,
            "worker {worker} took {round} rounds to quarantine"
        );
    }

    // Once every liar is out, the measured distortion collapses to zero:
    // the surviving replicas of every file are all honest.
    let last_flag = timeline.iter().map(|&(_, r)| r).max().unwrap() as usize;
    for rec in history.records.iter().filter(|r| r.iteration > last_flag) {
        assert_eq!(rec.distorted_files, 0, "iteration {}", rec.iteration);
        assert_eq!(rec.epsilon_hat, 0.0, "iteration {}", rec.iteration);
    }

    // The analytical counter agrees that nothing stays distorted — but
    // {0, 5, 10} are file 0's *only* holders, so without repair that
    // file would be lost outright. The greedy reassignment restores it,
    // which is why the trainer's ε̂ above is measured over all 25 files.
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let post = count_distorted_post_quarantine(&assignment, &byz, &byz);
    assert_eq!(post.distorted, 0);
    assert_eq!(post.lost_files, 1);
    assert_eq!(post.epsilon_hat(), 0.0);
    let repaired = reassign_quarantined(&assignment, &byz);
    assert!(repaired.is_fully_replicated(), "repair restores file 0");
}

#[test]
fn sleeper_attacker_is_caught_despite_dormant_rounds() {
    // A sleeper forging only 80% of its (iteration, file) slots lies at a
    // lower observable rate, so detection is slower — but the EWMA still
    // converges above the threshold and both colluders fall.
    let byz = vec![0usize, 5];
    let sleeper = Sleeper {
        inner: Alie::default(),
        fraction: 0.8,
        seed: 9,
    };
    let history = run(
        config(30, 2, FaultPlan::none()),
        byz.clone(),
        Box::new(sleeper),
    );
    assert_eq!(flagged(&history), byz);
    // Honest workers outvoted on a distorted file pick up occasional
    // disagreements; they must still sit far below the threshold.
    let ledger = history.ledger.as_ref().unwrap();
    let threshold = ledger.config().quarantine_threshold;
    for w in (0..15).filter(|w| !byz.contains(w)) {
        assert!(
            ledger.suspicion(w) < threshold,
            "honest worker {w} suspicion {}",
            ledger.suspicion(w)
        );
    }
}

#[test]
fn benign_chaos_never_raises_suspicion() {
    // The PR-2 chaos plans, with zero Byzantine workers: crashes and
    // drops create absences, and absences are accounted separately from
    // disagreement — suspicion stays exactly 0.0 for everyone.
    let plans = vec![
        ("crash", FaultPlan::new(1).crash(4)),
        ("straggle", FaultPlan::new(2).straggle(7, 8.0)),
        ("drop", FaultPlan::new(3).drop_rate(0.1)),
        (
            "combined",
            FaultPlan::new(4).crash(2).straggle(11, 4.0).drop_rate(0.05),
        ),
    ];
    for (name, plan) in plans {
        let history = run(config(10, 0, plan), vec![], Box::new(Alie::default()));
        let ledger = history.ledger.as_ref().unwrap();
        assert!(flagged(&history).is_empty(), "{name}: false positive");
        for w in 0..15 {
            assert_eq!(
                ledger.suspicion(w).to_bits(),
                0.0f64.to_bits(),
                "{name}: worker {w} suspicion must be exactly zero"
            );
        }
        assert!(
            history.records.iter().all(|r| r.reputation.is_some()),
            "{name}: every round reports a reputation outcome"
        );
    }
}

#[test]
fn chaos_plus_attack_flags_only_the_liars() {
    // Crashes and drops layered on top of a live attack must not push an
    // honest worker over the threshold: absence is not evidence, and an
    // honest minority verdict on a distorted file is rare by expansion.
    let plan = FaultPlan::new(6).crash(4).drop_rate(0.05);
    let history = run(config(15, 2, plan), vec![0, 5], Box::new(Alie::default()));
    assert_eq!(flagged(&history), vec![0, 5]);
    // The crashed worker accrues absence, not suspicion.
    let ledger = history.ledger.as_ref().unwrap();
    assert!(ledger.absence(4) > 0.5, "crashed worker looks absent");
    assert_eq!(ledger.suspicion(4).to_bits(), 0.0f64.to_bits());
}

#[test]
fn ledger_is_bit_identical_across_reruns() {
    let make = || {
        run(
            config(12, 3, FaultPlan::new(9).drop_rate(0.08)),
            vec![0, 5, 10],
            Box::new(Alie::default()),
        )
    };
    let (a, b) = (make(), make());
    let (la, lb) = (a.ledger.as_ref().unwrap(), b.ledger.as_ref().unwrap());
    assert_eq!(la.to_bytes(), lb.to_bytes(), "serialized ledgers differ");
    let bits = |l: &ReputationLedger| {
        l.suspicions()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(la), bits(lb));
    assert_eq!(a.quarantine_timeline(), b.quarantine_timeline());
}

#[test]
fn checkpoint_roundtrips_the_ledger_mid_training() {
    // Serialize the ledger after a run, restore it, and verify the
    // restored ledger resumes from the same state (same quarantine set,
    // same suspicion bits).
    let history = run(
        config(10, 2, FaultPlan::none()),
        vec![0, 5],
        Box::new(Alie::default()),
    );
    let ledger = history.ledger.unwrap();
    let restored_ledger = ReputationLedger::from_bytes(&ledger.to_bytes()).expect("valid ledger");
    assert_eq!(restored_ledger.to_bytes(), ledger.to_bytes());
    assert_eq!(restored_ledger.quarantined_workers(), vec![0, 5]);
}
