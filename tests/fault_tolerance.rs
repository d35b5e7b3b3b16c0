//! Deterministic chaos suite: fault injection (crashes, stragglers,
//! message drops) composed with Byzantine attacks, locked down by
//! bit-reproducibility assertions.
//!
//! Everything here is seeded: a [`FaultPlan`] decides every lost replica
//! as a pure function of `(seed, round, worker, file)`, so two
//! runs with the same configuration must produce *bit-identical*
//! [`RoundOutcome`]s — and any nondeterminism sneaking into the fault
//! path fails the suite.

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

fn config(iterations: usize, q: usize, faults: FaultPlan) -> TrainingConfig {
    TrainingConfig {
        batch_size: 100,
        iterations,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: q,
        eval_every: 5,
        eval_samples: 200,
        seed: 77,
        faults,
        ..TrainingConfig::default()
    }
}

/// Runs ByzShield (MOLS K = 15, r = 3, vote → coordinate median) on a
/// fresh model under the given plan and returns the history.
fn run_under_plan(
    model_seed: u64,
    cfg: TrainingConfig,
    byzantine: Vec<usize>,
) -> Result<TrainingHistory, TrainingError> {
    let (train, test) = small_dataset();
    let mut model = mlp(model_seed);
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
}

/// The chaos matrix: every combination class of crash × straggle × drop
/// completes without panicking, keeps its per-round accounting
/// consistent, and is bit-identical when re-run from the same seed.
#[test]
fn chaos_matrix_is_stable_and_deterministic() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("crash", FaultPlan::new(1).crash(4)),
        ("straggle", FaultPlan::new(2).straggle(7, 8.0)),
        ("drop", FaultPlan::new(3).drop_rate(0.1)),
        ("crash+drop", FaultPlan::new(4).crash(0).drop_rate(0.1)),
        (
            "crash+straggle+drop",
            FaultPlan::new(5).crash(11).straggle(2, 4.0).drop_rate(0.15),
        ),
    ];
    for (name, plan) in plans {
        let a = run_under_plan(9, config(6, 2, plan.clone()), vec![0, 5])
            .unwrap_or_else(|e| panic!("plan {name} failed: {e}"));
        let b = run_under_plan(9, config(6, 2, plan), vec![0, 5]).unwrap();

        for rec in &a.records {
            let o = &rec.outcome;
            // Every file is accounted for exactly once.
            assert_eq!(
                o.full_quorum + o.degraded + o.abandoned.len(),
                25,
                "plan {name}: file accounting leaked"
            );
            assert!(rec.epsilon_hat <= 1.0, "plan {name}: ε̂ out of range");
        }

        // Same seed ⇒ bit-identical degradation reports and loss.
        let outcomes_a: Vec<&RoundOutcome> = a.records.iter().map(|r| &r.outcome).collect();
        let outcomes_b: Vec<&RoundOutcome> = b.records.iter().map(|r| &r.outcome).collect();
        assert_eq!(outcomes_a, outcomes_b, "plan {name}: outcomes diverged");
        assert_eq!(
            a.final_loss.to_bits(),
            b.final_loss.to_bits(),
            "plan {name}: final loss diverged"
        );
    }
}

/// Losing at most `(r − 1)/2 = 1` replica per file (one crashed worker)
/// leaves every majority intact: training still reduces the loss.
#[test]
fn loss_decreases_under_bounded_replica_loss() {
    let history = run_under_plan(3, config(40, 0, FaultPlan::new(7).crash(6)), vec![]).unwrap();
    let curve = history.loss_curve();
    assert!(!curve.is_empty(), "loss probes were recorded");
    let first = curve.first().unwrap().1;
    assert!(
        history.final_loss < first,
        "loss did not decrease: {first} → {}",
        history.final_loss
    );
    // One crash thins quorums but abandons nothing at q_min = 1.
    assert_eq!(history.total_abandoned(), 0);
    assert!(history.total_degraded() > 0);
}

/// The issue's acceptance scenario: r = 3, one crashed worker plus 10%
/// replica drop. The run completes, is bit-reproducible, and its final
/// loss lands within 10% of the fault-free run's.
#[test]
fn degraded_run_tracks_fault_free_loss() {
    let faulty_plan = FaultPlan::new(0xC0FFEE).crash(10).drop_rate(0.10);
    let clean = run_under_plan(5, config(40, 0, FaultPlan::none()), vec![]).unwrap();
    let faulty = run_under_plan(5, config(40, 0, faulty_plan.clone()), vec![]).unwrap();
    let again = run_under_plan(5, config(40, 0, faulty_plan), vec![]).unwrap();

    assert!(
        (faulty.final_loss - clean.final_loss).abs() <= 0.10 * clean.final_loss,
        "degraded loss {} strayed more than 10% from fault-free {}",
        faulty.final_loss,
        clean.final_loss
    );
    assert_eq!(faulty.final_loss.to_bits(), again.final_loss.to_bits());
    let outcomes: Vec<&RoundOutcome> = faulty.records.iter().map(|r| &r.outcome).collect();
    let outcomes_again: Vec<&RoundOutcome> = again.records.iter().map(|r| &r.outcome).collect();
    assert_eq!(outcomes, outcomes_again);
    // Faults actually fired: replicas were dropped and quorums thinned.
    assert!(faulty
        .records
        .iter()
        .any(|r| r.outcome.dropped_replicas > 0));
    assert!(faulty.total_degraded() > 0);
}

/// Crashing every worker collapses the round into a *typed* error — not
/// a panic — and the outcome reports exactly what was lost.
#[test]
fn all_crashed_cluster_returns_typed_error() {
    let plan = FaultPlan::new(1).crash_many(0..15);
    let err = run_under_plan(1, config(5, 0, plan), vec![]).unwrap_err();
    match err {
        TrainingError::RoundCollapsed { iteration, outcome } => {
            assert_eq!(iteration, 1);
            assert!(outcome.is_collapsed());
            assert_eq!(outcome.crashed_workers, 15);
            assert_eq!(outcome.abandoned.len(), 25);
            assert!(outcome
                .abandoned
                .iter()
                .all(|a| a.error == QuorumError::NoReplicas));
        }
        other => panic!("expected RoundCollapsed, got {other:?}"),
    }
}

/// A strict quorum floor turns thin files into typed abandonments while
/// the rest of the round (and the training run) keeps going.
#[test]
fn strict_quorum_abandons_thin_files_but_run_continues() {
    let cfg = TrainingConfig {
        q_min: 3,
        ..config(5, 0, FaultPlan::new(2).crash(3))
    };
    let history = run_under_plan(2, cfg, vec![]).unwrap();
    for rec in &history.records {
        // Worker 3's five files can never reach all three replicas.
        assert_eq!(rec.outcome.abandoned.len(), 5);
        assert!(rec
            .outcome
            .abandoned
            .iter()
            .all(|a| matches!(a.error, QuorumError::QuorumNotMet { got: 2, needed: 3 })));
        assert_eq!(rec.outcome.surviving_files(), 20);
    }
}

/// Under an active fault plan ε̂ is measured over *surviving* files:
/// with every vote winner honest it must be zero even though replicas
/// were lost.
#[test]
fn epsilon_hat_is_measured_over_survivors() {
    let history =
        run_under_plan(6, config(5, 0, FaultPlan::new(21).drop_rate(0.12)), vec![]).unwrap();
    assert!(history.records.iter().any(|r| r.outcome.degraded > 0));
    assert!(history.records.iter().all(|r| r.epsilon_hat == 0.0));
    assert!(history.records.iter().all(|r| r.distorted_files == 0));
}
