//! Detection-latency sweep: how many rounds the reputation ledger takes
//! to quarantine each attack variant (regenerates
//! `bench_results/detection_latency.txt`).
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(attack: Box<dyn AttackVector>, byz: Vec<usize>, faults: FaultPlan) -> TrainingHistory {
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
        iterations: 60,
        eval_every: 0,
        eval_samples: 100,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        num_byzantine: byz.len(),
        seed: 77,
        faults,
        reputation: Some(ReputationConfig::default()),
        ..TrainingConfig::default()
    };
    Trainer::new(
        &mut model,
        &train,
        &test,
        MolsAssignment::new(5, 3).unwrap().build(),
        ByzantineSelector::Fixed(byz),
        attack,
        Box::new(CoordinateMedian),
        cfg,
    )
    .run()
    .expect("completes")
}

fn report(name: &str, history: &TrainingHistory, byz: &[usize]) {
    let timeline = history.quarantine_timeline();
    let all_caught = {
        let mut w: Vec<usize> = timeline.iter().map(|&(w, _)| w).collect();
        w.sort_unstable();
        w == byz
    };
    let last = timeline.iter().map(|&(_, r)| r).max().unwrap_or(0);
    let post_eps = history
        .records
        .iter()
        .filter(|r| r.iteration as u64 > last)
        .map(|r| r.epsilon_hat)
        .fold(0.0f64, f64::max);
    let pre_eps = history
        .records
        .iter()
        .filter(|r| r.iteration as u64 <= last)
        .map(|r| r.epsilon_hat)
        .fold(0.0f64, f64::max);
    println!(
        "{name:<34} q={} caught={} rounds_to_full_quarantine={} peak_eps_before={:.3} max_eps_after={:.3}",
        byz.len(),
        all_caught,
        last,
        pre_eps,
        post_eps
    );
}

type Case = (&'static str, Box<dyn AttackVector>, Vec<usize>, FaultPlan);

fn main() {
    let cases: Vec<Case> = vec![
        (
            "alie_q3",
            Box::new(Alie::default()),
            vec![0, 5, 10],
            FaultPlan::none(),
        ),
        (
            "alie_q2",
            Box::new(Alie::default()),
            vec![0, 5],
            FaultPlan::none(),
        ),
        (
            "constant_q3",
            Box::new(ConstantAttack::default()),
            vec![0, 5, 10],
            FaultPlan::none(),
        ),
        (
            "revgrad_q3",
            Box::new(ReversedGradient::default()),
            vec![0, 5, 10],
            FaultPlan::none(),
        ),
        (
            "sleeper80_alie_q2",
            Box::new(Sleeper {
                inner: Alie::default(),
                fraction: 0.8,
                seed: 9,
            }),
            vec![0, 5],
            FaultPlan::none(),
        ),
        (
            "sleeper60_alie_q2",
            Box::new(Sleeper {
                inner: Alie::default(),
                fraction: 0.6,
                seed: 9,
            }),
            vec![0, 5],
            FaultPlan::none(),
        ),
        (
            "alie_q2_crash_drop",
            Box::new(Alie::default()),
            vec![0, 5],
            FaultPlan::new(6).crash(4).drop_rate(0.05),
        ),
    ];
    for (name, attack, byz, faults) in cases {
        let history = run(attack, byz.clone(), faults);
        report(name, &history, &byz);
    }
}
