//! Cross-crate integration: the DRACO-vs-ByzShield trade-off (paper
//! Sections 1.2 and 5.3.1) exercised end to end with real gradients from
//! the NN substrate.

use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Real per-file gradients from a real model on the synthetic task.
fn real_file_gradients(num_files: usize) -> Vec<Vec<f32>> {
    let (train, _) = SyntheticImages::new(SyntheticConfig {
        num_classes: 4,
        channels: 1,
        hw: 6,
        train_samples: num_files * 8,
        test_samples: 10,
        noise: 0.4,
        max_shift: 1,
        seed: 33,
    })
    .generate();
    let mut rng = StdRng::seed_from_u64(4);
    let model = FastMlp::new(&[36, 12, 4], &mut rng);
    (0..num_files)
        .map(|i| {
            let samples: Vec<usize> = (i * 8..(i + 1) * 8).collect();
            let (x, labels) = train.gather(&samples);
            model.gradient_sum(&x, samples.len(), &labels).1
        })
        .collect()
}

/// DRACO's cyclic code recovers the EXACT batch gradient from real model
/// gradients under a worst-case two-worker corruption.
#[test]
fn draco_exact_recovery_on_real_gradients() {
    let k = 12;
    let grads = real_file_gradients(k);
    let d = grads[0].len();
    let truth: Vec<f32> = (0..d).map(|j| grads.iter().map(|g| g[j]).sum()).collect();

    let code = CyclicCode::new(k, 2).unwrap();
    let mut returns = code.encode(&grads).unwrap();
    returns[2] = vec![1e6; 2 * d];
    returns[9] = vec![-3e5; 2 * d];
    let decoded = code.decode_sum(&returns).unwrap();

    let scale = truth.iter().map(|x| x.abs()).fold(1.0f32, f32::max);
    for (a, b) in decoded.iter().zip(&truth) {
        assert!(
            (a - b).abs() <= 1e-3 * scale,
            "decoded {a} vs true {b} (scale {scale})"
        );
    }
}

/// The replication price: to tolerate the same q, DRACO needs r = 2q + 1
/// while ByzShield needs only enough expansion to keep ε̂ small. This
/// test pins the concrete trade at q = 5, K = 15.
#[test]
fn replication_requirements_differ() {
    let q = 5;
    // DRACO at r = 3 or 5 cannot even be *instantiated* for q = 5.
    assert!(matches!(
        FrcCode::new(15, 5).unwrap().decode(&vec![vec![0.0]; 15], q),
        Err(DracoError::TooManyAdversaries { .. })
    ));
    // The cyclic code would need r = 11 (possible but heavy).
    let heavy = CyclicCode::new(15, q).unwrap();
    assert_eq!(heavy.replication(), 11);

    // ByzShield at r = 3 handles q = 5 with bounded damage.
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let res = cmax_exhaustive(&assignment, q);
    assert_eq!(res.value, 8); // Table 3
    assert!(
        res.epsilon_hat(25) < 0.5,
        "honest majority of files survives"
    );
}

/// Majority vote + median end-to-end against the DRACO FRC decoder on the
/// same worst-case corruption: both survive within their regimes, and the
/// vote pipeline keeps working where DRACO's guarantee lapses.
#[test]
fn vote_pipeline_survives_beyond_draco_radius() {
    let grads = real_file_gradients(25);
    let assignment = MolsAssignment::new(5, 3).unwrap().build();
    let q = 3; // > (r-1)/2 = 1: DRACO-FRC with r = 3 is out of its regime.
    let byzantine = ByzantineSelector::Omniscient.select(&assignment, q, 0);

    // Build per-file replica sets with the Byzantine payloads.
    let evil = vec![-1e9f32; grads[0].len()];
    let mut distorted = 0usize;
    let mut winners = Vec::new();
    assert_eq!(grads.len(), assignment.num_files());
    for (file, grad) in grads.iter().enumerate() {
        let replicas: Vec<Vec<f32>> = assignment
            .graph()
            .workers_of(file)
            .iter()
            .map(|w| {
                if byzantine.contains(w) {
                    evil.clone()
                } else {
                    grad.clone()
                }
            })
            .collect();
        let outcome = majority_vote(&replicas).unwrap();
        if outcome.value == evil {
            distorted += 1;
        }
        winners.push(outcome.value);
    }
    // Table 3: c_max(3) = 3.
    assert_eq!(distorted, 3);

    // Coordinate-wise median across the 25 winners suppresses the 3
    // corrupted ones entirely (22 honest >> 3 evil per coordinate).
    let aggregated = CoordinateMedian.aggregate(&winners).unwrap();
    assert!(
        aggregated.iter().all(|&x| x > -1e8),
        "median leaked the Byzantine payload"
    );
}
