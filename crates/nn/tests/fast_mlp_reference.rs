//! [`FastMlp`] against an independent reference: a naive f64 scalar-loop
//! MLP that shares no code with it (no GEMM, no `byz-kernel`), itself
//! checked by central differences. Plus a golden pin of the initial
//! parameters, on which every parameter fingerprint depends.

use byz_nn::FastMlp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference network: the same flat layout as [`FastMlp`] (per layer
/// the `n_in × n_out` weights row-major, then the `n_out` biases), one
/// sample at a time, in f64.
struct Reference {
    dims: Vec<usize>,
    params: Vec<f64>,
}

impl Reference {
    fn of(model: &FastMlp) -> Self {
        Reference {
            dims: model.dims().to_vec(),
            params: model.params_flat().into_iter().map(f64::from).collect(),
        }
    }

    /// Offset of each layer's weights in the flat layout.
    fn offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0];
        for pair in self.dims.windows(2) {
            offsets.push(offsets.last().unwrap() + (pair[0] + 1) * pair[1]);
        }
        offsets
    }

    /// Every layer's output for one sample (ReLU between layers, raw
    /// logits last), preceded by the input itself.
    fn activations(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let offsets = self.offsets();
        let mut acts = vec![x.to_vec()];
        for li in 0..self.dims.len() - 1 {
            let (n_in, n_out) = (self.dims[li], self.dims[li + 1]);
            let (w, b) = (offsets[li], offsets[li] + n_in * n_out);
            let prev = &acts[li];
            let mut next = vec![0.0; n_out];
            for (j, z) in next.iter_mut().enumerate() {
                *z = self.params[b + j];
                for (i, a) in prev.iter().enumerate() {
                    *z += a * self.params[w + i * n_out + j];
                }
                if li + 2 < self.dims.len() {
                    *z = z.max(0.0);
                }
            }
            acts.push(next);
        }
        acts
    }

    fn logits(&self, x: &[f32], batch: usize) -> Vec<f64> {
        let n_in = self.dims[0];
        (0..batch)
            .flat_map(|s| {
                let sample: Vec<f64> = x[s * n_in..(s + 1) * n_in]
                    .iter()
                    .map(|&v| f64::from(v))
                    .collect();
                self.activations(&sample).pop().unwrap()
            })
            .collect()
    }

    /// Summed cross-entropy over the batch and its gradient, by
    /// backpropagation one sample at a time.
    fn loss_and_gradient(&self, x: &[f32], batch: usize, labels: &[usize]) -> (f64, Vec<f64>) {
        let offsets = self.offsets();
        let n_in = self.dims[0];
        let mut loss = 0.0;
        let mut grad = vec![0.0; self.params.len()];
        for s in 0..batch {
            let sample: Vec<f64> = x[s * n_in..(s + 1) * n_in]
                .iter()
                .map(|&v| f64::from(v))
                .collect();
            let acts = self.activations(&sample);
            let logits = acts.last().unwrap();
            let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let log_sum = logits.iter().map(|z| (z - max).exp()).sum::<f64>().ln() + max;
            loss += log_sum - logits[labels[s]];
            // δ = softmax − one_hot at the top, then layer by layer down.
            let mut delta: Vec<f64> = logits.iter().map(|z| (z - log_sum).exp()).collect();
            delta[labels[s]] -= 1.0;
            for li in (0..self.dims.len() - 1).rev() {
                let (n_in, n_out) = (self.dims[li], self.dims[li + 1]);
                let (w, b) = (offsets[li], offsets[li] + n_in * n_out);
                let prev = &acts[li];
                for (i, a) in prev.iter().enumerate() {
                    for (j, d) in delta.iter().enumerate() {
                        grad[w + i * n_out + j] += a * d;
                    }
                }
                for (j, d) in delta.iter().enumerate() {
                    grad[b + j] += d;
                }
                delta = (0..n_in)
                    .map(|i| {
                        // The ReLU passes gradient only where it fired
                        // (the input layer has no ReLU and needs none).
                        if li > 0 && prev[i] <= 0.0 {
                            return 0.0;
                        }
                        (0..n_out)
                            .map(|j| self.params[w + i * n_out + j] * delta[j])
                            .sum()
                    })
                    .collect();
            }
        }
        (loss, grad)
    }
}

fn arch() -> impl Strategy<Value = Vec<usize>> {
    prop::sample::select(vec![
        vec![3usize, 4, 2],
        vec![5, 8, 3],
        vec![4, 6, 6, 3],
        vec![2, 3, 2, 2, 2],
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn logits_agree(dims in arch(), seed in 0u64..1000, batch in 1usize..5) {
        let fast = FastMlp::new(&dims, &mut StdRng::seed_from_u64(seed));
        let reference = Reference::of(&fast);
        let x: Vec<f32> = (0..batch * dims[0])
            .map(|i| ((i as f32) * 0.37 + seed as f32 * 0.01).sin())
            .collect();
        let expected = reference.logits(&x, batch);
        for (a, b) in fast.logits(&x, batch).iter().zip(&expected) {
            prop_assert!((f64::from(*a) - b).abs() < 1e-4, "logit {} vs {}", a, b);
        }
    }

    #[test]
    fn gradients_agree(dims in arch(), seed in 0u64..1000, batch in 1usize..5) {
        let fast = FastMlp::new(&dims, &mut StdRng::seed_from_u64(seed));
        let reference = Reference::of(&fast);
        let n_out = *dims.last().unwrap();
        let x: Vec<f32> = (0..batch * dims[0])
            .map(|i| ((i as f32) * 0.61 - seed as f32 * 0.003).cos())
            .collect();
        let labels: Vec<usize> = (0..batch).map(|s| (s + seed as usize) % n_out).collect();

        let (loss, grad) = fast.gradient_sum(&x, batch, &labels);
        let (ref_loss, ref_grad) = reference.loss_and_gradient(&x, batch, &labels);
        prop_assert!((f64::from(loss) - ref_loss).abs() < 1e-3);
        prop_assert_eq!(grad.len(), ref_grad.len());
        for (i, (a, b)) in grad.iter().zip(&ref_grad).enumerate() {
            prop_assert!((f64::from(*a) - b).abs() < 1e-3, "grad[{}]: {} vs {}", i, a, b);
        }
    }

    /// `predict` is a row argmax of the logits: the reference must agree
    /// except where two classes tie within the logit tolerance.
    #[test]
    fn predictions_agree(dims in arch(), seed in 0u64..500) {
        let fast = FastMlp::new(&dims, &mut StdRng::seed_from_u64(seed));
        let reference = Reference::of(&fast);
        let (n_out, batch) = (*dims.last().unwrap(), 3);
        let x: Vec<f32> = (0..batch * dims[0]).map(|i| (i as f32 * 0.17).sin()).collect();
        let logits = reference.logits(&x, batch);
        for (s, &pick) in fast.predict(&x, batch).iter().enumerate() {
            let row = &logits[s * n_out..(s + 1) * n_out];
            let best = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(best - row[pick] < 1e-4, "row {}: picked {} of {:?}", s, pick, row);
        }
    }
}

/// The reference's own check: its gradient is the slope of its loss, by
/// central differences in f64, on tiny networks.
#[test]
fn reference_gradient_matches_central_differences() {
    for (dims, seed) in [(vec![3usize, 4, 2], 1u64), (vec![2, 3, 2, 2], 4)] {
        let mut reference = Reference::of(&FastMlp::new(&dims, &mut StdRng::seed_from_u64(seed)));
        // Nonzero biases, so their slopes are exercised off the origin.
        for (k, p) in reference.params.iter_mut().enumerate() {
            *p += 0.03 * (((k * 13) % 7) as f64 - 3.0);
        }
        let batch = 3;
        let x: Vec<f32> = (0..batch * dims[0])
            .map(|i| ((i as f32) * 0.83 + 0.2).sin())
            .collect();
        let labels = [0usize, 1, 1];
        let (_, grad) = reference.loss_and_gradient(&x, batch, &labels);
        let h = 1e-6;
        for (k, &expected) in grad.iter().enumerate() {
            let original = reference.params[k];
            reference.params[k] = original + h;
            let up = reference.loss_and_gradient(&x, batch, &labels).0;
            reference.params[k] = original - h;
            let down = reference.loss_and_gradient(&x, batch, &labels).0;
            reference.params[k] = original;
            let slope = (up - down) / (2.0 * h);
            assert!(
                (slope - expected).abs() < 1e-6 * (1.0 + slope.abs()),
                "{dims:?} param {k}: slope {slope} vs gradient {expected}"
            );
        }
    }
}

/// `FastMlp::zeroed` is `FastMlp::new`'s shape with no draw: once both
/// load the same parameters they are the same model.
#[test]
fn zeroed_model_has_the_drawn_models_shape() {
    let dims = [7, 5, 3];
    let drawn = FastMlp::new(&dims, &mut StdRng::seed_from_u64(3));
    let mut zeroed = FastMlp::zeroed(&dims);
    assert_eq!(zeroed.dims(), drawn.dims());
    assert_eq!(zeroed.num_params(), drawn.num_params());
    assert!(zeroed.params_flat().iter().all(|p| p.to_bits() == 0));
    zeroed.set_params(&drawn.params_flat());
    assert_eq!(zeroed, drawn);
}

/// `FastMlp::new`'s draw order and bounds, pinned bit for bit: every
/// initial broadcast — and so every parameter fingerprint the trainer,
/// the wire tests and the deployment binaries print — depends on it.
#[test]
fn initial_parameters_are_pinned() {
    let params = FastMlp::new(&[3, 4, 2], &mut StdRng::seed_from_u64(7)).params_flat();
    let bits: Vec<u32> = params.iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        bits,
        [
            0xbe6cbf00, 0x3e8ad7b4, 0x3da8f694, 0x3f6f5009, 0x3fb02a38, 0x3eda20c5, 0x3f091f0b,
            0x3ea069d7, 0x3dacc50e, 0x3faba919, 0x3e5c50d3, 0x3f9665d4, 0, 0, 0, 0, 0x3f5f8d7d,
            0x3bb3df68, 0x3f3ed0be, 0x3ecda757, 0x3f9b119d, 0xbf34c0b8, 0xbe03ebc2, 0x3f180090, 0,
            0,
        ]
    );

    let fingerprint = |dims: &[usize], seed: u64| {
        let params = FastMlp::new(dims, &mut StdRng::seed_from_u64(seed)).params_flat();
        params.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, p| {
            (acc ^ u64::from(p.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let pinned: [(&[usize], u64, u64); 8] = [
        (&[3, 4, 2], 0, 0x968c_d376_400e_8ecd),
        (&[5, 8, 3], 1, 0x3287_e2fc_e050_c076),
        (&[4, 6, 6, 3], 999, 0x2aa3_01b5_593d_c4c9),
        (&[2, 3, 2, 2, 2], 0, 0x21fc_4641_fa76_e3e1),
        // The figures' model and the wire workloads' model.
        (&[144, 64, 10], 0, 0xef5d_9a46_abdd_b4a3),
        (&[144, 64, 10], 999, 0xb265_06df_89ab_c11d),
        (&[1024, 256, 10], 0, 0x979e_8207_1a8a_f047),
        (&[1024, 256, 10], 1, 0xa69d_3ca3_ecd9_df7e),
    ];
    for (dims, seed, expected) in pinned {
        assert_eq!(fingerprint(dims, seed), expected, "{dims:?} seed {seed}");
    }
}
