//! Property tests: the hand-differentiated [`FastMlp`] agrees with the
//! autograd [`Mlp`] on random architectures, inputs and parameters.

use byz_nn::{flatten_params, grad_vector, load_params, zero_grads, FastMlp, Mlp, Module};
use byz_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        let mut rng = StdRng::seed_from_u64(seed);
        let fast = FastMlp::new(&dims, &mut rng);
        let auto = Mlp::new(&dims, &mut StdRng::seed_from_u64(0));
        load_params(&auto.parameters(), &fast.params_flat());

        let n_in = dims[0];
        let x: Vec<f32> = (0..batch * n_in)
            .map(|i| ((i as f32) * 0.37 + seed as f32 * 0.01).sin())
            .collect();
        let fast_logits = fast.logits(&x, batch);
        let auto_logits = auto
            .forward(&Tensor::from_vec(vec![batch, n_in], x))
            .to_vec();
        for (a, b) in fast_logits.iter().zip(&auto_logits) {
            prop_assert!((a - b).abs() < 1e-4, "logit {} vs {}", a, b);
        }
    }

    #[test]
    fn gradients_agree(dims in arch(), seed in 0u64..1000, batch in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fast = FastMlp::new(&dims, &mut rng);
        let auto = Mlp::new(&dims, &mut StdRng::seed_from_u64(0));
        load_params(&auto.parameters(), &fast.params_flat());

        let n_in = dims[0];
        let n_out = *dims.last().unwrap();
        let x: Vec<f32> = (0..batch * n_in)
            .map(|i| ((i as f32) * 0.61 - seed as f32 * 0.003).cos())
            .collect();
        let labels: Vec<usize> = (0..batch).map(|s| (s + seed as usize) % n_out).collect();

        let (fast_loss, fast_grad) = fast.gradient_sum(&x, batch, &labels);

        let tensors = auto.parameters();
        zero_grads(&tensors);
        let loss = auto
            .forward(&Tensor::from_vec(vec![batch, n_in], x))
            .cross_entropy(&labels)
            .scale(batch as f32);
        loss.backward();
        let auto_grad = grad_vector(&tensors);

        prop_assert!((fast_loss - loss.item()).abs() < 1e-3);
        for (i, (a, b)) in fast_grad.iter().zip(&auto_grad).enumerate() {
            prop_assert!((a - b).abs() < 1e-3, "grad[{}]: {} vs {}", i, a, b);
        }
    }

    /// Both stacks draw their initial weights in the same order from the
    /// same bound, so either can seed a job (`byz-psd` uses `FastMlp`):
    /// bit equality, not a tolerance — parameter fingerprints depend on it.
    #[test]
    fn initial_parameters_are_bit_identical(dims in arch(), seed in 0u64..1000) {
        let fast = FastMlp::new(&dims, &mut StdRng::seed_from_u64(seed)).params_flat();
        let auto = Mlp::new(&dims, &mut StdRng::seed_from_u64(seed));
        let auto = flatten_params(&auto.parameters());
        let bits = |params: &[f32]| params.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&fast), bits(&auto));
    }

    #[test]
    fn predictions_agree(dims in arch(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fast = FastMlp::new(&dims, &mut rng);
        let auto = Mlp::new(&dims, &mut StdRng::seed_from_u64(0));
        load_params(&auto.parameters(), &fast.params_flat());
        let n_in = dims[0];
        let batch = 3;
        let x: Vec<f32> = (0..batch * n_in).map(|i| (i as f32 * 0.17).sin()).collect();
        let fast_pred = fast.predict(&x, batch);
        let auto_pred = auto
            .forward(&Tensor::from_vec(vec![batch, n_in], x))
            .argmax_rows();
        prop_assert_eq!(fast_pred, auto_pred);
    }
}
