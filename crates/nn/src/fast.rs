//! A hand-differentiated MLP with no interior mutability.
//!
//! [`FastMlp`] is the one model in the workspace: the in-process
//! `byzshield::Trainer` (every paper figure), the message-passing and
//! socket workers and the deployed `byzshield-worker` all compute their
//! per-file gradients with [`FastMlp::gradient_sum`]. The backward pass
//! is written out by hand over plain `Vec<f32>` buffers, so the model is
//! `Send + Sync` and a worker thread owns its copy outright.
//! `tests/fast_mlp_reference.rs` checks it against an independent f64
//! scalar-loop reference, itself checked by central differences.

use byz_kernel::{matmul, matmul_transa, matmul_transb};
use rand::Rng;

/// Broadcasts the bias row into every row of `out` (`batch × n_out`),
/// making `out` ready for an accumulating matmul.
fn broadcast_bias(out: &mut [f32], bias: &[f32], batch: usize) {
    let n_out = bias.len();
    for s in 0..batch {
        out[s * n_out..(s + 1) * n_out].copy_from_slice(bias);
    }
}

/// A ReLU MLP with explicit forward/backward passes.
///
/// Parameter layout (the flat vector the parameter server broadcasts,
/// aggregates and updates): for each layer `i`, the weight matrix
/// `[dims[i] × dims[i+1]]` row-major, followed by the bias `[dims[i+1]]`.
///
/// Each layer's forward pass writes the bias into the output rows and
/// then accumulates `x·W` onto it with the blocked GEMM, which adds one
/// `KC` = 256-deep partial dot product to the output at a time. Up to
/// 256 inputs per layer the bias is therefore added once, to the
/// finished dot product — bit-for-bit what a matmul-then-add-bias
/// forward computes; on wider layers the bias joins the first partial
/// sum before the second is added, and the two orders may differ in the
/// last bit. (The trainer's results matched the autograd MLP this model
/// replaced bit for bit because every trainer geometry in the repository
/// has at most 256 inputs per layer.)
#[derive(Debug, Clone, PartialEq)]
pub struct FastMlp {
    dims: Vec<usize>,
    /// One flat buffer per layer: weights then bias, per the layout above.
    layers: Vec<(Vec<f32>, Vec<f32>)>,
}

impl FastMlp {
    /// Builds with Kaiming-uniform init from the given RNG: per layer,
    /// `fan_in · fan_out` weights drawn row-major from
    /// `U(−√(6/fan_in), √(6/fan_in))`, biases zero. Every parameter
    /// fingerprint in the repository depends on this draw order.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let mut model = Self::zeroed(dims);
        for (pair, (w, _)) in dims.windows(2).zip(&mut model.layers) {
            let bound = (6.0 / pair[0] as f32).sqrt();
            w.iter_mut().for_each(|x| *x = rng.gen_range(-bound..bound));
        }
        model
    }

    /// Builds the shape alone, every parameter zero: for a replica whose
    /// parameters arrive before it computes anything (a wire worker's
    /// model, which every broadcast overwrites).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn zeroed(dims: &[usize]) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .map(|pair| (vec![0.0; pair[0] * pair[1]], vec![0.0; pair[1]]))
            .collect();
        FastMlp {
            dims: dims.to_vec(),
            layers,
        }
    }

    /// The layer widths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|(w, b)| w.len() + b.len()).sum()
    }

    /// Serializes all parameters into one flat vector (weights-then-bias
    /// per layer — the wire layout).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for (w, b) in &self.layers {
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Loads parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "parameter length mismatch");
        let mut offset = 0;
        for (w, b) in &mut self.layers {
            let (wn, bn) = (w.len(), b.len());
            w.copy_from_slice(&flat[offset..offset + wn]);
            offset += wn;
            b.copy_from_slice(&flat[offset..offset + bn]);
            offset += bn;
        }
    }

    /// Loads parameters from their little-endian bytes — the layout of
    /// [`params_flat`](Self::params_flat) on the wire — with one copy
    /// into the layers and no staging vector. Bit-identical to
    /// [`set_params`](Self::set_params) of the decoded floats.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` holds exactly `4 · num_params()` bytes.
    pub fn set_params_le(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            4 * self.num_params(),
            "parameter length mismatch"
        );
        let mut rest = bytes;
        for (w, b) in &mut self.layers {
            for dst in [w, b] {
                let (src, tail) = rest.split_at(4 * dst.len());
                // One straight loop per run (a chained iterator would
                // branch per element and not vectorize).
                for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
                    *d = f32::from_le_bytes(s.try_into().expect("4-byte word"));
                }
                rest = tail;
            }
        }
    }

    /// Forward pass: logits for a batch `x` of shape `[batch, dims[0]]`
    /// (flat row-major).
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` is not a multiple of the input width.
    pub fn logits(&self, x: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(x.len(), batch * self.dims[0], "input shape mismatch");
        let mut act = x.to_vec();
        for (li, (w, b)) in self.layers.iter().enumerate() {
            let (n_in, n_out) = (self.dims[li], self.dims[li + 1]);
            let mut next = vec![0.0f32; batch * n_out];
            broadcast_bias(&mut next, b, batch);
            matmul(&act, w, &mut next, batch, n_in, n_out);
            // ReLU between layers, raw logits at the output.
            if li + 2 < self.dims.len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            act = next;
        }
        act
    }

    /// Row-wise argmax over the logits (predictions).
    pub fn predict(&self, x: &[f32], batch: usize) -> Vec<usize> {
        let n_out = *self.dims.last().expect("nonempty dims");
        let logits = self.logits(x, batch);
        (0..batch)
            .map(|s| {
                let row = &logits[s * n_out..(s + 1) * n_out];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .expect("nonempty row")
            })
            .collect()
    }

    /// Combined forward/backward pass for the summed cross-entropy loss
    /// over the batch: returns `(loss_sum, flat_gradient)`.
    ///
    /// With one file's samples this is paper Algorithm 1, line 7:
    /// `g_{t,i} = Σ_{j ∈ B_{t,i}} ∇l_j(w_t)` — the *sum* over the file,
    /// not the mean (the parameter server scales the aggregate by `f/b`);
    /// `loss_sum / batch` is the mean cross-entropy. The gradient layout
    /// matches [`FastMlp::params_flat`].
    ///
    /// Honest workers assigned the same file call this with identical
    /// inputs, and the computation is deterministic — at any
    /// `BYZ_KERNEL_THREADS` — so their returned gradients are
    /// bit-identical: the exact-equality property the majority vote
    /// relies on (paper Section 2). The in-process trainer therefore
    /// computes each file's gradient once per iteration and shares it
    /// among that file's honest replicas, which is indistinguishable from
    /// `r` independent honest computations.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or out-of-range labels.
    pub fn gradient_sum(&self, x: &[f32], batch: usize, labels: &[usize]) -> (f32, Vec<f32>) {
        let mut flat = vec![0.0f32; self.num_params()];
        let loss = self.gradient_sum_into(x, batch, labels, &mut flat);
        (loss, flat)
    }

    /// [`gradient_sum`](Self::gradient_sum), writing the gradient into
    /// `out` (overwritten, whatever it held) and returning the loss: each
    /// layer's `dW` and `db` are computed directly in their slice of the
    /// flat layout, so a caller that owns the destination — a slot of an
    /// outgoing frame — never holds a second copy.
    ///
    /// # Panics
    ///
    /// As [`gradient_sum`](Self::gradient_sum), and if `out` is not
    /// [`num_params`](Self::num_params) long.
    pub fn gradient_sum_into(
        &self,
        x: &[f32],
        batch: usize,
        labels: &[usize],
        out: &mut [f32],
    ) -> f32 {
        assert_eq!(labels.len(), batch, "one label per sample");
        assert_eq!(out.len(), self.num_params(), "gradient length mismatch");
        let num_layers = self.layers.len();

        // Forward, keeping every post-activation (`acts[li]` is layer
        // `li`'s output; its input is `x` or `acts[li - 1]`).
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(num_layers);
        for (li, (w, b)) in self.layers.iter().enumerate() {
            let (n_in, n_out) = (self.dims[li], self.dims[li + 1]);
            let prev = if li == 0 { x } else { &acts[li - 1] };
            let mut next = vec![0.0f32; batch * n_out];
            broadcast_bias(&mut next, b, batch);
            matmul(prev, w, &mut next, batch, n_in, n_out);
            if li + 1 < num_layers {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            acts.push(next);
        }

        // Softmax + cross-entropy at the top; delta = softmax − one_hot.
        let n_out = *self.dims.last().expect("nonempty dims");
        let logits = acts.last().expect("forward ran");
        let mut loss = 0.0f32;
        let mut delta = vec![0.0f32; batch * n_out];
        for s in 0..batch {
            let row = &logits[s * n_out..(s + 1) * n_out];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let sum_exp: f32 = row.iter().map(|v| (v - max).exp()).sum();
            let log_sum = sum_exp.ln() + max;
            let label = labels[s];
            assert!(label < n_out, "label {label} out of range");
            loss += log_sum - row[label];
            let d_row = &mut delta[s * n_out..(s + 1) * n_out];
            for (j, dv) in d_row.iter_mut().enumerate() {
                *dv = (row[j] - log_sum).exp();
            }
            d_row[label] -= 1.0;
        }

        // Backward through the layers, last first, peeling each layer's
        // `[dW | db]` off the end of the flat layout.
        out.fill(0.0);
        let mut rest = out;
        let mut d_out = delta;
        for li in (0..num_layers).rev() {
            let (n_in, n_out) = (self.dims[li], self.dims[li + 1]);
            let prev = if li == 0 { x } else { &acts[li - 1] };
            let (head, layer) = rest.split_at_mut(rest.len() - (n_in + 1) * n_out);
            rest = head;
            let (gw, gb) = layer.split_at_mut(n_in * n_out);
            // dW = prevᵀ · d_out (fused transpose — prevᵀ is never
            // materialized); db = Σ_s d_out.
            matmul_transa(prev, &d_out, gw, batch, n_in, n_out);
            for s in 0..batch {
                let d_row = &d_out[s * n_out..(s + 1) * n_out];
                for (gbv, &dv) in gb.iter_mut().zip(d_row) {
                    *gbv += dv;
                }
            }
            if li > 0 {
                // d_prev = d_out · Wᵀ (fused transpose), then the ReLU
                // mask: gradient flows only where the activation was
                // positive. Written as a select, not a conditional store:
                // about half the activations are zero in no pattern, and
                // the mispredicted branch cost more than the GEMM above.
                let w = &self.layers[li].0;
                let mut d_prev = vec![0.0f32; batch * n_in];
                matmul_transb(&d_out, w, &mut d_prev, batch, n_out, n_in);
                for (dp, &pv) in d_prev.iter_mut().zip(prev) {
                    *dp = if pv <= 0.0 { 0.0 } else { *dp };
                }
                d_out = d_prev;
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepDecaySchedule;
    use byz_kernel::sgd_momentum_step;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic `batch × n_in` input and its labels.
    fn batch_of(n_in: usize, n_out: usize, batch: usize) -> (Vec<f32>, Vec<usize>) {
        let x = (0..batch * n_in)
            .map(|i| ((i * 7) % 11) as f32 * 0.2 - 1.0)
            .collect();
        (x, (0..batch).map(|s| (s * 2 + 1) % n_out).collect())
    }

    #[test]
    fn layout_is_weights_then_bias_in_draw_order() {
        // Per layer, `fan_in · fan_out` weights drawn row-major within the
        // Kaiming bound, then a zero bias: the flat wire layout.
        let fast = FastMlp::new(&[6, 4, 3], &mut StdRng::seed_from_u64(3));
        assert_eq!(fast.num_params(), 6 * 4 + 4 + 4 * 3 + 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut expected = Vec::new();
        for (fan_in, fan_out) in [(6usize, 4usize), (4, 3)] {
            let bound = (6.0 / fan_in as f32).sqrt();
            expected.extend((0..fan_in * fan_out).map(|_| rng.gen_range(-bound..bound)));
            expected.resize(expected.len() + fan_out, 0.0);
        }
        assert_eq!(fast.params_flat(), expected);
    }

    #[test]
    fn logits_match_a_hand_computed_forward() {
        // W1 = [[1, -1], [2, 0.5]] (input-major), b1 = [0.5, -1];
        // W2 = [[1, 2], [-1, 3]], b2 = [0.25, -0.5]. Sample 0's second
        // hidden unit is negative before the ReLU; every value is exact.
        let mut m = FastMlp::new(&[2, 2, 2], &mut StdRng::seed_from_u64(0));
        m.set_params(&[
            1.0, -1.0, 2.0, 0.5, 0.5, -1.0, 1.0, 2.0, -1.0, 3.0, 0.25, -0.5,
        ]);
        let x = [1.0f32, 2.0, -1.0, 0.5];
        // Sample 0: h = relu([5.5, -1]) = [5.5, 0]; sample 1: h = [0.5, 0.25].
        assert_eq!(m.logits(&x, 2), vec![5.75, 10.5, 0.5, 1.25]);
        assert_eq!(m.predict(&x, 2), vec![1, 1]);
    }

    #[test]
    fn gradient_matches_central_differences() {
        let mut model = FastMlp::new(&[6, 5, 3], &mut StdRng::seed_from_u64(5));
        let x: Vec<f32> = (0..18).map(|i| ((i * 7) % 11) as f32 * 0.2 - 1.0).collect();
        let labels = [2usize, 0, 1];
        let (_, grad) = model.gradient_sum(&x, 3, &labels);
        let params = model.params_flat();
        let eps = 1e-3f32;
        for i in 0..params.len() {
            let mut shifted = params.clone();
            shifted[i] = params[i] + eps;
            model.set_params(&shifted);
            let up = model.gradient_sum(&x, 3, &labels).0;
            shifted[i] = params[i] - eps;
            model.set_params(&shifted);
            let down = model.gradient_sum(&x, 3, &labels).0;
            let numeric = (f64::from(up) - f64::from(down)) / (2.0 * f64::from(eps));
            let analytic = f64::from(grad[i]);
            assert!(
                (numeric - analytic).abs() < 5e-3,
                "grad[{i}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn mlp_learns_a_separable_task() {
        // Two clusters in 2-D, separated within a few momentum-SGD steps
        // on the mean loss: the trainer's update rule.
        let mut m = FastMlp::new(&[2, 8, 2], &mut StdRng::seed_from_u64(42));
        let schedule = StepDecaySchedule::new(0.5, 1.0, 1000);
        let x = [1.0f32, 1.0, 1.2, 0.8, -1.0, -1.0, -0.8, -1.2];
        let labels = [0usize, 0, 1, 1];
        let mut params = m.params_flat();
        let mut velocity = vec![0.0f32; params.len()];
        let mut last = f32::INFINITY;
        for t in 0..60 {
            let (loss_sum, grad) = m.gradient_sum(&x, 4, &labels);
            last = loss_sum / 4.0;
            let lr = schedule.rate_at(t) as f32;
            sgd_momentum_step(&mut params, &mut velocity, &grad, 0.25, lr, 0.9);
            m.set_params(&params);
        }
        assert!(last < 0.1, "loss did not drop: {last}");
        assert_eq!(m.predict(&x, 4), vec![0, 0, 1, 1]);
    }

    #[test]
    fn gradient_sum_into_overwrites_and_matches_bitwise() {
        // Batches either side of the kernel's skinny/blocked shape rule,
        // on the wire workloads' model and a ragged toy one; `out` starts
        // dirty (NaN would poison any `+=` that forgot to clear it).
        for dims in [vec![1024usize, 256, 10], vec![7, 5, 3]] {
            let mut rng = StdRng::seed_from_u64(13);
            let model = FastMlp::new(&dims, &mut rng);
            for batch in [1usize, 2, 4, 5, 8, 64] {
                let x: Vec<f32> = (0..batch * dims[0])
                    .map(|i| ((i * 31) % 17) as f32 / 17.0 - 0.4)
                    .collect();
                let labels: Vec<usize> = (0..batch).map(|s| s % dims[2]).collect();
                let (loss, grad) = model.gradient_sum(&x, batch, &labels);
                let mut out = vec![f32::NAN; model.num_params()];
                let loss_into = model.gradient_sum_into(&x, batch, &labels, &mut out);
                assert_eq!(loss_into.to_bits(), loss.to_bits());
                let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&grad), "dims {dims:?} batch {batch}");
                assert!(grad.iter().any(|g| *g != 0.0));
            }
        }
    }

    #[test]
    fn gradient_is_deterministic() {
        let model = FastMlp::new(&[16, 8, 3], &mut StdRng::seed_from_u64(0));
        let (x, labels) = batch_of(16, 3, 3);
        let (l1, g1) = model.gradient_sum(&x, 3, &labels);
        let (l2, g2) = model.gradient_sum(&x, 3, &labels);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g1, g2, "honest replicas must agree bit-exactly");
        assert_eq!(g1.len(), model.num_params());
    }

    #[test]
    fn file_gradients_sum_to_batch_gradient() {
        // Σ over files of the file gradients equals the whole-batch summed
        // gradient (the linearity Algorithm 1 exploits).
        let model = FastMlp::new(&[16, 8, 3], &mut StdRng::seed_from_u64(0));
        let (x, labels) = batch_of(16, 3, 4);
        let (_, whole) = model.gradient_sum(&x, 4, &labels);
        let (_, g01) = model.gradient_sum(&x[..32], 2, &labels[..2]);
        let (_, g23) = model.gradient_sum(&x[32..], 2, &labels[2..]);
        for i in 0..whole.len() {
            assert!(
                (whole[i] - (g01[i] + g23[i])).abs() < 1e-3,
                "linearity violated at {i}: {} vs {}",
                whole[i],
                g01[i] + g23[i]
            );
        }
    }

    #[test]
    fn gradient_depends_on_params() {
        let mut model = FastMlp::new(&[16, 8, 3], &mut StdRng::seed_from_u64(0));
        let (x, labels) = batch_of(16, 3, 2);
        let before = model.gradient_sum(&x, 2, &labels).1;
        let mut params = model.params_flat();
        params[0] += 1.0;
        model.set_params(&params);
        assert_ne!(before, model.gradient_sum(&x, 2, &labels).1);
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let model = FastMlp::new(&[16, 8, 3], &mut StdRng::seed_from_u64(0));
        let (x, labels) = batch_of(16, 3, 5);
        let loss = model.gradient_sum(&x, 5, &labels).0;
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn set_params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = FastMlp::new(&[4, 3, 2], &mut rng);
        let flat: Vec<f32> = (0..m.num_params()).map(|i| i as f32 * 0.1).collect();
        m.set_params(&flat);
        assert_eq!(m.params_flat(), flat);
    }

    #[test]
    fn set_params_le_loads_the_same_bits() {
        // NaN payloads, signed zeros and denormals load as their exact
        // bits, as they do through `set_params`.
        let mut m = FastMlp::new(&[4, 3, 2], &mut StdRng::seed_from_u64(1));
        let bits: Vec<u32> = (0..m.num_params() as u32)
            .map(|i| match i % 4 {
                0 => 0x7fc0_0000 | i,
                1 => 0x8000_0000,
                2 => i,
                _ => (i as f32 * -0.3).to_bits(),
            })
            .collect();
        let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        m.set_params_le(&bytes);
        let loaded: Vec<u32> = m.params_flat().iter().map(|p| p.to_bits()).collect();
        assert_eq!(loaded, bits);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_params_le_refuses_a_short_vector() {
        let mut m = FastMlp::new(&[4, 3, 2], &mut StdRng::seed_from_u64(1));
        m.set_params_le(&vec![0u8; 4 * m.num_params() - 4]);
    }

    #[test]
    fn is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FastMlp>();
    }

    #[test]
    fn predicts_separable_data_after_manual_sgd() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = FastMlp::new(&[2, 8, 2], &mut rng);
        let x = [1.0f32, 1.0, 1.2, 0.8, -1.0, -1.0, -0.8, -1.2];
        let labels = [0usize, 0, 1, 1];
        for _ in 0..200 {
            let (_, grad) = m.gradient_sum(&x, 4, &labels);
            let mut params = m.params_flat();
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= 0.05 * g;
            }
            m.set_params(&params);
        }
        assert_eq!(m.predict(&x, 4), vec![0, 0, 1, 1]);
    }
}
