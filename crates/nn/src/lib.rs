//! The model every ByzShield worker trains, and its learning-rate
//! schedule.
//!
//! This crate stands in for the paper's PyTorch + ResNet-18 stack:
//!
//! * [`FastMlp`] — a ReLU MLP with a hand-written backward pass over flat
//!   `Vec<f32>` buffers. Its flat parameter vector is the wire format the
//!   parameter server broadcasts, aggregates and updates, and
//!   [`FastMlp::gradient_sum`] is the per-file gradient of paper
//!   Algorithm 1, line 7 — for the in-process trainer and the deployed
//!   workers alike;
//! * [`StepDecaySchedule`] — the paper's step-decay learning rate
//!   (Appendix A.6 notation `(x, y, z)`: start at `x`, multiply by `y`
//!   every `z` iterations).
//!
//! # Example
//!
//! ```
//! use byz_nn::{FastMlp, StepDecaySchedule};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut model = FastMlp::new(&[4, 8, 3], &mut StdRng::seed_from_u64(0));
//! let schedule = StepDecaySchedule::new(0.1, 0.95, 20);
//!
//! // One plain SGD step on the summed loss of a two-sample batch.
//! let x = [0.1f32; 8];
//! let (loss, gradient) = model.gradient_sum(&x, 2, &[0, 2]);
//! let lr = schedule.rate_at(0) as f32;
//! let mut params = model.params_flat();
//! for (p, g) in params.iter_mut().zip(&gradient) {
//!     *p -= lr * g;
//! }
//! model.set_params(&params);
//! assert!(model.gradient_sum(&x, 2, &[0, 2]).0 < loss);
//! ```

mod fast;
mod optim;

pub use fast::FastMlp;
pub use optim::StepDecaySchedule;
