//! Evaluation metrics and gradient statistics.

use byz_data::Dataset;
use byz_nn::FastMlp;

/// Top-1 accuracy of `model` over the first `max_samples` samples of
/// `dataset`, evaluated in mini-batches.
pub fn evaluate_accuracy(model: &FastMlp, dataset: &Dataset, max_samples: usize) -> f64 {
    let n = dataset.len().min(max_samples);
    if n == 0 {
        return 0.0;
    }
    let correct: usize = (0..n)
        .step_by(256)
        .map(|start| {
            let indices: Vec<usize> = (start..n.min(start + 256)).collect();
            let (x, labels) = dataset.gather(&indices);
            let preds = model.predict(&x, indices.len());
            preds.iter().zip(&labels).filter(|(p, l)| p == l).count()
        })
        .sum();
    correct as f64 / n as f64
}

/// `true` when two gradient vectors differ in length or in any bit.
///
/// The fault path's *measured* distortion accounting relies on exact
/// equality: honest replicas are bit-identical by construction, so a vote
/// winner is corrupted iff it differs bitwise from the true file
/// gradient. Comparing bit patterns (rather than `==`) keeps NaN payloads
/// from silently comparing unequal to themselves — the vote's own
/// predicate, so "distorted" and "outvoted" can never disagree.
pub fn gradients_differ(a: &[f32], b: &[f32]) -> bool {
    !byz_aggregate::bits_eq(a, b)
}

/// Per-dimension mean and standard deviation across a set of gradients —
/// the moment estimates the colluding ALIE attackers compute
/// (Baruch et al. 2019).
#[derive(Debug, Clone)]
pub struct GradientMoments {
    /// Per-dimension mean.
    pub mean: Vec<f32>,
    /// Per-dimension standard deviation (population).
    pub std: Vec<f32>,
}

impl GradientMoments {
    /// Computes the moments of the given gradient set.
    ///
    /// # Panics
    ///
    /// Panics on empty input or ragged dimensions.
    pub fn compute(gradients: &[&[f32]]) -> Self {
        assert!(!gradients.is_empty(), "need at least one gradient");
        let d = gradients[0].len();
        let n = gradients.len() as f32;
        let mut mean = vec![0.0f32; d];
        for g in gradients {
            assert_eq!(g.len(), d, "ragged gradients");
            for (m, x) in mean.iter_mut().zip(*g) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0f32; d];
        for g in gradients {
            for ((s, x), m) in std.iter_mut().zip(*g).zip(&mean) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
        }
        GradientMoments { mean, std }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_set() {
        let a = [1.0f32, 0.0];
        let b = [3.0f32, 0.0];
        let m = GradientMoments::compute(&[&a, &b]);
        assert_eq!(m.mean, vec![2.0, 0.0]);
        assert_eq!(m.std, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one gradient")]
    fn moments_reject_empty() {
        GradientMoments::compute(&[]);
    }

    #[test]
    fn gradient_difference_is_bitwise() {
        assert!(!gradients_differ(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(gradients_differ(
            &[1.0, 2.0],
            &[1.0, 2.0 + f32::EPSILON * 2.0]
        ));
        assert!(gradients_differ(&[1.0], &[1.0, 2.0]));
        // NaN payloads with identical bits count as equal.
        assert!(!gradients_differ(&[f32::NAN], &[f32::NAN]));
        // +0.0 and -0.0 compare equal as floats but differ bitwise.
        assert!(gradients_differ(&[0.0], &[-0.0]));
    }
}
