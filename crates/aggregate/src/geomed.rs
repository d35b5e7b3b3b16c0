//! Geometric median via the Weiszfeld algorithm (Minsker 2015,
//! Chen et al. 2017).

use crate::{check_dims, AggregationError, Aggregator, Mean};

/// Geometric median: the point minimizing the sum of Euclidean distances
/// to the input gradients, approximated by Weiszfeld fixed-point
/// iteration with ε-regularized weights.
#[derive(Debug, Clone, Copy)]
pub struct GeometricMedian {
    /// Maximum Weiszfeld iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the iterate displacement.
    pub tolerance: f64,
}

impl Default for GeometricMedian {
    fn default() -> Self {
        GeometricMedian {
            max_iters: 100,
            tolerance: 1e-7,
        }
    }
}

impl Aggregator for GeometricMedian {
    fn name(&self) -> &'static str {
        "geometric-median"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        // Start from the arithmetic mean.
        let mut current: Vec<f64> = Mean
            .aggregate_slices(gradients)?
            .into_iter()
            .map(f64::from)
            .collect();

        for _ in 0..self.max_iters {
            let mut numer = vec![0.0f64; d];
            let mut denom = 0.0f64;
            for g in gradients {
                let dist = g
                    .iter()
                    .zip(&current)
                    .map(|(x, c)| (f64::from(*x) - c).powi(2))
                    .sum::<f64>()
                    .sqrt()
                    .max(1e-12);
                let w = 1.0 / dist;
                denom += w;
                for (nu, x) in numer.iter_mut().zip(g.iter()) {
                    *nu += w * f64::from(*x);
                }
            }
            let next: Vec<f64> = numer.into_iter().map(|x| x / denom).collect();
            let shift: f64 = next
                .iter()
                .zip(&current)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt();
            current = next;
            if shift < self.tolerance {
                break;
            }
        }
        Ok(current.into_iter().map(|x| x as f32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collinear_points_median() {
        // Geometric median of {0, 1, 10} on a line is the middle point 1.
        let grads = vec![vec![0.0], vec![1.0], vec![10.0]];
        let out = GeometricMedian::default().aggregate(&grads).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-3, "got {out:?}");
    }

    #[test]
    fn resists_minority_outliers() {
        let grads = vec![
            vec![1.0, 1.0],
            vec![1.1, 0.9],
            vec![0.9, 1.1],
            vec![1e6, -1e6],
        ];
        let out = GeometricMedian::default().aggregate(&grads).unwrap();
        assert!((out[0] - 1.0).abs() < 0.5, "got {out:?}");
        assert!((out[1] - 1.0).abs() < 0.5, "got {out:?}");
    }

    #[test]
    fn single_input_is_identity() {
        let out = GeometricMedian::default()
            .aggregate(&[vec![3.0, -2.0]])
            .unwrap();
        assert!((out[0] - 3.0).abs() < 1e-5);
        assert!((out[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn symmetric_square_centroid() {
        // Median of a symmetric square's corners is its centre.
        let grads = vec![
            vec![1.0, 1.0],
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
            vec![-1.0, -1.0],
        ];
        let out = GeometricMedian::default().aggregate(&grads).unwrap();
        assert!(out[0].abs() < 1e-4 && out[1].abs() < 1e-4, "got {out:?}");
    }
}
