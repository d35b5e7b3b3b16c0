//! Auror (Shen et al. 2016): per-coordinate 2-means filtering.

use crate::{check_dims, AggregationError, Aggregator};

/// Auror: for each coordinate, cluster the values into two groups with
/// 1-D 2-means; if the cluster centres are farther apart than
/// `threshold`, discard the smaller cluster and average the larger one,
/// otherwise average everything.
#[derive(Debug, Clone, Copy)]
pub struct Auror {
    /// Distance between cluster centres beyond which the minority cluster
    /// is treated as adversarial.
    pub threshold: f32,
    /// Maximum Lloyd iterations per coordinate.
    pub max_iters: usize,
}

impl Default for Auror {
    fn default() -> Self {
        Auror {
            threshold: 1.0,
            max_iters: 20,
        }
    }
}

impl Aggregator for Auror {
    fn name(&self) -> &'static str {
        "auror"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let n = gradients.len();
        let mut out = vec![0.0f32; d];
        let mut column = vec![0.0f32; n];
        for j in 0..d {
            for (c, g) in column.iter_mut().zip(gradients) {
                *c = g[j];
            }
            out[j] = self.filter_column(&mut column);
        }
        Ok(out)
    }
}

impl Auror {
    /// Runs 1-D 2-means on the column and returns the robust average.
    fn filter_column(&self, column: &mut [f32]) -> f32 {
        let n = column.len();
        if n == 1 {
            return column[0];
        }
        column.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // Initialize centres at the extremes (sorted 1-D k-means: clusters
        // are contiguous, so we just search the best split).
        let mut c0 = column[0];
        let mut c1 = column[n - 1];
        let mut split = n / 2; // first index of cluster 1
        for _ in 0..self.max_iters {
            let new_split = column
                .iter()
                .position(|&x| (x - c1).abs() < (x - c0).abs())
                .unwrap_or(n);
            let s = new_split.clamp(1, n.max(2) - 1);
            let m0 = column[..s].iter().sum::<f32>() / s as f32;
            let m1 = if s < n {
                column[s..].iter().sum::<f32>() / (n - s) as f32
            } else {
                m0
            };
            if s == split && (m0 - c0).abs() < 1e-12 && (m1 - c1).abs() < 1e-12 {
                break;
            }
            split = s;
            c0 = m0;
            c1 = m1;
        }
        let lower = &column[..split];
        let upper = &column[split..];
        if (c1 - c0).abs() > self.threshold && !lower.is_empty() && !upper.is_empty() {
            // Keep the larger cluster.
            let keep = if lower.len() >= upper.len() {
                lower
            } else {
                upper
            };
            keep.iter().sum::<f32>() / keep.len() as f32
        } else {
            column.iter().sum::<f32>() / n as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discards_far_minority_cluster() {
        let grads = vec![vec![1.0], vec![1.1], vec![0.9], vec![100.0], vec![101.0]];
        let out = Auror::default().aggregate(&grads).unwrap();
        assert!((out[0] - 1.0).abs() < 0.2, "got {out:?}");
    }

    #[test]
    fn keeps_everything_when_clusters_are_close() {
        let grads = vec![vec![1.0], vec![1.2], vec![0.8], vec![1.1]];
        let out = Auror::default().aggregate(&grads).unwrap();
        let mean = (1.0 + 1.2 + 0.8 + 1.1) / 4.0;
        assert!((out[0] - mean).abs() < 1e-5);
    }

    #[test]
    fn single_gradient_is_identity() {
        let out = Auror::default().aggregate(&[vec![7.0, -3.0]]).unwrap();
        assert_eq!(out, vec![7.0, -3.0]);
    }

    #[test]
    fn per_coordinate_independence() {
        // Outliers in coordinate 0 only; coordinate 1 is clean.
        let grads = vec![
            vec![0.0, 5.0],
            vec![0.1, 5.1],
            vec![0.2, 4.9],
            vec![50.0, 5.0],
        ];
        let out = Auror::default().aggregate(&grads).unwrap();
        assert!(out[0] < 1.0, "outlier leaked: {out:?}");
        assert!((out[1] - 5.0).abs() < 0.2);
    }
}
