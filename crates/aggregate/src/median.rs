//! Coordinate-wise median-family aggregators and the plain mean.
//!
//! The per-coordinate rules are embarrassingly parallel across the model
//! dimension, so they run over fixed-size coordinate chunks on the shared
//! [`byz_kernel`] thread pool: each output coordinate is computed by
//! exactly one task, which keeps the result bitwise-identical to the
//! sequential evaluation regardless of pool size.
//!
//! Order statistics avoid the seed's per-coordinate O(n log n) sort two
//! ways. The coordinate median hands each chunk's slice of every
//! gradient to [`byz_kernel::MedianNetwork`]: Batcher's sorting network
//! pruned to the comparators that reach the middle row, 16 coordinates
//! per pass on the widest vector path the CPU has, reading the
//! gradients in place. Its output equals the middle of a full sort bit
//! for bit, NaN, ±0 and ±∞ included. The trimmed mean, which only needs
//! an *unordered* middle partition, uses O(n) selection
//! ([`byz_kernel::trimmed_sum_select`], with
//! [`byz_kernel::median_select`] as the scalar median counterpart and
//! test reference).

use byz_kernel::{parallel_chunks_mut, trimmed_sum_select, with_scratch, MedianNetwork};

use crate::{check_dims, AggregationError, Aggregator};

/// Coordinates per parallel task for the per-coordinate rules. Fixed (not
/// derived from the pool size) so the chunk partition — and therefore the
/// output — depends only on the model dimension.
pub(crate) const COORD_CHUNK: usize = 4096;

/// Plain averaging — the non-robust baseline that a single Byzantine
/// worker defeats (Blanchard et al. 2017).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean;

impl Aggregator for Mean {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let n = gradients.len() as f32;
        let mut out = vec![0.0f32; d];
        for g in gradients {
            for (o, x) in out.iter_mut().zip(g.iter()) {
                *o += x;
            }
        }
        for o in &mut out {
            *o /= n;
        }
        Ok(out)
    }
}

/// Coordinate-wise median (Yin et al. 2018/2019) — ByzShield's second
/// aggregation stage after the per-file majority votes (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateMedian;

impl Aggregator for CoordinateMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let network = MedianNetwork::new(gradients.len());
        let mut out = vec![0.0f32; d];
        parallel_chunks_mut(&mut out, COORD_CHUNK, |start, piece| {
            let rows: Vec<&[f32]> = gradients
                .iter()
                .map(|g| &g[start..start + piece.len()])
                .collect();
            network.median(&rows, piece);
        });
        Ok(out)
    }
}

/// Mean-around-median a.k.a. trimmed mean (Xie et al. 2018, Yin et al.
/// 2018, El Mhamdi et al. 2018): per coordinate, average the `n − 2β`
/// values closest to the median, where `β` is the trim count per side.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    /// Number of extreme values removed from *each* side per coordinate.
    pub trim: usize,
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let n = gradients.len();
        if n <= 2 * self.trim {
            return Err(AggregationError::NotEnoughOperands {
                rule: "trimmed-mean",
                needed: 2 * self.trim + 1,
                got: n,
            });
        }
        let trim = self.trim;
        let mut out = vec![0.0f32; d];
        parallel_chunks_mut(&mut out, COORD_CHUNK, |start, piece| {
            with_scratch(n, |column| {
                for (off, o) in piece.iter_mut().enumerate() {
                    let j = start + off;
                    for (c, g) in column.iter_mut().zip(gradients) {
                        *c = g[j];
                    }
                    let (sum, kept) = trimmed_sum_select(column, trim);
                    *o = sum / kept as f32;
                }
            });
        });
        Ok(out)
    }
}

/// Median-of-means (Minsker 2015; DETOX's aggregation stage): partition
/// the gradients into `num_groups` contiguous groups, average within each
/// group, then take the coordinate-wise median of the group means.
#[derive(Debug, Clone, Copy)]
pub struct MedianOfMeans {
    /// Number of groups to average within.
    pub num_groups: usize,
}

impl Aggregator for MedianOfMeans {
    fn name(&self) -> &'static str {
        "median-of-means"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        check_dims(gradients)?;
        let n = gradients.len();
        if self.num_groups == 0 || self.num_groups > n {
            return Err(AggregationError::NotEnoughOperands {
                rule: "median-of-means",
                needed: self.num_groups.max(1),
                got: n,
            });
        }
        // Contiguous, nearly-equal groups.
        let mean = Mean;
        let base = n / self.num_groups;
        let extra = n % self.num_groups;
        let mut means = Vec::with_capacity(self.num_groups);
        let mut start = 0usize;
        for gidx in 0..self.num_groups {
            let size = base + usize::from(gidx < extra);
            means.push(mean.aggregate_slices(&gradients[start..start + size])?);
            start += size;
        }
        CoordinateMedian.aggregate(&means)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        let out = Mean.aggregate(&[vec![1.0, 0.0], vec![3.0, 2.0]]).unwrap();
        assert_eq!(out, vec![2.0, 1.0]);
    }

    #[test]
    fn median_resists_one_outlier() {
        let honest1 = vec![1.0f32, 1.0];
        let honest2 = vec![1.1f32, 0.9];
        let evil = vec![1e9f32, -1e9];
        let out = CoordinateMedian
            .aggregate(&[honest1, evil, honest2])
            .unwrap();
        assert!((out[0] - 1.1).abs() < 1e-6);
        assert!((out[1] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn mean_is_broken_by_one_outlier() {
        // The Blanchard et al. observation motivating robust rules.
        let out = Mean.aggregate(&[vec![1.0], vec![1.0], vec![1e9]]).unwrap();
        assert!(out[0] > 1e8);
    }

    #[test]
    fn even_count_median_averages() {
        let out = CoordinateMedian
            .aggregate(&[vec![1.0], vec![2.0], vec![3.0], vec![10.0]])
            .unwrap();
        assert_eq!(out, vec![2.5]);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let out = TrimmedMean { trim: 1 }
            .aggregate(&[vec![-100.0], vec![1.0], vec![2.0], vec![3.0], vec![100.0]])
            .unwrap();
        assert_eq!(out, vec![2.0]);
        assert!(matches!(
            TrimmedMean { trim: 2 }.aggregate(&vec![vec![1.0]; 4]),
            Err(AggregationError::NotEnoughOperands { .. })
        ));
    }

    #[test]
    fn median_of_means() {
        // 6 gradients in 3 groups of 2: group means 1.5, 3.5, 1000 → median 3.5.
        let grads = vec![
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![4.0],
            vec![1000.0],
            vec![1000.0],
        ];
        let out = MedianOfMeans { num_groups: 3 }.aggregate(&grads).unwrap();
        assert_eq!(out, vec![3.5]);
        assert!(MedianOfMeans { num_groups: 9 }.aggregate(&grads).is_err());
    }

    #[test]
    fn median_handles_nan_payload_without_poisoning_everything() {
        // The network drops the NaN for the partner it first meets, so
        // the median is finite; its bits are the full sort's, 1.2.
        let out = CoordinateMedian
            .aggregate(&[vec![1.0], vec![f32::NAN], vec![2.0], vec![1.5], vec![1.2]])
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_bits(), 0x3f99_999a, "got {}", out[0]);
    }
}
