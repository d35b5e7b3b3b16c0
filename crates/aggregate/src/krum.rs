//! Krum and Multi-Krum (Blanchard et al. 2017, Damaskinos et al. 2019).

use crate::{check_dims, dist_sq, AggregationError, Aggregator, Mean};

/// Krum: scores each gradient by the sum of squared distances to its
/// `n − c − 2` nearest neighbours and returns the single lowest-scoring
/// gradient. Tolerates `c` Byzantine inputs when `n ≥ 2c + 3`.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Assumed number of Byzantine operands `c`.
    pub num_byzantine: usize,
}

impl Krum {
    /// Krum scores for every gradient (exposed for Multi-Krum and Bulyan).
    pub(crate) fn scores(&self, gradients: &[&[f32]]) -> Result<Vec<f64>, AggregationError> {
        check_dims(gradients)?;
        let n = gradients.len();
        let needed = 2 * self.num_byzantine + 3;
        if n < needed {
            return Err(AggregationError::NotEnoughOperands {
                rule: "krum",
                needed,
                got: n,
            });
        }
        // Pairwise squared distances.
        let mut dists = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist_sq(gradients[i], gradients[j]);
                // A NaN distance (a NaN coordinate, or ∞ − ∞) ranks as
                // the farthest, so a NaN gradient scores ∞ and is never
                // chosen over a finite one.
                let d = if d.is_nan() { f64::INFINITY } else { d };
                dists[i * n + j] = d;
                dists[j * n + i] = d;
            }
        }
        let neighbours = n - self.num_byzantine - 2;
        let mut scores = Vec::with_capacity(n);
        let mut row = vec![0.0f64; n - 1];
        for i in 0..n {
            let mut w = 0;
            for j in 0..n {
                if j != i {
                    row[w] = dists[i * n + j];
                    w += 1;
                }
            }
            row.sort_by(f64::total_cmp);
            scores.push(row[..neighbours].iter().sum());
        }
        Ok(scores)
    }

    /// Indices of the `count` lowest-scoring gradients, best first.
    pub(crate) fn select(
        &self,
        gradients: &[&[f32]],
        count: usize,
    ) -> Result<Vec<usize>, AggregationError> {
        let scores = self.scores(gradients)?;
        let mut order: Vec<usize> = (0..gradients.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        order.truncate(count);
        Ok(order)
    }
}

impl Aggregator for Krum {
    fn name(&self) -> &'static str {
        "krum"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let best = self.select(gradients, 1)?;
        Ok(gradients[best[0]].to_vec())
    }
}

/// Multi-Krum: averages the `m` lowest-Krum-score gradients. Like Krum it
/// requires `n ≥ 2c + 3` — the constraint that caps the usable `q` in the
/// paper's Figures 4 and 8.
#[derive(Debug, Clone, Copy)]
pub struct MultiKrum {
    /// Assumed number of Byzantine operands `c`.
    pub num_byzantine: usize,
    /// Number of selected gradients to average.
    pub num_selected: usize,
}

impl Aggregator for MultiKrum {
    fn name(&self) -> &'static str {
        "multi-krum"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let krum = Krum {
            num_byzantine: self.num_byzantine,
        };
        let m = self.num_selected.max(1).min(gradients.len());
        let chosen = krum.select(gradients, m)?;
        let selected: Vec<&[f32]> = chosen.iter().map(|&i| gradients[i]).collect();
        Mean.aggregate_slices(&selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seven honest gradients near the origin plus two far-away Byzantine
    /// ones: Krum must pick an honest vector.
    fn cluster_with_outliers() -> Vec<Vec<f32>> {
        let mut grads: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![0.01 * i as f32, -0.01 * i as f32])
            .collect();
        grads.push(vec![50.0, 50.0]);
        grads.push(vec![-50.0, 40.0]);
        grads
    }

    #[test]
    fn krum_picks_an_honest_gradient() {
        let grads = cluster_with_outliers();
        let out = Krum { num_byzantine: 2 }.aggregate(&grads).unwrap();
        assert!(out[0].abs() < 1.0 && out[1].abs() < 1.0, "picked {out:?}");
    }

    #[test]
    fn multi_krum_averages_honest_gradients() {
        let grads = cluster_with_outliers();
        let out = MultiKrum {
            num_byzantine: 2,
            num_selected: 4,
        }
        .aggregate(&grads)
        .unwrap();
        assert!(out[0].abs() < 1.0 && out[1].abs() < 1.0, "got {out:?}");
    }

    #[test]
    fn operand_constraint_enforced() {
        // n = 5 < 2·2 + 3 = 7.
        let grads = vec![vec![0.0]; 5];
        assert!(matches!(
            Krum { num_byzantine: 2 }.aggregate(&grads),
            Err(AggregationError::NotEnoughOperands {
                needed: 7,
                got: 5,
                ..
            })
        ));
    }

    /// `n` gradients near the origin, the first one all NaN.
    fn cluster_with_nan_first(n: usize) -> Vec<Vec<f32>> {
        let mut grads: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..64).map(|j| 0.01 * ((i * 7 + j) % 13) as f32).collect())
            .collect();
        grads[0] = vec![f32::NAN; 64];
        grads
    }

    #[test]
    fn nan_gradient_never_wins_krum() {
        for n in [15usize, 25, 40, 64] {
            let grads = cluster_with_nan_first(n);
            let c = 5;
            let krum = Krum { num_byzantine: c }.aggregate(&grads).unwrap();
            assert!(krum.iter().all(|v| v.is_finite()), "krum n={n}: {krum:?}");
            let multi = MultiKrum {
                num_byzantine: c,
                num_selected: n - c,
            }
            .aggregate(&grads)
            .unwrap();
            assert!(multi.iter().all(|v| v.is_finite()), "multi-krum n={n}");
        }
    }

    #[test]
    fn krum_returns_an_input_vector() {
        let grads = cluster_with_outliers();
        let out = Krum { num_byzantine: 2 }.aggregate(&grads).unwrap();
        assert!(
            grads.iter().any(|g| g == &out),
            "Krum must select, not blend"
        );
    }
}
