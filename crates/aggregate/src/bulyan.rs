//! Bulyan (El Mhamdi et al. 2018).

use std::cmp::Ordering;

use crate::{check_dims, AggregationError, Aggregator, Krum};

/// Bulyan: repeatedly runs Krum to select `θ = n − 2c` gradients, then for
/// each coordinate averages the `θ − 2c` values closest to the median of
/// the selected set. Requires `n ≥ 4c + 3` — the constraint that makes it
/// inapplicable to DETOX's vote outputs in the paper (Section 6.2).
#[derive(Debug, Clone, Copy)]
pub struct Bulyan {
    /// Assumed number of Byzantine operands `c`.
    pub num_byzantine: usize,
}

impl Aggregator for Bulyan {
    fn name(&self) -> &'static str {
        "bulyan"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let n = gradients.len();
        let c = self.num_byzantine;
        let needed = 4 * c + 3;
        if n < needed {
            return Err(AggregationError::NotEnoughOperands {
                rule: "bulyan",
                needed,
                got: n,
            });
        }

        // Selection phase: θ = n − 2c gradients chosen by iterated Krum.
        let theta = n - 2 * c;
        let mut pool: Vec<&[f32]> = gradients.to_vec();
        let mut selected: Vec<&[f32]> = Vec::with_capacity(theta);
        for _ in 0..theta {
            let krum = Krum { num_byzantine: c };
            let winner = if pool.len() >= 2 * c + 3 {
                krum.select(&pool, 1)?[0]
            } else {
                // Pool shrank below Krum's requirement; fall back to the
                // vector closest to the current selection's mean.
                0
            };
            selected.push(pool.remove(winner));
        }

        // Aggregation phase: per coordinate keep the β = θ − 2c values
        // closest to the median and average them.
        let beta = theta - 2 * c;
        let mut out = vec![0.0f32; d];
        let mut column: Vec<f32> = Vec::with_capacity(theta);
        for j in 0..d {
            column.clear();
            column.extend(selected.iter().map(|g| g[j]));
            column.sort_by(nan_last);
            let median = if theta % 2 == 1 {
                column[theta / 2]
            } else {
                0.5 * (column[theta / 2 - 1] + column[theta / 2])
            };
            // The β closest-to-median values form a contiguous window of
            // the sorted column; slide to find the best window.
            let mut best_start = 0usize;
            let mut best_spread = f32::INFINITY;
            for start in 0..=(theta - beta) {
                let spread = (column[start + beta - 1] - median)
                    .abs()
                    .max((column[start] - median).abs());
                if spread < best_spread {
                    best_spread = spread;
                    best_start = start;
                }
            }
            let window = &column[best_start..best_start + beta];
            out[j] = window.iter().sum::<f32>() / beta as f32;
        }
        Ok(out)
    }
}

/// A total order for the column sort that equals `partial_cmp` on
/// NaN-free values (±0 stay `Equal`, so NaN-free columns keep their
/// order and the output its bits) and puts every NaN last.
fn nan_last(a: &f32, b: &f32) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulyan_resists_outliers() {
        // n = 11, c = 2 (needs ≥ 11): nine honest gradients around 1.0,
        // two huge Byzantine ones.
        let mut grads: Vec<Vec<f32>> = (0..9).map(|i| vec![1.0 + 0.01 * i as f32, -1.0]).collect();
        grads.push(vec![1e6, 1e6]);
        grads.push(vec![-1e6, 1e6]);
        let out = Bulyan { num_byzantine: 2 }.aggregate(&grads).unwrap();
        assert!((out[0] - 1.0).abs() < 0.2, "got {out:?}");
        assert!((out[1] + 1.0).abs() < 0.2, "got {out:?}");
    }

    #[test]
    fn operand_constraint_enforced() {
        let grads = vec![vec![0.0]; 10];
        assert!(matches!(
            Bulyan { num_byzantine: 2 }.aggregate(&grads),
            Err(AggregationError::NotEnoughOperands {
                needed: 11,
                got: 10,
                ..
            })
        ));
    }

    #[test]
    fn single_coordinate_hidden_attack() {
        // The El Mhamdi et al. motivation: a large change to ONE coordinate
        // with small Lp impact elsewhere. Bulyan's per-coordinate stage
        // must suppress it.
        let mut grads: Vec<Vec<f32>> = (0..9).map(|_| vec![1.0, 1.0, 1.0]).collect();
        grads.push(vec![1.0, 1.0, 500.0]);
        grads.push(vec![1.0, 1.0, 500.0]);
        let out = Bulyan { num_byzantine: 2 }.aggregate(&grads).unwrap();
        assert!(
            (out[2] - 1.0).abs() < 1e-3,
            "coordinate attack leaked: {out:?}"
        );
    }

    #[test]
    fn one_nan_gradient_does_not_panic_the_column_sort() {
        // Krum never selects the NaN row, but once the pool shrinks
        // below Krum's 2c + 3 the fallback takes it. Without a total
        // order the column sort then panics at these n ("user-provided
        // comparison function does not correctly implement a total
        // order").
        for n in [43usize, 47, 50, 55] {
            let mut grads: Vec<Vec<f32>> = (0..n)
                .map(|i| (0..64).map(|j| 0.01 * ((i * 7 + j) % 13) as f32).collect())
                .collect();
            grads[0] = vec![f32::NAN; 64];
            let out = Bulyan { num_byzantine: 10 }.aggregate(&grads).unwrap();
            assert_eq!(out.len(), 64);
        }
    }

    #[test]
    fn nan_last_orders_like_partial_cmp_without_nan() {
        let values = [-1.0f32, -0.0, 0.0, 2.5, f32::INFINITY, f32::NEG_INFINITY];
        for a in values {
            for b in values {
                assert_eq!(Some(nan_last(&a, &b)), a.partial_cmp(&b), "{a} vs {b}");
            }
            assert_eq!(nan_last(&a, &f32::NAN), Ordering::Less);
            assert_eq!(nan_last(&f32::NAN, &a), Ordering::Greater);
        }
        assert_eq!(nan_last(&f32::NAN, &-f32::NAN), Ordering::Equal);
    }

    #[test]
    fn no_byzantines_recovers_mean_like_value() {
        let grads: Vec<Vec<f32>> = (0..7).map(|i| vec![i as f32]).collect();
        let out = Bulyan { num_byzantine: 0 }.aggregate(&grads).unwrap();
        assert!((out[0] - 3.0).abs() < 1.0);
    }
}
