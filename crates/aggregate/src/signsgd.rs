//! signSGD with majority vote (Bernstein et al. 2019).

use byz_kernel::parallel_chunks_mut;

use crate::median::COORD_CHUNK;
use crate::{check_dims, AggregationError, Aggregator};

/// signSGD aggregation: each worker effectively transmits only the sign of
/// its gradient; the server outputs the coordinate-wise sign majority
/// (`±1`, or `0` on a tie). The training step then uses a fixed-magnitude
/// update `η·sign`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SignSgdMajority;

impl Aggregator for SignSgdMajority {
    fn name(&self) -> &'static str {
        "signsgd-majority"
    }

    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
        let d = check_dims(gradients)?;
        let mut out = vec![0.0f32; d];
        // Tallies are exact integer counts per coordinate, so the chunked
        // parallel evaluation is trivially identical to the serial one.
        parallel_chunks_mut(&mut out, COORD_CHUNK, |start, piece| {
            for (off, o) in piece.iter_mut().enumerate() {
                let j = start + off;
                let mut tally = 0i64;
                for g in gradients {
                    // NaN contributes no vote — a Byzantine NaN payload
                    // cannot dominate a coordinate.
                    if g[j] > 0.0 {
                        tally += 1;
                    } else if g[j] < 0.0 {
                        tally -= 1;
                    }
                }
                *o = (tally.signum()) as f32;
            }
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_majority() {
        let grads = vec![
            vec![0.3, -2.0, 0.0],
            vec![5.0, -0.1, 1.0],
            vec![-0.2, -9.0, -1.0],
        ];
        let out = SignSgdMajority.aggregate(&grads).unwrap();
        assert_eq!(out, vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn magnitude_is_ignored() {
        // One worker with a huge gradient has exactly one vote.
        let grads = vec![vec![1e12], vec![-0.001], vec![-0.002]];
        let out = SignSgdMajority.aggregate(&grads).unwrap();
        assert_eq!(out, vec![-1.0]);
    }

    #[test]
    fn nan_votes_are_dropped() {
        let grads = vec![vec![f32::NAN], vec![1.0], vec![2.0]];
        let out = SignSgdMajority.aggregate(&grads).unwrap();
        assert_eq!(out, vec![1.0]);
    }
}
