//! Robust gradient aggregation rules.
//!
//! The parameter server receives one gradient vector per worker (or, in
//! redundancy schemes, per file replica) and must combine them despite up
//! to `q` being arbitrary (Byzantine). This crate implements:
//!
//! * [`majority_vote`] — exact-equality majority over replicas (paper
//!   Eq. 3), the first stage of ByzShield and DETOX;
//! * [`CoordinateMedian`] — coordinate-wise median, ByzShield's second
//!   stage;
//! * [`TrimmedMean`] — mean-around-median (Xie et al., Yin et al.);
//! * [`MedianOfMeans`] — DETOX's second-stage aggregator;
//! * [`Krum`] / [`MultiKrum`] — nearest-neighbour score selection
//!   (Blanchard et al., Damaskinos et al.);
//! * [`Bulyan`] — Multi-Krum selection followed by per-coordinate
//!   trimmed aggregation (El Mhamdi et al.);
//! * [`GeometricMedian`] — Weiszfeld iteration (Chen et al., Minsker);
//! * [`SignSgdMajority`] — coordinate-wise sign majority vote
//!   (Bernstein et al.);
//! * [`Auror`] — per-coordinate 2-means clustering that discards the
//!   minority cluster when the separation is large (Shen et al.);
//! * [`Mean`] — plain averaging (the non-robust baseline).
//!
//! All rules implement the [`Aggregator`] trait over borrowed flat `f32`
//! gradient vectors, so winners can be aggregated where they lie. Rules
//! with applicability constraints (Multi-Krum's `n ≥ 2c + 3`, Bulyan's
//! `n ≥ 4c + 3` — the limits the paper exploits in Section 6.1) report
//! [`AggregationError::NotEnoughOperands`] instead of silently degrading.

mod auror;
mod bulyan;
mod geomed;
mod krum;
mod majority;
mod median;
mod quorum;
mod sharded;
mod signsgd;

pub use auror::Auror;
pub use bulyan::Bulyan;
pub use byz_kernel::{bits_eq, gradient_fingerprint, FingerprintFold};
pub use geomed::GeometricMedian;
pub use krum::{Krum, MultiKrum};
pub use majority::{majority_vote, MajorityOutcome};
pub use median::{CoordinateMedian, Mean, MedianOfMeans, TrimmedMean};
pub use quorum::{
    aggregate_winners, quorum_elect, quorum_elect_all, quorum_vote, quorum_vote_all_audited,
    quorum_vote_audited, Election, Provenance, QuorumError, QuorumOutcome, ReplicaVerdict,
    VoteAudit, VoteInput,
};
pub use sharded::fold_shard_votes;
pub use signsgd::SignSgdMajority;

use std::fmt;

/// Errors from aggregation rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregationError {
    /// No gradients were supplied.
    Empty,
    /// The supplied gradients have inconsistent dimensions.
    DimensionMismatch { expected: usize, got: usize },
    /// The rule's Byzantine-tolerance precondition is violated
    /// (e.g. Multi-Krum needs `n ≥ 2c + 3` operands to tolerate `c`
    /// Byzantine ones).
    NotEnoughOperands {
        rule: &'static str,
        needed: usize,
        got: usize,
    },
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregationError::Empty => write!(f, "no gradients to aggregate"),
            AggregationError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "gradient dimension mismatch: expected {expected}, got {got}"
                )
            }
            AggregationError::NotEnoughOperands { rule, needed, got } => {
                write!(f, "{rule} needs at least {needed} operands, got {got}")
            }
        }
    }
}

impl std::error::Error for AggregationError {}

/// A rule combining `n` gradient vectors into one.
pub trait Aggregator {
    /// Human-readable rule name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Aggregates the gradients, wherever they lie, into a single
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError`] on empty/ragged input or when the
    /// rule's tolerance precondition fails.
    fn aggregate_slices(&self, gradients: &[&[f32]]) -> Result<Vec<f32>, AggregationError>;

    /// [`aggregate_slices`](Self::aggregate_slices) over owned vectors.
    ///
    /// # Errors
    ///
    /// As [`aggregate_slices`](Self::aggregate_slices).
    fn aggregate(&self, gradients: &[Vec<f32>]) -> Result<Vec<f32>, AggregationError> {
        self.aggregate_slices(&gradients.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }
}

/// Validates common preconditions and returns the gradient dimension.
pub(crate) fn check_input(gradients: &[Vec<f32>]) -> Result<usize, AggregationError> {
    check_dims(gradients)
}

/// [`check_input`] over any gradient views.
pub(crate) fn check_dims<G: AsRef<[f32]>>(gradients: &[G]) -> Result<usize, AggregationError> {
    let first = gradients.first().ok_or(AggregationError::Empty)?;
    let d = first.as_ref().len();
    for g in gradients {
        if g.as_ref().len() != d {
            return Err(AggregationError::DimensionMismatch {
                expected: d,
                got: g.as_ref().len(),
            });
        }
    }
    Ok(d)
}

/// Euclidean distance squared between two equal-length vectors.
pub(crate) fn dist_sq(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_checks() {
        assert_eq!(check_input(&[]).unwrap_err(), AggregationError::Empty);
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            check_input(&ragged),
            Err(AggregationError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(check_input(&[vec![1.0; 3]]).unwrap(), 3);
    }

    #[test]
    fn distances() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
