//! Exact-equality majority vote over gradient replicas (paper Eq. 3).

use crate::quorum::vote_sorted;
use crate::{check_input, AggregationError, VoteAudit};

/// Outcome of a majority vote across the `r` replicas of one file.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorityOutcome {
    /// The winning gradient.
    pub value: Vec<f32>,
    /// How many replicas matched the winner exactly.
    pub votes: usize,
    /// Whether the winner had a strict majority (`votes > r/2`). With an
    /// honest majority this implies the value is the true gradient.
    pub is_strict: bool,
    /// Per-replica verdicts keyed by *replica index* (this vote has no
    /// worker identities), with the winning-group hash. Losing replicas
    /// are no longer discarded silently — callers that know the
    /// index→worker mapping can convert this into reputation evidence.
    pub audit: VoteAudit,
}

/// Majority vote with *exact* equality semantics (the paper ensures all
/// honest replicas of a file return bit-identical gradients, Section 2).
///
/// Runs the same fused kernel as [`quorum_vote`](crate::quorum_vote),
/// with replica indices standing in for worker ids: one blocked pass in
/// which each replica is compared only against the first member of the
/// group it still belongs to, so the vote is linear in `n·d` (the
/// property the paper's Appendix A.1 cites Boyer & Moore 1991 for) and
/// the per-replica verdicts come from that same pass. Without a strict
/// majority the plurality wins, ties broken by first appearance
/// ("picks out the gradient that appears the maximum number of times").
///
/// # Errors
///
/// Returns [`AggregationError`] on empty or ragged input.
pub fn majority_vote(replicas: &[Vec<f32>]) -> Result<MajorityOutcome, AggregationError> {
    check_input(replicas)?;
    let indices: Vec<usize> = (0..replicas.len()).collect();
    let slices: Vec<&[f32]> = replicas.iter().map(Vec::as_slice).collect();
    let vote = vote_sorted(&indices, &slices, replicas.len());
    Ok(MajorityOutcome {
        value: replicas[vote.value].clone(),
        votes: vote.votes,
        is_strict: vote.is_strict,
        audit: vote.audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_majority_wins() {
        let honest = vec![1.0f32, 2.0];
        let evil = vec![9.0f32, 9.0];
        let out = majority_vote(&[honest.clone(), evil, honest.clone()]).unwrap();
        assert_eq!(out.value, honest);
        assert_eq!(out.votes, 2);
        assert!(out.is_strict);
    }

    #[test]
    fn byzantine_majority_distorts() {
        // r' = 2 of r = 3 replicas Byzantine (colluding on the same value):
        // the vote is corrupted — exactly the paper's distortion condition.
        let honest = vec![1.0f32];
        let evil = vec![9.0f32];
        let out = majority_vote(&[evil.clone(), honest, evil.clone()]).unwrap();
        assert_eq!(out.value, evil);
        assert!(out.is_strict);
    }

    #[test]
    fn plurality_fallback() {
        // Three distinct values: first maximal one wins with votes = 1.
        let out = majority_vote(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert_eq!(out.votes, 1);
        assert!(!out.is_strict);
        assert_eq!(out.value, vec![1.0]);
    }

    #[test]
    fn nan_payload_handled() {
        let evil = vec![f32::NAN];
        let honest = vec![0.5f32];
        let out = majority_vote(&[honest.clone(), evil.clone(), honest.clone()]).unwrap();
        assert_eq!(out.value, honest);
        assert!(out.is_strict);
        // Even an all-NaN strict majority is counted consistently.
        let out = majority_vote(&[evil.clone(), evil, honest]).unwrap();
        assert!(out.is_strict);
        assert!(out.value[0].is_nan());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(majority_vote(&[]).unwrap_err(), AggregationError::Empty);
    }

    #[test]
    fn five_replicas_three_votes() {
        let h = vec![1.0f32, -1.0];
        let e1 = vec![5.0f32, 5.0];
        let e2 = vec![6.0f32, 6.0];
        let out = majority_vote(&[e1, h.clone(), e2, h.clone(), h.clone()]).unwrap();
        assert_eq!(out.value, h);
        assert_eq!(out.votes, 3);
        assert!(out.is_strict);
    }
}
