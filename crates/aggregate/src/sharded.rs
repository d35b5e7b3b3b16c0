//! Coordinate-sharded quorum voting.
//!
//! [`quorum_vote`](crate::quorum_vote) walks whole replicas. A vote can
//! instead run over coordinate *shards* as a replica's chunks arrive
//! (`byz_wire::ShardedFileVoter`):
//!
//! 1. per shard, replicas are grouped by bit-exact equality of that
//!    coordinate range — a shard's group ids depend only on its own
//!    slice of the replicas;
//! 2. two replicas are whole-vector equal **iff** their per-shard group
//!    ids agree on every shard, so the cross-shard fold works on
//!    `(num_shards)`-tuples of small integers instead of `d` floats;
//! 3. the fold scans replicas in ascending worker order and keeps the
//!    first maximal group — exactly [`quorum_vote`](crate::quorum_vote)'s
//!    deterministic tie-break — and hands the winner's position to the
//!    caller, which holds the shards and builds the winner and its
//!    whole-vector [`gradient_fingerprint`](crate::gradient_fingerprint).
//!
//! The outcome (winner value, votes, provenance, **and the full
//! [`VoteAudit`](crate::VoteAudit)**) is therefore bit-identical to the
//! unsharded vote at any shard width — the invariant the reputation
//! layer and the chunked wire path both build on. This module is step
//! 2–3; the voter owns step 1.

use crate::quorum::{first_maximal_group, settle, QuorumOutcome};

/// Folds per-shard group ids into the final [`QuorumOutcome`].
///
/// The caller is the chunked-wire voter
/// (`byz_wire::ShardedFileVoter`): given, for each complete replica in
/// ascending worker order, its tuple of per-shard group ids, this
/// reproduces [`quorum_vote`](crate::quorum_vote)'s grouping, tie-break
/// and audit exactly. `winner(rep)` builds the outcome's value for the
/// winning replica at position `rep`, with its fingerprint.
pub fn fold_shard_votes<V>(
    workers: &[usize],
    keys: &[&[u32]],
    expected_workers: &[usize],
    winner: impl FnOnce(usize) -> (V, u64),
) -> QuorumOutcome<V> {
    debug_assert_eq!(workers.len(), keys.len());
    // Group whole replicas by their shard-id tuples.
    let rep: Vec<usize> = (0..keys.len())
        .map(|j| (0..j).find(|&k| keys[k] == keys[j]).unwrap_or(j))
        .collect();
    let at = first_maximal_group(&rep);
    let (value, hash) = winner(at);
    let mut outcome = settle(workers, &rep, at, expected_workers.len(), value, hash);
    outcome.audit.mark_absent(expected_workers);
    outcome
}
