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
//!    deterministic tie-break — and the winner hash is computed by
//!    running [`FingerprintFold`] over the winner's shards in ascending
//!    range order, which equals the whole-vector fingerprint because the
//!    fold keys its lanes by absolute coordinate offset.
//!
//! The outcome (winner value, votes, provenance, **and the full
//! [`VoteAudit`](crate::VoteAudit)**) is therefore bit-identical to the
//! unsharded vote at any shard width — the invariant the reputation
//! layer and the chunked wire path both build on. This module is step
//! 2–3; the voter owns step 1.

use crate::quorum::{first_maximal_group, settle, QuorumOutcome};
use byz_kernel::FingerprintFold;

/// Folds per-shard group ids into the final [`QuorumOutcome`].
///
/// The caller is the chunked-wire voter
/// (`byz_wire::ShardedFileVoter`): given, for each complete replica in
/// ascending worker order, its tuple of per-shard group ids, plus a way
/// to read the winning group's values for one shard, this reproduces
/// [`quorum_vote`](crate::quorum_vote)'s grouping, tie-break, audit and
/// fingerprint exactly. `shard_values(s, rep)` lends the values of shard
/// `s` for the replica at position `rep`; only the winner's are read,
/// once, straight into the outcome.
pub fn fold_shard_votes<'a>(
    workers: &[usize],
    keys: &[&[u32]],
    expected_workers: &[usize],
    shards: usize,
    shard_values: impl Fn(usize, usize) -> &'a [f32],
) -> QuorumOutcome {
    debug_assert_eq!(workers.len(), keys.len());
    // Group whole replicas by their shard-id tuples.
    let rep: Vec<usize> = (0..keys.len())
        .map(|j| (0..j).find(|&k| keys[k] == keys[j]).unwrap_or(j))
        .collect();
    let winner = first_maximal_group(&rep);

    // Assemble the winner and its fingerprint shard by shard, in
    // ascending range order.
    let d: usize = (0..shards).map(|s| shard_values(s, winner).len()).sum();
    let mut value = Vec::with_capacity(d);
    let mut fold = FingerprintFold::new();
    for s in 0..shards {
        let shard = shard_values(s, winner);
        fold.update(shard);
        value.extend_from_slice(shard);
    }

    let mut outcome = settle(
        workers,
        &rep,
        winner,
        expected_workers.len(),
        value,
        fold.finish(),
    );
    outcome.audit.mark_absent(expected_workers);
    outcome
}
