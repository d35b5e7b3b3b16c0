//! Coordinate-sharded quorum voting.
//!
//! [`quorum_vote`](crate::quorum_vote) walks a file's replicas on one
//! thread. This module cuts each replica into coordinate *shards* so one
//! file's vote can be spread over the `byz-kernel` pool, or run as its
//! chunks arrive (`byz_wire::ShardedFileVoter`):
//!
//! 1. per shard, replicas are grouped by bit-exact equality of that
//!    coordinate range — an embarrassingly parallel pass, since a
//!    shard's group ids depend only on its own slice of the replicas;
//! 2. two replicas are whole-vector equal **iff** their per-shard group
//!    ids agree on every shard, so the cross-shard fold works on
//!    `(num_shards)`-tuples of small integers instead of `d` floats;
//! 3. the fold scans replicas in ascending worker order and keeps the
//!    first maximal group — exactly [`quorum_vote`]'s deterministic
//!    tie-break — and the winner hash is computed by running
//!    [`FingerprintFold`] over the winner's shards in ascending range
//!    order, which equals the whole-vector fingerprint because the fold
//!    keys its lanes by absolute coordinate offset.
//!
//! The outcome (winner value, votes, provenance, **and the full
//! [`VoteAudit`](crate::VoteAudit)**) is therefore bit-identical to the
//! unsharded vote at any shard width and `BYZ_KERNEL_THREADS` setting —
//! the invariant the reputation layer and the chunked wire path both
//! build on.

use crate::quorum::{first_maximal_group, settle, sorted_replicas, QuorumError, QuorumOutcome};
use byz_kernel::{bits_eq, FingerprintFold};

/// Number of shards a `total_len`-dimensional vote is cut into. An
/// empty gradient still occupies one (empty) shard.
pub fn num_shards(total_len: usize, shard_len: usize) -> usize {
    total_len.div_ceil(shard_len.max(1)).max(1)
}

/// The `(start, len)` coordinate range of shard `index`.
pub fn shard_span(total_len: usize, shard_len: usize, index: usize) -> (usize, usize) {
    let shard_len = shard_len.max(1);
    let start = (index * shard_len).min(total_len);
    (start, shard_len.min(total_len - start))
}

/// Assigns per-shard group ids for a run of shards.
///
/// `replicas` are in ascending worker order. `ids` is the shard-major
/// row block for global shards
/// `[first_shard, first_shard + ids.len() / replicas.len())`:
/// `ids[local_s * n + j]` is the group id of the `j`-th replica within
/// global shard `first_shard + local_s`. Ids are assigned in ascending
/// worker order per shard, so they are a pure function of the replica
/// values — never of thread count or arrival order.
fn shard_group_ids(replicas: &[&[f32]], shard_len: usize, first_shard: usize, ids: &mut [u32]) {
    let n = replicas.len();
    let d = replicas[0].len();
    for (local_s, slot) in ids.chunks_exact_mut(n).enumerate() {
        let (start, len) = shard_span(d, shard_len, first_shard + local_s);
        let shard = |j: usize| &replicas[j][start..start + len];
        // Group reps are replica positions: compare each replica's shard
        // against the first member of every existing group.
        let mut groups: Vec<usize> = Vec::new();
        for (j, id) in slot.iter_mut().enumerate() {
            let found = groups.iter().position(|&rep| bits_eq(shard(rep), shard(j)));
            *id = found.unwrap_or_else(|| {
                groups.push(j);
                groups.len() - 1
            }) as u32;
        }
    }
}

/// Folds per-shard group ids into the final [`QuorumOutcome`].
///
/// Shared by this module and the chunked-wire voter
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

/// Coordinate-sharded
/// [`quorum_vote_audited`](crate::quorum_vote_audited): same inputs
/// plus a shard length, **bit-identical outcome** (winner, votes,
/// provenance, audit, winner hash), with the per-shard grouping pass
/// run in parallel over the kernel pool.
///
/// # Errors
///
/// Same as [`quorum_vote`](crate::quorum_vote).
pub fn quorum_vote_sharded_audited<G>(
    replicas: &[(usize, G)],
    q_min: usize,
    expected_workers: &[usize],
    shard_len: usize,
) -> Result<QuorumOutcome, QuorumError>
where
    G: AsRef<[f32]> + Sync,
{
    let (workers, slices) = sorted_replicas(replicas, q_min)?;
    let n = slices.len();
    let d = slices[0].len();
    let shards = num_shards(d, shard_len);
    let mut ids: Vec<u32> = vec![0; shards * n];

    // Each pool chunk owns a disjoint run of shard-major rows, so the
    // parallel pass writes disjoint slots and the ids are identical at
    // any thread count.
    let rows_per_chunk = shards.div_ceil(byz_kernel::num_threads().max(1)).max(1);
    byz_kernel::parallel_chunks_mut(&mut ids, rows_per_chunk * n, |start, slot| {
        shard_group_ids(&slices, shard_len, start / n, slot);
    });

    // Gather the shard-major id matrix into per-replica contiguous keys.
    let mut key_storage: Vec<u32> = vec![0; n * shards];
    for s in 0..shards {
        for j in 0..n {
            key_storage[j * shards + s] = ids[s * n + j];
        }
    }
    let keys: Vec<&[u32]> = key_storage.chunks_exact(shards).collect();
    Ok(fold_shard_votes(
        &workers,
        &keys,
        expected_workers,
        shards,
        |s, winner| {
            let (start, len) = shard_span(d, shard_len, s);
            &slices[winner][start..start + len]
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum_vote_audited;
    use proptest::prelude::*;

    fn pairs(ids: &[usize], grads: &[Vec<f32>]) -> Vec<(usize, Vec<f32>)> {
        ids.iter().copied().zip(grads.iter().cloned()).collect()
    }

    #[test]
    fn span_helpers() {
        assert_eq!(num_shards(0, 4), 1);
        assert_eq!(num_shards(9, 4), 3);
        assert_eq!(shard_span(9, 4, 2), (8, 1));
        assert_eq!(shard_span(0, 4, 0), (0, 0));
        assert_eq!(num_shards(5, 0), 5); // clamped, no div-by-zero
    }

    #[test]
    fn matches_unsharded_on_split_vote() {
        let h = vec![1.0f32; 10];
        let mut e = h.clone();
        e[7] = 9.0; // differs only in the second shard
        let replicas = pairs(&[0, 1, 2, 5], &[h.clone(), e.clone(), h, e]);
        let expected = [0usize, 1, 2, 5, 9];
        let baseline = quorum_vote_audited(&replicas, 1, &expected).unwrap();
        for shard_len in [1usize, 3, 4, 10, 64] {
            let sharded = quorum_vote_sharded_audited(&replicas, 1, &expected, shard_len).unwrap();
            assert_eq!(sharded, baseline, "shard_len {shard_len}");
        }
    }

    #[test]
    fn errors_match_unsharded() {
        let replicas: Vec<(usize, Vec<f32>)> = Vec::new();
        assert_eq!(
            quorum_vote_sharded_audited(&replicas, 1, &[0], 4).unwrap_err(),
            QuorumError::NoReplicas
        );
        let one = pairs(&[3], &[vec![1.0, 2.0]]);
        assert_eq!(
            quorum_vote_sharded_audited(&one, 2, &[0, 3], 4).unwrap_err(),
            QuorumError::QuorumNotMet { got: 1, needed: 2 }
        );
        let ragged = vec![(0usize, vec![1.0f32, 2.0]), (1, vec![1.0f32])];
        assert_eq!(
            quorum_vote_sharded_audited(&ragged, 1, &[0, 1], 4).unwrap_err(),
            QuorumError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    proptest! {
        /// The sharded vote is bit-identical to the unsharded one —
        /// winner value, votes, tie-break witness, provenance, winner
        /// hash and the complete audit — for arbitrary replica patterns,
        /// worker ids, dimensions and shard lengths.
        #[test]
        fn sharded_equals_unsharded(
            ids in proptest::collection::btree_set(0usize..32, 1..=6),
            pattern in 0u32..64,
            d in 0usize..40,
            shard_len in 1usize..16,
            q_min in 1usize..=3,
        ) {
            let ids: Vec<usize> = ids.into_iter().collect();
            prop_assume!(ids.len() >= q_min);
            let replicas: Vec<(usize, Vec<f32>)> = ids
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let v: Vec<f32> = if pattern >> i & 1 == 1 {
                        (0..d).map(|c| (c as f32) * 0.5 - 3.0).collect()
                    } else {
                        (0..d).map(|c| -(c as f32)).collect()
                    };
                    (w, v)
                })
                .collect();
            let baseline = quorum_vote_audited(&replicas, q_min, &ids).unwrap();
            let sharded =
                quorum_vote_sharded_audited(&replicas, q_min, &ids, shard_len).unwrap();
            prop_assert_eq!(sharded, baseline);
        }
    }
}
