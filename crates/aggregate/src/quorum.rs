//! Degraded-quorum majority voting.
//!
//! The happy-path vote ([`majority_vote`](crate::majority_vote)) assumes
//! all `r` replicas of a file arrived. Under crashes, stragglers past
//! their deadline, or dropped messages the parameter server holds only a
//! *subset* of the replicas, and the protocol must decide per file
//! whether that subset is still worth voting on. This module is the
//! single degradation policy shared by the in-process trainer
//! (`byzshield::Trainer`) and the message-passing server
//! (`byz_wire::MessagePassingCluster`):
//!
//! * [`quorum_vote`] — exact-equality majority over the replicas that
//!   arrived, with deterministic tie-breaking by smallest supporting
//!   worker id, refused below the minimum replica count `q_min`;
//! * [`QuorumOutcome`] / [`Provenance`] — the winning gradient plus how
//!   it was obtained (full replica set or degraded subset), so
//!   downstream aggregation can account for provenance;
//! * [`quorum_elect`] / [`quorum_elect_all`] — the same vote, naming the
//!   winning replica instead of copying it, for callers that already
//!   hold every replica;
//! * [`aggregate_winners`] — feeds a winner set of mixed provenance into
//!   any [`Aggregator`].

use crate::{AggregationError, Aggregator};
use byz_kernel::{bits_eq, FingerprintFold};
use std::fmt;

/// What one expected replica did in a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaVerdict {
    /// The replica arrived and matched the winning group bit-exactly.
    Agreed,
    /// The replica arrived with a different value and lost the vote —
    /// *active* disagreement, the evidence a reputation layer feeds on.
    Disagreed,
    /// The replica never arrived (crash, drop, deadline, quarantine) —
    /// a benign absence that must never count as disagreement.
    Absent,
}

/// The per-replica evidence a vote produces. Before this existed, the
/// losers of a majority vote were silently discarded; the audit keeps
/// them, so every vote a worker loses becomes recordable evidence
/// (`byz-reputation` folds audits into suspicion scores).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VoteAudit {
    /// `(worker, verdict)` pairs in ascending worker order. Covers the
    /// replicas that arrived; [`VoteAudit::mark_absent`] (or
    /// [`quorum_vote_audited`]) extends it with the expected holders
    /// that never delivered.
    pub replicas: Vec<(usize, ReplicaVerdict)>,
    /// [`gradient_fingerprint`](crate::gradient_fingerprint) of the
    /// winning gradient's bit pattern — lets two audits of the same file
    /// be compared without carrying the payload.
    pub winner_hash: u64,
}

impl VoteAudit {
    /// The verdict recorded for `worker`, if it was an expected holder.
    pub fn verdict_of(&self, worker: usize) -> Option<ReplicaVerdict> {
        self.replicas
            .iter()
            .find(|(w, _)| *w == worker)
            .map(|(_, v)| *v)
    }

    /// Workers whose replica arrived but lost the vote.
    pub fn disagreeing(&self) -> impl Iterator<Item = usize> + '_ {
        self.replicas
            .iter()
            .filter(|(_, v)| *v == ReplicaVerdict::Disagreed)
            .map(|(w, _)| *w)
    }

    /// Number of replicas with the given verdict.
    pub fn count(&self, verdict: ReplicaVerdict) -> usize {
        self.replicas.iter().filter(|(_, v)| *v == verdict).count()
    }

    /// Records an [`ReplicaVerdict::Absent`] entry for every worker in
    /// `expected_workers` that cast no vote, keeping ascending order.
    /// Idempotent: workers already present are left untouched.
    pub fn mark_absent(&mut self, expected_workers: &[usize]) {
        for &w in expected_workers {
            if self.verdict_of(w).is_none() {
                self.replicas.push((w, ReplicaVerdict::Absent));
            }
        }
        self.replicas.sort_by_key(|(w, _)| *w);
    }
}

/// Typed failure of a per-file degraded vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumError {
    /// No replica of the file arrived at all.
    NoReplicas,
    /// Fewer replicas arrived than the configured minimum quorum.
    QuorumNotMet {
        /// Replicas received.
        got: usize,
        /// The configured `q_min`.
        needed: usize,
    },
    /// The received replicas have inconsistent dimensions (protocol
    /// corruption, not Byzantine content — honest and Byzantine replicas
    /// alike must be full-dimension gradients).
    DimensionMismatch {
        /// Dimension of the first replica.
        expected: usize,
        /// The offending dimension.
        got: usize,
    },
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::NoReplicas => write!(f, "no replicas arrived"),
            QuorumError::QuorumNotMet { got, needed } => {
                write!(f, "quorum not met: {got} replicas < q_min = {needed}")
            }
            QuorumError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "replica dimension mismatch: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for QuorumError {}

/// How a file's winning gradient was obtained — the provenance travels
/// with the winner so aggregation and reporting can distinguish
/// full-redundancy votes from degraded ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// All `r` expected replicas arrived.
    Full,
    /// A strict subset arrived, but at least `q_min` of them.
    Degraded {
        /// Replicas received.
        received: usize,
        /// Replicas expected (`r`).
        expected: usize,
    },
}

/// Outcome of a degraded-quorum vote on one file.
///
/// `V` is how the winner is carried: its own copy (`Vec<f32>`, the
/// default), its position among the voted replicas ([`Election`]), or
/// any view a caller builds from that position.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumOutcome<V = Vec<f32>> {
    /// The winning gradient.
    pub value: V,
    /// Replicas that matched the winner bit-exactly.
    pub votes: usize,
    /// Replicas that arrived and were voted over.
    pub received: usize,
    /// Smallest worker id among the winner's supporters (the
    /// deterministic tie-break witness).
    pub winner_worker: usize,
    /// Whether the winner had a strict majority of the *received*
    /// replicas.
    pub is_strict: bool,
    /// Full or degraded provenance.
    pub provenance: Provenance,
    /// Per-replica verdicts (who agreed with the winner, who lost) plus
    /// the winning-group hash. From [`quorum_vote`] it covers arrived
    /// replicas only; [`quorum_vote_audited`] extends it with absences.
    pub audit: VoteAudit,
}

/// A vote that names its winner instead of copying it: `value` is the
/// index, in the slice that was voted over, of the winning group's
/// smallest-worker replica.
pub type Election = QuorumOutcome<usize>;

impl<V> QuorumOutcome<V> {
    /// The same outcome with its winner carried as `f(value)`.
    pub fn map_value<W>(self, f: impl FnOnce(V) -> W) -> QuorumOutcome<W> {
        QuorumOutcome {
            value: f(self.value),
            votes: self.votes,
            received: self.received,
            winner_worker: self.winner_worker,
            is_strict: self.is_strict,
            provenance: self.provenance,
            audit: self.audit,
        }
    }
}

/// Exact-equality majority vote over the replicas that arrived.
///
/// `replicas` are `(worker, gradient)` pairs; `expected` is the full
/// replication degree `r` the file was assigned. The vote:
///
/// 1. rejects the file if fewer than `q_min` replicas arrived
///    ([`QuorumError::QuorumNotMet`]) or none at all
///    ([`QuorumError::NoReplicas`]);
/// 2. groups the received replicas by bit-exact equality;
/// 3. the group with the most votes wins; **ties break deterministically
///    to the group containing the smallest worker id**, independent of
///    arrival order (the pairs are sorted internally, so the caller may
///    pass them in any order).
///
/// With an honest majority among the received replicas the winner is the
/// honest gradient, because honest replicas are bit-identical.
///
/// Generic over the replica payload (`Vec<f32>`, `&[f32]`, arena slices,
/// …) so zero-copy callers can vote over borrowed views without
/// materializing owned vectors; only the winner is copied out.
pub fn quorum_vote<G: AsRef<[f32]>>(
    replicas: &[(usize, G)],
    q_min: usize,
    expected: usize,
) -> Result<QuorumOutcome, QuorumError> {
    let election = elect(replicas, q_min, expected)?;
    Ok(election.map_value(|at| replicas[at].1.as_ref().to_vec()))
}

/// [`quorum_vote`] without the copy: the winner as its index in
/// `replicas`.
fn elect<G: AsRef<[f32]>>(
    replicas: &[(usize, G)],
    q_min: usize,
    expected: usize,
) -> Result<Election, QuorumError> {
    let order = sorted_replicas(replicas, q_min)?;
    let workers: Vec<usize> = order.iter().map(|&at| replicas[at].0).collect();
    let slices: Vec<&[f32]> = order.iter().map(|&at| replicas[at].1.as_ref()).collect();
    Ok(vote_sorted(&workers, &slices, expected).map_value(|winner| order[winner]))
}

/// The gate every vote applies — at least one and at least `q_min`
/// replicas, all of one dimension — and the deterministic scan order:
/// the replicas' indices in ascending worker order, whatever order they
/// arrived in.
fn sorted_replicas<G: AsRef<[f32]>>(
    replicas: &[(usize, G)],
    q_min: usize,
) -> Result<Vec<usize>, QuorumError> {
    if replicas.is_empty() {
        return Err(QuorumError::NoReplicas);
    }
    if replicas.len() < q_min {
        return Err(QuorumError::QuorumNotMet {
            got: replicas.len(),
            needed: q_min,
        });
    }
    let d = replicas[0].1.as_ref().len();
    if let Some((_, bad)) = replicas.iter().find(|(_, g)| g.as_ref().len() != d) {
        return Err(QuorumError::DimensionMismatch {
            expected: d,
            got: bad.as_ref().len(),
        });
    }
    let mut order: Vec<usize> = (0..replicas.len()).collect();
    order.sort_by_key(|&at| replicas[at].0);
    Ok(order)
}

/// Coordinates per block of the fused vote. A block of every replica
/// (`r` × 16 KiB) stays cache-resident while it is compared and hashed,
/// so the vote streams each replica from memory once.
const VOTE_BLOCK: usize = 4096;

/// The fused exact-equality vote over equal-length replicas in ascending
/// worker order — the one kernel behind [`quorum_vote`] and
/// [`majority_vote`](crate::majority_vote).
///
/// One blocked pass refines the partition of the replicas into
/// bit-equality groups: within a block a replica is compared only
/// against the first members of groups that share its whole prefix (one
/// `memcmp` per replica while the vote is unanimous; a replica alone in
/// its group is never read again). Votes, tie-break and verdicts all
/// fall out of the final partition, so nothing is compared twice. The
/// smallest worker's group wins every unanimous vote and every tie, so
/// its blocks are hashed while they are still hot; only when a later
/// group outvotes it is the winner re-read. The winner is named by its
/// position, never copied.
pub(crate) fn vote_sorted(workers: &[usize], replicas: &[&[f32]], expected: usize) -> Election {
    let n = replicas.len();
    let d = replicas[0].len();
    // rep[j]: position of the first replica equal to the `j`-th so far.
    let mut rep = vec![0usize; n];
    let mut prev = rep.clone();
    let mut fold = FingerprintFold::new();
    for start in (0..d).step_by(VOTE_BLOCK) {
        let block = |j: usize| &replicas[j][start..(start + VOTE_BLOCK).min(d)];
        prev.copy_from_slice(&rep);
        for j in 1..n {
            if prev[j] != j {
                rep[j] = (0..j)
                    .find(|&k| rep[k] == k && prev[k] == prev[j] && bits_eq(block(k), block(j)))
                    .unwrap_or(j);
            }
        }
        fold.update(block(0));
    }
    let winner = first_maximal_group(&rep);
    if winner != 0 {
        fold = FingerprintFold::new();
        fold.update(replicas[winner]);
    }
    settle(workers, &rep, winner, expected, winner, fold.finish())
}

/// The winning group of a partition. `rep[j]` is the position of the
/// first replica equal to the `j`-th in ascending worker order, so
/// groups are met in order of their smallest supporter and the *first*
/// maximal one is the deterministic break-ties-by-worker-id winner.
pub(crate) fn first_maximal_group(rep: &[usize]) -> usize {
    let mut votes = vec![0usize; rep.len()];
    for &g in rep {
        votes[g] += 1;
    }
    (1..rep.len()).fold(0, |best, g| if votes[g] > votes[best] { g } else { best })
}

/// Builds the outcome around a settled winner. The audit preserves what
/// a plain vote throws away — the losers — read straight off the
/// partition, in ascending worker order.
pub(crate) fn settle<V>(
    workers: &[usize],
    rep: &[usize],
    winner: usize,
    expected: usize,
    value: V,
    winner_hash: u64,
) -> QuorumOutcome<V> {
    let received = workers.len();
    let votes = rep.iter().filter(|&&g| g == winner).count();
    let verdict = |g: usize| {
        if g == winner {
            ReplicaVerdict::Agreed
        } else {
            ReplicaVerdict::Disagreed
        }
    };
    QuorumOutcome {
        value,
        votes,
        received,
        winner_worker: workers[winner],
        is_strict: votes * 2 > received,
        provenance: if received >= expected {
            Provenance::Full
        } else {
            Provenance::Degraded { received, expected }
        },
        audit: VoteAudit {
            replicas: workers
                .iter()
                .zip(rep)
                .map(|(&w, &g)| (w, verdict(g)))
                .collect(),
            winner_hash,
        },
    }
}

/// [`quorum_vote`] against the file's full expected holder set: the
/// returned outcome's [`VoteAudit`] additionally carries an
/// [`ReplicaVerdict::Absent`] entry for every expected worker whose
/// replica never arrived, so a reputation layer can account absence
/// (benign) separately from active disagreement.
///
/// # Errors
///
/// Same as [`quorum_vote`] (quorum is judged over *arrived* replicas).
pub fn quorum_vote_audited<G: AsRef<[f32]>>(
    replicas: &[(usize, G)],
    q_min: usize,
    expected_workers: &[usize],
) -> Result<QuorumOutcome, QuorumError> {
    let election = quorum_elect(replicas, q_min, expected_workers)?;
    Ok(election.map_value(|at| replicas[at].1.as_ref().to_vec()))
}

/// [`quorum_vote_audited`] without the copy: the winner as its index in
/// `replicas`, for a caller that already holds every replica and can
/// hand the winner on where it lies.
///
/// # Errors
///
/// Same as [`quorum_vote`].
pub fn quorum_elect<G: AsRef<[f32]>>(
    replicas: &[(usize, G)],
    q_min: usize,
    expected_workers: &[usize],
) -> Result<Election, QuorumError> {
    let mut election = elect(replicas, q_min, expected_workers.len())?;
    election.audit.mark_absent(expected_workers);
    Ok(election)
}

/// One file's vote input: its arrived `(worker, gradient)` replicas plus
/// the worker set expected to hold the file (for absence auditing).
pub type VoteInput<'a, G> = (&'a [(usize, G)], &'a [usize]);

/// Audited votes for every file of a round, run in parallel over the
/// kernel pool.
///
/// `files` holds one `(arrived replicas, expected holder set)` pair per
/// file; the result is index-aligned with `files`. Each file's vote is a
/// pure function of its own entry and writes only its own output slot
/// (deterministic chunking via `parallel_chunks_mut`), so the result is
/// **bit-identical to a sequential [`quorum_vote_audited`] loop** at any
/// `BYZ_KERNEL_THREADS` setting — including every `VoteAudit`, which is
/// what lets the reputation layer run unchanged above a parallel vote.
pub fn quorum_vote_all_audited<G>(
    files: &[VoteInput<'_, G>],
    q_min: usize,
) -> Vec<Result<QuorumOutcome, QuorumError>>
where
    G: AsRef<[f32]> + Sync,
{
    per_file(files, |(replicas, expected_workers)| {
        quorum_vote_audited(replicas, q_min, expected_workers)
    })
}

/// [`quorum_vote_all_audited`] without the copies: each file's winner as
/// its index in that file's replicas ([`quorum_elect`]), with the same
/// bit-identity at any thread count.
pub fn quorum_elect_all<G>(
    files: &[VoteInput<'_, G>],
    q_min: usize,
) -> Vec<Result<Election, QuorumError>>
where
    G: AsRef<[f32]> + Sync,
{
    per_file(files, |(replicas, expected_workers)| {
        quorum_elect(replicas, q_min, expected_workers)
    })
}

/// `vote` over every file on the kernel pool, one output slot per file.
fn per_file<G, T>(files: &[VoteInput<'_, G>], vote: impl Fn(VoteInput<'_, G>) -> T + Sync) -> Vec<T>
where
    G: AsRef<[f32]> + Sync,
    T: Send,
{
    let mut out: Vec<Option<T>> = (0..files.len()).map(|_| None).collect();
    let chunk = files
        .len()
        .div_ceil(byz_kernel::num_threads().max(1))
        .max(1);
    byz_kernel::parallel_chunks_mut(&mut out, chunk, |start, slots| {
        for (offset, slot) in slots.iter_mut().enumerate() {
            *slot = Some(vote(files[start + offset]));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every file slot is written by exactly one chunk"))
        .collect()
}

/// Runs a robust aggregation rule over a winner set of mixed provenance.
///
/// Degraded rounds produce winners backed by fewer replicas; the
/// aggregation rule itself is provenance-agnostic (it sees one vector per
/// surviving file), so this helper simply lends the rule a view of each
/// winner's value — no payload is copied.
///
/// # Errors
///
/// Returns [`AggregationError`] from the underlying rule (e.g. `Empty`
/// when every file of the round was abandoned).
pub fn aggregate_winners(
    aggregator: &dyn Aggregator,
    winners: Vec<QuorumOutcome>,
) -> Result<Vec<f32>, AggregationError> {
    let values: Vec<&[f32]> = winners.iter().map(|w| w.value.as_slice()).collect();
    aggregator.aggregate_slices(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gradient_fingerprint, CoordinateMedian};
    use proptest::prelude::*;

    fn pairs(ids: &[usize], grads: &[Vec<f32>]) -> Vec<(usize, Vec<f32>)> {
        ids.iter().copied().zip(grads.iter().cloned()).collect()
    }

    /// The vote as the paper states it, with no blocking, no fusion and
    /// no shared kernel: sort by worker id, compare replicas pairwise
    /// coordinate by coordinate, keep the first maximal group, then
    /// compare everyone against the winner again for the verdicts.
    fn reference_vote(replicas: &[(usize, Vec<f32>)], expected_workers: &[usize]) -> QuorumOutcome {
        let mut sorted: Vec<&(usize, Vec<f32>)> = replicas.iter().collect();
        sorted.sort_by_key(|(w, _)| *w);
        let same = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let support = |i: usize| sorted.iter().filter(|(_, g)| same(g, &sorted[i].1)).count();
        let mut winner = 0;
        for i in 1..sorted.len() {
            if support(i) > support(winner) {
                winner = i;
            }
        }
        let (winner_worker, value) = sorted[winner].clone();
        let mut verdicts: Vec<(usize, ReplicaVerdict)> = sorted
            .iter()
            .map(|(w, g)| {
                let agreed = same(g, &value);
                (
                    *w,
                    if agreed {
                        ReplicaVerdict::Agreed
                    } else {
                        ReplicaVerdict::Disagreed
                    },
                )
            })
            .collect();
        for w in expected_workers {
            if !sorted.iter().any(|(arrived, _)| arrived == w) {
                verdicts.push((*w, ReplicaVerdict::Absent));
            }
        }
        verdicts.sort_by_key(|(w, _)| *w);
        let (received, expected) = (sorted.len(), expected_workers.len());
        QuorumOutcome {
            votes: support(winner),
            received,
            winner_worker,
            is_strict: support(winner) * 2 > received,
            provenance: if received >= expected {
                Provenance::Full
            } else {
                Provenance::Degraded { received, expected }
            },
            audit: VoteAudit {
                replicas: verdicts,
                winner_hash: gradient_fingerprint(&value),
            },
            value,
        }
    }

    /// An outcome with its payload as bit patterns, so that NaN winners
    /// compare equal to themselves.
    fn by_bits(mut outcome: QuorumOutcome) -> (Vec<u32>, QuorumOutcome) {
        let value = std::mem::take(&mut outcome.value);
        (value.iter().map(|v| v.to_bits()).collect(), outcome)
    }

    /// `r` replicas of a `d`-vector of arbitrary bit patterns (NaN
    /// payloads included), each carrying one of a few dissents picked by
    /// a digit of `dissent` — first coordinate only, last coordinate
    /// only, the sign of a zero, a NaN payload bit, one interior
    /// coordinate — so equal dissenters form groups; then shuffled into
    /// an arbitrary arrival order.
    fn dissenting_replicas(
        ids: &[usize],
        bits: &[u32],
        dissent: u64,
        at: usize,
        shuffle: u64,
    ) -> Vec<(usize, Vec<f32>)> {
        let d = bits.len();
        let mut replicas: Vec<(usize, Vec<f32>)> = ids
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut g = bits.to_vec();
                if d > 0 {
                    match dissent / 6u64.pow(i as u32) % 6 {
                        0 => {}
                        1 => g[0] ^= 1,
                        2 => g[d - 1] ^= 1 << 31,
                        3 => g[at % d] = (-0.0f32).to_bits(),
                        4 => g[at % d] = f32::NAN.to_bits() ^ 1,
                        _ => g[at % d] ^= 0x10,
                    }
                }
                (w, g.into_iter().map(f32::from_bits).collect())
            })
            .collect();
        let mut state = shuffle | 1;
        for i in (1..replicas.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            replicas.swap(i, (state >> 33) as usize % (i + 1));
        }
        replicas
    }

    #[test]
    fn full_quorum_majority() {
        let h = vec![1.0f32, 2.0];
        let e = vec![9.0f32, 9.0];
        let out = quorum_vote(&pairs(&[0, 1, 2], &[h.clone(), e, h.clone()]), 1, 3).unwrap();
        assert_eq!(out.value, h);
        assert_eq!(out.votes, 2);
        assert_eq!(out.received, 3);
        assert!(out.is_strict);
        assert_eq!(out.provenance, Provenance::Full);
        assert_eq!(out.winner_worker, 0);
    }

    #[test]
    fn degraded_subset_votes() {
        let h = vec![0.5f32];
        let out = quorum_vote(&pairs(&[2, 7], &[h.clone(), h.clone()]), 2, 3).unwrap();
        assert_eq!(out.value, h);
        assert_eq!(
            out.provenance,
            Provenance::Degraded {
                received: 2,
                expected: 3
            }
        );
        assert_eq!(out.winner_worker, 2);
    }

    #[test]
    fn quorum_not_met() {
        let h = vec![0.5f32];
        assert_eq!(
            quorum_vote(&pairs(&[4], &[h]), 2, 3).unwrap_err(),
            QuorumError::QuorumNotMet { got: 1, needed: 2 }
        );
        assert_eq!(
            quorum_vote::<Vec<f32>>(&[], 1, 3).unwrap_err(),
            QuorumError::NoReplicas
        );
    }

    #[test]
    fn tie_breaks_by_smallest_worker_id() {
        let a = vec![1.0f32];
        let b = vec![2.0f32];
        // 1-1 tie: worker 3 holds `b`, worker 5 holds `a` → `b` wins.
        let out = quorum_vote(&pairs(&[5, 3], &[a.clone(), b.clone()]), 1, 3).unwrap();
        assert_eq!(out.value, b);
        assert_eq!(out.winner_worker, 3);
        // Arrival order must not matter.
        let out2 = quorum_vote(&pairs(&[3, 5], &[b.clone(), a]), 1, 3).unwrap();
        assert_eq!(out2.value, b);
        assert!(!out2.is_strict);
    }

    #[test]
    fn audit_records_losers_and_winner_hash() {
        let h = vec![1.0f32, 2.0];
        let e = vec![9.0f32, 9.0];
        let out =
            quorum_vote(&pairs(&[0, 1, 2], &[h.clone(), e.clone(), h.clone()]), 1, 3).unwrap();
        assert_eq!(
            out.audit.replicas,
            vec![
                (0, ReplicaVerdict::Agreed),
                (1, ReplicaVerdict::Disagreed),
                (2, ReplicaVerdict::Agreed),
            ]
        );
        assert_eq!(out.audit.winner_hash, gradient_fingerprint(&h));
        assert_ne!(out.audit.winner_hash, gradient_fingerprint(&e));
        assert_eq!(out.audit.count(ReplicaVerdict::Disagreed), 1);
        assert_eq!(out.audit.disagreeing().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn audited_vote_marks_absent_holders() {
        let h = vec![0.5f32];
        let out = quorum_vote_audited(&pairs(&[2, 7], &[h.clone(), h]), 1, &[2, 5, 7]).unwrap();
        assert_eq!(
            out.audit.replicas,
            vec![
                (2, ReplicaVerdict::Agreed),
                (5, ReplicaVerdict::Absent),
                (7, ReplicaVerdict::Agreed),
            ]
        );
        assert_eq!(out.audit.verdict_of(5), Some(ReplicaVerdict::Absent));
        assert_eq!(out.audit.verdict_of(3), None);
        assert_eq!(
            out.provenance,
            Provenance::Degraded {
                received: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let out = quorum_vote(&pairs(&[0, 1], &[vec![1.0, 2.0], vec![1.0]]), 1, 3);
        assert_eq!(
            out.unwrap_err(),
            QuorumError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn winners_feed_any_aggregator() {
        let winners = vec![
            QuorumOutcome {
                value: vec![1.0, 10.0],
                votes: 3,
                received: 3,
                winner_worker: 0,
                is_strict: true,
                provenance: Provenance::Full,
                audit: VoteAudit::default(),
            },
            QuorumOutcome {
                value: vec![3.0, 30.0],
                votes: 1,
                received: 2,
                winner_worker: 4,
                is_strict: false,
                provenance: Provenance::Degraded {
                    received: 2,
                    expected: 3,
                },
                audit: VoteAudit::default(),
            },
            QuorumOutcome {
                value: vec![2.0, 20.0],
                votes: 2,
                received: 2,
                winner_worker: 1,
                is_strict: true,
                provenance: Provenance::Degraded {
                    received: 2,
                    expected: 3,
                },
                audit: VoteAudit::default(),
            },
        ];
        let agg = aggregate_winners(&CoordinateMedian, winners).unwrap();
        assert_eq!(agg, vec![2.0, 20.0]);
        assert_eq!(
            aggregate_winners(&CoordinateMedian, Vec::new()).unwrap_err(),
            AggregationError::Empty
        );
    }

    #[test]
    fn borrowed_views_vote_identically_to_owned() {
        // Replicas as slices into one flat buffer — the arena shape.
        let slab: Vec<f32> = vec![1.0, 2.0, 9.0, 9.0, 1.0, 2.0];
        let views: Vec<(usize, &[f32])> =
            vec![(0, &slab[0..2]), (1, &slab[2..4]), (2, &slab[4..6])];
        let owned: Vec<(usize, Vec<f32>)> = views.iter().map(|(w, g)| (*w, g.to_vec())).collect();
        let a = quorum_vote(&views, 1, 3).unwrap();
        let b = quorum_vote(&owned, 1, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.value, vec![1.0, 2.0]);
    }

    #[test]
    fn parallel_vote_matches_sequential_loop() {
        // Many files with varied replica patterns: full agreement,
        // split votes, absences, empty (error) files.
        let h = vec![1.0f32, -2.0];
        let e = vec![7.0f32, 7.0];
        type OwnedFile = (Vec<(usize, Vec<f32>)>, Vec<usize>);
        let mut per_file: Vec<OwnedFile> = Vec::new();
        for f in 0..97usize {
            let holders = vec![f % 5, f % 5 + 5, f % 5 + 10];
            let replicas: Vec<(usize, Vec<f32>)> = match f % 4 {
                0 => holders.iter().map(|&w| (w, h.clone())).collect(),
                1 => vec![(holders[0], h.clone()), (holders[1], e.clone())],
                2 => vec![(holders[2], e.clone())],
                _ => Vec::new(),
            };
            per_file.push((replicas, holders));
        }
        let files: Vec<VoteInput<'_, Vec<f32>>> = per_file
            .iter()
            .map(|(r, w)| (r.as_slice(), w.as_slice()))
            .collect();

        let sequential: Vec<_> = files
            .iter()
            .map(|(r, w)| quorum_vote_audited(r, 1, w))
            .collect();
        let parallel = quorum_vote_all_audited(&files, 1);
        assert_eq!(parallel, sequential);
    }

    proptest! {
        /// The fused vote equals the naive reference — winner, votes,
        /// tie-break witness, strictness, provenance, every verdict and
        /// the winner hash — for r in 1..=7, d in 0..=300, NaN payloads,
        /// +0.0 vs -0.0, dissent in the first or last coordinate only,
        /// absent holders, and any arrival order.
        #[test]
        fn fused_vote_equals_naive_reference(
            ids in proptest::collection::btree_set(0usize..64, 1..=7),
            bits in proptest::collection::vec(any::<u32>(), 0..=300),
            zeros in any::<u64>(),
            dissent in 0u64..279_936,
            at in any::<usize>(),
            shuffle in any::<u64>(),
        ) {
            let ids: Vec<usize> = ids.into_iter().collect();
            // Plant +0.0 coordinates for the sign-of-zero dissent to hit.
            let bits: Vec<u32> = bits
                .iter()
                .enumerate()
                .map(|(c, &b)| if zeros >> (c % 64) & 1 == 1 { 0 } else { b })
                .collect();
            let replicas = dissenting_replicas(&ids, &bits, dissent, at, shuffle);
            let mut expected_workers = ids.clone();
            expected_workers.extend([64, 70]);
            let fused = quorum_vote_audited(&replicas, 1, &expected_workers).unwrap();
            prop_assert_eq!(by_bits(fused), by_bits(reference_vote(&replicas, &expected_workers)));
        }

        /// The same equivalence when the replicas span several vote
        /// blocks and the dissent sits on either side of a block edge:
        /// groups that split in different blocks must never re-merge.
        #[test]
        fn fused_vote_equals_naive_reference_across_blocks(
            ids in proptest::collection::btree_set(0usize..64, 1..=7),
            seed in any::<u32>(),
            tail in 0usize..3,
            dissent in 0u64..279_936,
            edge in 1usize..3,
            side in 0usize..2,
            shuffle in any::<u64>(),
        ) {
            let ids: Vec<usize> = ids.into_iter().collect();
            let d = 2 * VOTE_BLOCK + tail;
            let bits: Vec<u32> = (0..d as u32).map(|c| c.wrapping_mul(0x9e37_79b9) ^ seed).collect();
            let at = edge * VOTE_BLOCK - side;
            let replicas = dissenting_replicas(&ids, &bits, dissent, at, shuffle);
            let fused = quorum_vote_audited(&replicas, 1, &ids).unwrap();
            prop_assert_eq!(by_bits(fused), by_bits(reference_vote(&replicas, &ids)));
        }

        /// For any replica subset of size ≥ q_min with an honest
        /// majority, the degraded vote returns the honest gradient.
        #[test]
        fn honest_majority_always_wins(
            received in 1usize..=7,
            q_min in 1usize..=7,
            seed in 0u64..1_000,
        ) {
            prop_assume!(received >= q_min);
            // Honest majority: > received/2 honest replicas.
            let honest_count = received / 2 + 1;
            let honest = vec![1.25f32, -0.5, 3.0];
            let mut replicas = Vec::new();
            let mut s = seed;
            for i in 0..received {
                // Deterministic pseudo-random worker ids (distinct) and
                // Byzantine payloads.
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let grad = if i < honest_count {
                    honest.clone()
                } else {
                    vec![(s % 97) as f32, -7.0, (s % 13) as f32]
                };
                replicas.push((i * 3 + (s % 3) as usize, grad));
            }
            let out = quorum_vote(&replicas, q_min, 7).unwrap();
            prop_assert_eq!(&out.value, &honest);
            prop_assert!(out.votes >= honest_count);
        }

        /// Ties break to the value held by the smallest worker id, for
        /// any permutation of arrival order.
        #[test]
        fn tie_break_is_order_independent(
            ids in proptest::collection::btree_set(0usize..64, 2..=6),
            rotate in 0usize..6,
        ) {
            // All-distinct values → every group has one vote; the winner
            // must be the smallest id's value.
            let ids: Vec<usize> = ids.into_iter().collect();
            let min_id = *ids.iter().min().unwrap();
            let mut replicas: Vec<(usize, Vec<f32>)> = ids
                .iter()
                .map(|&w| (w, vec![w as f32, w as f32 * 2.0]))
                .collect();
            let len = replicas.len();
            replicas.rotate_left(rotate % len);
            let out = quorum_vote(&replicas, 1, 7).unwrap();
            prop_assert_eq!(out.winner_worker, min_id);
            prop_assert_eq!(out.value, vec![min_id as f32, min_id as f32 * 2.0]);
        }

        /// Winner, provenance AND the full `VoteAudit` are invariant
        /// under any permutation of replica arrival order — the pin the
        /// reputation layer needs: evidence must not depend on which
        /// replica happened to land first.
        #[test]
        fn winner_and_audit_are_permutation_invariant(
            ids in proptest::collection::btree_set(0usize..64, 1..=7),
            pattern in 0u32..128,
            rotate in 0usize..7,
            swap in 0usize..7,
        ) {
            // Two value groups spread over distinct worker ids.
            let ids: Vec<usize> = ids.into_iter().collect();
            let canonical: Vec<(usize, Vec<f32>)> = ids
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let v = if pattern >> i & 1 == 1 { vec![9.0f32, -1.0] } else { vec![1.0f32, 2.0] };
                    (w, v)
                })
                .collect();
            let baseline = quorum_vote_audited(&canonical, 1, &ids).unwrap();

            // An arbitrary permutation: rotate then swap two slots.
            let mut shuffled = canonical.clone();
            let len = shuffled.len();
            shuffled.rotate_left(rotate % len);
            shuffled.swap(swap % len, (swap / 2) % len);
            let permuted = quorum_vote_audited(&shuffled, 1, &ids).unwrap();

            prop_assert_eq!(&permuted.value, &baseline.value);
            prop_assert_eq!(permuted.winner_worker, baseline.winner_worker);
            prop_assert_eq!(permuted.provenance, baseline.provenance);
            prop_assert_eq!(&permuted.audit, &baseline.audit);
        }

        /// The degraded vote agrees with the happy-path `majority_vote`
        /// when every replica arrives in ascending worker order.
        #[test]
        fn agrees_with_full_majority_vote(
            n in 1usize..=7,
            pattern in 0u32..128,
        ) {
            let values: Vec<Vec<f32>> = (0..n)
                .map(|i| if pattern >> i & 1 == 1 { vec![9.0f32] } else { vec![1.0f32] })
                .collect();
            let full = crate::majority_vote(&values).unwrap();
            let with_ids: Vec<(usize, Vec<f32>)> =
                values.into_iter().enumerate().collect();
            let degraded = quorum_vote(&with_ids, 1, n).unwrap();
            prop_assert_eq!(degraded.value, full.value);
            prop_assert_eq!(degraded.votes, full.votes);
            prop_assert_eq!(degraded.is_strict, full.is_strict);
        }
    }
}
