//! Incremental, sharded per-file voting over chunked gradient frames.
//!
//! The batched path holds each worker's whole `d`-dimensional replica
//! until the vote. [`ShardedFileVoter`] instead votes each coordinate
//! range **as its chunks arrive**, and keeps one `d`-float assembly
//! buffer per file, reused across rounds:
//!
//! * the first chunk seen for a range is densified straight into the
//!   buffer at its offset: that range's group 0;
//! * a later chunk joins group 0 on its payload alone, checked against
//!   the buffer in place: a dense chunk by its bytes, a sparse one by its
//!   listed coordinates plus the count of the range's other nonzeros, so
//!   any sparse encoding of the same floats joins;
//! * only a chunk the payload check rejects (or a sign chunk, which it
//!   cannot settle) is densified, into one reusable `O(chunk_len)`
//!   scratch, and matched by value against the range's groups; a new
//!   value moves into a reused side slot.
//!
//! A replica is then just its tuple of per-shard group ids.
//! [`ShardedFileVoter::elect`] copies in only the winner's shards that
//! are not already in place and hands the buffer out as the winner; the
//! next round reclaims it once every holder of that winner dropped it,
//! and allocates a fresh one otherwise.
//!
//! The vote reproduces
//! [`quorum_vote_audited`](byz_aggregate::quorum_vote_audited)
//! **bit-identically** (winner value, votes, tie-break witness,
//! provenance, winner hash, full audit) via the shared shard fold
//! [`fold_shard_votes`](byz_aggregate::fold_shard_votes):
//!
//! * two replicas are whole-vector equal iff their per-shard group ids
//!   agree on every shard;
//! * the fold scans complete replicas in ascending worker order and
//!   keeps the first maximal group — the unsharded tie-break;
//! * the winner hash is the whole-vector fingerprint of the assembled
//!   winner.
//!
//! Degradation policy: a replica with *any* chunk missing, rejected
//! (forged geometry, inconsistent fields) or corrupt (checksum failure
//! at decode — the frame never reaches the voter) counts as **Absent**,
//! exactly like a dropped replica in the batched path.

use crate::chunk::{chunk_span, num_chunks, GradientChunkView};
use crate::message::{float_span, floats, floats_mut};
use bytes::{Bytes, BytesMut};
use byz_aggregate::{bits_eq, fold_shard_votes, gradient_fingerprint, QuorumError, QuorumOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// What [`ShardedFileVoter::ingest`] did with a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkIngest {
    /// The chunk was new and consistent; its range joined the vote.
    Accepted,
    /// The same `(worker, chunk_index)` was already ingested — the
    /// first delivery wins (per-worker channels are FIFO, so this is
    /// deterministic), the duplicate is dropped.
    Duplicate,
    /// The chunk disagreed with the negotiated geometry (wrong file,
    /// dimension, chunk count or span) — the whole replica is voided
    /// and the worker counts as absent for this file.
    Rejected,
}

/// A shard whose chunk has not arrived.
const MISSING: u32 = u32::MAX;

/// One worker's replica as it assembles.
#[derive(Debug)]
struct Keys {
    /// Group id per shard ([`MISSING`] until its chunk arrives).
    ids: Vec<u32>,
    /// Shards arrived: the replica is complete at `ids.len()`.
    arrived: usize,
}

/// A file's `d`-float assembly buffer: one allocation, 3 bytes longer
/// than the floats so they can start 4-aligned inside it.
#[derive(Debug, Default)]
enum Assembly {
    #[default]
    Unallocated,
    /// Written this round.
    Open(BytesMut),
    /// Handed out as a winner: the whole allocation, kept so the voter
    /// can tell when every view of it has been dropped.
    Elected(Bytes),
}

impl Assembly {
    /// The buffer to write, reclaiming the last election's allocation if
    /// nobody holds it any more, and allocating one otherwise.
    fn floats_mut(&mut self, len: usize) -> &mut [f32] {
        if let Assembly::Elected(block) = self {
            if let Ok(block) = BytesMut::try_from(std::mem::take(block)) {
                *self = Assembly::Open(block);
            }
        }
        if !matches!(self, Assembly::Open(_)) {
            let fresh = Bytes::from(vec![0u8; 4 * len + 3]);
            *self =
                Assembly::Open(BytesMut::try_from(fresh).expect("a fresh allocation is unique"));
        }
        let Assembly::Open(block) = self else {
            unreachable!("opened above")
        };
        let span = float_span(block, len);
        floats_mut(&mut block[span])
    }

    /// The buffer as written this round.
    fn floats(&self, len: usize) -> &[f32] {
        let Assembly::Open(block) = self else {
            panic!("a shard is read only after it was written this round")
        };
        floats(&block[float_span(block, len)])
    }

    /// Freezes the buffer and returns a view of its floats: a 4-aligned
    /// native-order run of `len` floats.
    fn elect(&mut self, len: usize) -> Bytes {
        let Assembly::Open(block) = std::mem::take(self) else {
            panic!("a complete replica wrote every shard")
        };
        let block = block.freeze();
        let winner = block.slice(float_span(&block, len));
        *self = Assembly::Elected(block);
        winner
    }
}

/// Incremental sharded vote state for one file, reset between rounds.
#[derive(Debug)]
pub struct ShardedFileVoter {
    file: u32,
    total_len: usize,
    chunk_len: usize,
    chunks: usize,
    /// Distinct values seen per shard this round. Group 0 lives in the
    /// assembly buffer at the shard's offset, group `g ≥ 1` in
    /// `side[s][g - 1]`; with honest majorities a shard holds one or two.
    groups: Vec<u32>,
    /// Per shard: group 0's coordinates that are not `+0.0`, once
    /// counted — what a sparse chunk is checked against.
    nonzero: Vec<Option<usize>>,
    /// Per shard: side slots, kept across rounds.
    side: Vec<Vec<Vec<f32>>>,
    assembly: Assembly,
    /// Whether this round's winner was handed out.
    elected: bool,
    replicas: BTreeMap<usize, Keys>,
    /// Replicas with every shard arrived.
    complete: usize,
    rejected: BTreeSet<usize>,
    /// The reusable densify buffer for chunks that do not join group 0
    /// from their payload, bounded by `chunk_len` however large `d` is.
    scratch: Vec<f32>,
    peak_scratch: usize,
}

impl ShardedFileVoter {
    /// A voter for `file` under the negotiated `(total_len, chunk_len)`
    /// geometry. Its assembly buffer is allocated by the first chunk.
    pub fn new(file: u32, total_len: usize, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(1);
        let chunks = num_chunks(total_len, chunk_len);
        ShardedFileVoter {
            file,
            total_len,
            chunk_len,
            chunks,
            groups: vec![0; chunks],
            nonzero: vec![None; chunks],
            side: (0..chunks).map(|_| Vec::new()).collect(),
            assembly: Assembly::Unallocated,
            elected: false,
            replicas: BTreeMap::new(),
            complete: 0,
            rejected: BTreeSet::new(),
            scratch: Vec::new(),
            peak_scratch: 0,
        }
    }

    /// Forgets every chunk ingested so far, keeping the geometry and
    /// every buffer, so the voter serves the next round.
    pub fn reset(&mut self) {
        self.groups.fill(0);
        self.replicas.clear();
        self.complete = 0;
        self.rejected.clear();
        self.peak_scratch = 0;
        self.elected = false;
    }

    /// Feeds one decoded chunk into the vote. Geometry that disagrees
    /// with the negotiated shape voids the sender's replica (see
    /// [`ChunkIngest::Rejected`]); nothing here panics on forged input.
    pub fn ingest(&mut self, view: &GradientChunkView) -> ChunkIngest {
        let worker = view.worker as usize;
        if self.rejected.contains(&worker) {
            return ChunkIngest::Rejected;
        }
        let index = view.chunk_index as usize;
        let (start, len) = chunk_span(self.total_len, self.chunk_len, index.min(self.chunks - 1));
        let consistent = view.file == self.file
            && view.total_len as usize == self.total_len
            && view.num_chunks as usize == self.chunks
            && index < self.chunks
            && view.start as usize == start
            && view.range_len as usize == len;
        if !consistent {
            if let Some(keys) = self.replicas.remove(&worker) {
                self.complete -= usize::from(keys.arrived == self.chunks);
            }
            self.rejected.insert(worker);
            return ChunkIngest::Rejected;
        }

        let chunks = self.chunks;
        let keys = self.replicas.entry(worker).or_insert_with(|| Keys {
            ids: vec![MISSING; chunks],
            arrived: 0,
        });
        if keys.ids[index] != MISSING {
            return ChunkIngest::Duplicate;
        }
        keys.arrived += 1;
        self.complete += usize::from(keys.arrived == chunks);
        let id = self.group_of(index, start, view);
        self.replicas.get_mut(&worker).expect("entered above").ids[index] = id;
        ChunkIngest::Accepted
    }

    /// The group of shard `s` (at `start`) that `view`'s value belongs
    /// to, opening a new one if no group holds it.
    fn group_of(&mut self, s: usize, start: usize, view: &GradientChunkView) -> u32 {
        let len = view.range_len as usize;
        let range = start..start + len;
        let groups = self.groups[s] as usize;
        if groups == 0 {
            debug_assert!(
                !self.elected,
                "no buffer is written after its file's election"
            );
            view.densify_to(&mut self.assembly.floats_mut(self.total_len)[range]);
            self.nonzero[s] = view.listed_nonzero();
            self.peak_scratch = self.peak_scratch.max(len);
            self.groups[s] = 1;
            return 0;
        }
        let resident = &self.assembly.floats(self.total_len)[range];
        let nonzero = &mut self.nonzero[s];
        let count =
            || *nonzero.get_or_insert_with(|| resident.iter().filter(|v| v.to_bits() != 0).count());
        let joins = view.densifies_to(resident, count);
        if joins == Some(true) {
            return 0;
        }
        // Another value, or an encoding its payload cannot settle:
        // compare by value.
        self.scratch.resize(len, 0.0);
        view.densify_to(&mut self.scratch);
        self.peak_scratch = self.peak_scratch.max(len);
        if joins.is_none() && bits_eq(resident, &self.scratch) {
            return 0;
        }
        let side = &mut self.side[s];
        if let Some(g) = side[..groups - 1]
            .iter()
            .position(|value| bits_eq(value, &self.scratch))
        {
            return g as u32 + 1;
        }
        // A new group: the scratch becomes its side slot, and the slot's
        // old allocation the scratch.
        if side.len() < groups {
            side.push(Vec::new());
        }
        std::mem::swap(&mut side[groups - 1], &mut self.scratch);
        self.groups[s] += 1;
        groups as u32
    }

    /// Workers whose replica is complete (every chunk arrived and none
    /// was rejected), in ascending order.
    pub fn complete_workers(&self) -> Vec<usize> {
        complete_replicas(&self.replicas, self.chunks).0
    }

    /// How many replicas are complete.
    pub fn complete_count(&self) -> usize {
        self.complete
    }

    /// Whether `worker`'s replica is complete.
    pub fn is_complete(&self, worker: usize) -> bool {
        self.replicas
            .get(&worker)
            .is_some_and(|keys| keys.arrived == self.chunks)
    }

    /// Largest range this voter ever densified, in its scratch or in
    /// place — the `O(chunk)` bound the bench asserts (compare against
    /// `O(d)` for the batched path).
    pub fn peak_decode_floats(&self) -> usize {
        self.peak_scratch
    }

    /// Runs the sharded vote over the complete replicas and returns a
    /// copy of the winner, leaving the voter as it was.
    ///
    /// Bit-identical to
    /// [`quorum_vote_audited`](byz_aggregate::quorum_vote_audited) over
    /// the densified complete replicas; incomplete or rejected replicas
    /// are marked [`Absent`](byz_aggregate::ReplicaVerdict::Absent) via
    /// `expected_workers`, exactly like dropped replicas. Valid until the
    /// round's [`elect`](Self::elect).
    ///
    /// # Errors
    ///
    /// [`QuorumError::NoReplicas`] / [`QuorumError::QuorumNotMet`] when
    /// fewer than `q_min` replicas completed.
    pub fn finalize(
        &self,
        q_min: usize,
        expected_workers: &[usize],
    ) -> Result<QuorumOutcome, QuorumError> {
        let (workers, keys) = quorum(&self.replicas, self.chunks, q_min)?;
        Ok(fold_shard_votes(
            &workers,
            &keys,
            expected_workers,
            |winner| {
                let mut value = Vec::with_capacity(self.total_len);
                for (s, &g) in keys[winner].iter().enumerate() {
                    let (start, len) = chunk_span(self.total_len, self.chunk_len, s);
                    value.extend_from_slice(match g {
                        0 => &self.assembly.floats(self.total_len)[start..start + len],
                        g => &self.side[s][g as usize - 1],
                    });
                }
                let hash = gradient_fingerprint(&value);
                (value, hash)
            },
        ))
    }

    /// The round's vote, as [`finalize`](Self::finalize), with the winner
    /// left where it is assembled: the winning shards not already in the
    /// assembly buffer are copied in, and the buffer is returned as a
    /// 4-aligned native-order run of `d` floats. Nothing writes to it
    /// again before [`reset`](Self::reset); the next round reuses it once
    /// every copy of the returned `Bytes` is dropped.
    ///
    /// # Errors
    ///
    /// As [`finalize`](Self::finalize).
    pub fn elect(
        &mut self,
        q_min: usize,
        expected_workers: &[usize],
    ) -> Result<QuorumOutcome<Bytes>, QuorumError> {
        debug_assert!(!self.elected, "one election per round");
        let (total_len, chunk_len) = (self.total_len, self.chunk_len);
        let (workers, keys) = quorum(&self.replicas, self.chunks, q_min)?;
        let (assembly, side) = (&mut self.assembly, &self.side);
        let outcome = fold_shard_votes(&workers, &keys, expected_workers, |winner| {
            let floats = assembly.floats_mut(total_len);
            for (s, &g) in keys[winner].iter().enumerate().filter(|(_, &g)| g != 0) {
                let (start, len) = chunk_span(total_len, chunk_len, s);
                floats[start..start + len].copy_from_slice(&side[s][g as usize - 1]);
            }
            let hash = gradient_fingerprint(floats);
            (assembly.elect(total_len), hash)
        });
        self.elected = true;
        Ok(outcome)
    }
}

/// The complete replicas' workers and group-id tuples, in ascending
/// worker order.
fn complete_replicas(replicas: &BTreeMap<usize, Keys>, chunks: usize) -> (Vec<usize>, Vec<&[u32]>) {
    replicas
        .iter()
        .filter(|(_, keys)| keys.arrived == chunks)
        .map(|(&w, keys)| (w, keys.ids.as_slice()))
        .unzip()
}

/// [`complete_replicas`], refused below `q_min`.
fn quorum(
    replicas: &BTreeMap<usize, Keys>,
    chunks: usize,
    q_min: usize,
) -> Result<(Vec<usize>, Vec<&[u32]>), QuorumError> {
    let (workers, keys) = complete_replicas(replicas, chunks);
    if workers.is_empty() {
        return Err(QuorumError::NoReplicas);
    }
    if workers.len() < q_min {
        return Err(QuorumError::QuorumNotMet {
            got: workers.len(),
            needed: q_min,
        });
    }
    Ok((workers, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{
        decode_gradient_chunk, encode_gradient_chunks, ChunkConfig, ChunkScheme, SparsifyConfig,
    };
    use crate::FRAME_HEADER_LEN;
    use bytes::{Bytes, BytesMut};
    use byz_aggregate::{quorum_vote_audited, ReplicaVerdict};
    use proptest::prelude::*;

    fn frames(worker: u32, g: &[f32], cfg: &ChunkConfig) -> Vec<Bytes> {
        encode_gradient_chunks(1, worker, 0, g, cfg)
    }

    fn ingest_all(voter: &mut ShardedFileVoter, frames: &[Bytes]) {
        for f in frames {
            let view = decode_gradient_chunk(f).unwrap();
            assert_ne!(voter.ingest(&view), ChunkIngest::Rejected);
        }
    }

    #[test]
    fn chunked_vote_matches_unsharded_reference() {
        let h: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let mut e = h.clone();
        e[20] = 99.0;
        let cfg = ChunkConfig::dense(8);
        let mut voter = ShardedFileVoter::new(0, h.len(), 8);
        for (w, g) in [(0u32, &h), (3, &e), (5, &h), (9, &e)] {
            ingest_all(&mut voter, &frames(w, g, &cfg));
        }
        let expected = [0usize, 3, 5, 9, 11];
        let outcome = voter.finalize(1, &expected).unwrap();
        let replicas: Vec<(usize, Vec<f32>)> = vec![(0, h.clone()), (3, e.clone()), (5, h), (9, e)];
        let reference = quorum_vote_audited(&replicas, 1, &expected).unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn ingest_order_does_not_matter() {
        let h: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let e: Vec<f32> = (0..20).map(|i| -(i as f32)).collect();
        let cfg = ChunkConfig::dense(6);
        let mut forward = ShardedFileVoter::new(0, 20, 6);
        let mut backward = ShardedFileVoter::new(0, 20, 6);
        let all: Vec<Bytes> = [(0u32, &h), (2, &e), (7, &h)]
            .iter()
            .flat_map(|(w, g)| frames(*w, g, &cfg))
            .collect();
        ingest_all(&mut forward, &all);
        let reversed: Vec<Bytes> = all.iter().rev().cloned().collect();
        ingest_all(&mut backward, &reversed);
        let expected = [0usize, 2, 7];
        assert_eq!(
            forward.finalize(1, &expected).unwrap(),
            backward.finalize(1, &expected).unwrap()
        );
    }

    #[test]
    fn missing_chunk_degrades_like_dropped_replica() {
        let h = vec![1.0f32; 16];
        let cfg = ChunkConfig::dense(4);
        let mut voter = ShardedFileVoter::new(0, 16, 4);
        ingest_all(&mut voter, &frames(0, &h, &cfg));
        // Worker 4 delivers all but one chunk.
        let partial = frames(4, &h, &cfg);
        ingest_all(&mut voter, &partial[..3]);
        assert_eq!(voter.complete_workers(), vec![0]);
        let outcome = voter.finalize(1, &[0, 4]).unwrap();
        assert_eq!(outcome.received, 1);
        assert_eq!(outcome.audit.verdict_of(4), Some(ReplicaVerdict::Absent));
        // Identical to the batched path where worker 4's frame dropped.
        let reference = quorum_vote_audited(&[(0usize, h)], 1, &[0, 4]).unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn forged_geometry_voids_the_replica() {
        let h = vec![2.0f32; 12];
        let cfg = ChunkConfig::dense(4);
        let mut voter = ShardedFileVoter::new(0, 12, 4);
        ingest_all(&mut voter, &frames(1, &h, &cfg));
        // Worker 6 lies about the chunk count.
        let bad = frames(6, &h, &ChunkConfig::dense(6));
        let view = decode_gradient_chunk(&bad[0]).unwrap();
        assert_eq!(voter.ingest(&view), ChunkIngest::Rejected);
        // Even later well-formed chunks from the same worker are void.
        let good = frames(6, &h, &cfg);
        let view = decode_gradient_chunk(&good[0]).unwrap();
        assert_eq!(voter.ingest(&view), ChunkIngest::Rejected);
        let outcome = voter.finalize(1, &[1, 6]).unwrap();
        assert_eq!(outcome.audit.verdict_of(6), Some(ReplicaVerdict::Absent));
        // Wrong-file and wrong-dimension chunks are rejected too.
        let mut voter2 = ShardedFileVoter::new(3, 12, 4);
        let other_file = encode_gradient_chunks(1, 0, 9, &h, &cfg);
        let view = decode_gradient_chunk(&other_file[0]).unwrap();
        assert_eq!(voter2.ingest(&view), ChunkIngest::Rejected);
    }

    #[test]
    fn duplicates_keep_first_delivery() {
        let h = vec![1.0f32; 8];
        let cfg = ChunkConfig::dense(8);
        let mut voter = ShardedFileVoter::new(0, 8, 8);
        let fs = frames(2, &h, &cfg);
        let view = decode_gradient_chunk(&fs[0]).unwrap();
        assert_eq!(voter.ingest(&view), ChunkIngest::Accepted);
        assert_eq!(voter.ingest(&view), ChunkIngest::Duplicate);
        assert_eq!(voter.complete_workers(), vec![2]);
    }

    #[test]
    fn decode_scratch_is_chunk_sized_not_model_sized() {
        let d = 10_000usize;
        let chunk = 256usize;
        let g: Vec<f32> = (0..d).map(|i| (i % 97) as f32).collect();
        let cfg = ChunkConfig::dense(chunk);
        let mut voter = ShardedFileVoter::new(0, d, chunk);
        for w in 0..3u32 {
            ingest_all(&mut voter, &frames(w, &g, &cfg));
        }
        assert_eq!(voter.peak_decode_floats(), chunk);
        let outcome = voter.finalize(1, &[0, 1, 2]).unwrap();
        assert_eq!(outcome.value, g);
        assert_eq!(outcome.votes, 3);
    }

    #[test]
    fn sparse_and_sign_chunks_vote_consistently() {
        let g: Vec<f32> = (0..50).map(|i| ((i * 13 % 11) as f32) - 5.0).collect();
        for scheme in [
            ChunkScheme::TopK(SparsifyConfig::top_k(3, 42)),
            ChunkScheme::Signs,
        ] {
            let cfg = ChunkConfig {
                chunk_len: 16,
                scheme,
            };
            let mut voter = ShardedFileVoter::new(0, 50, 16);
            for w in [0u32, 1, 2] {
                ingest_all(&mut voter, &frames(w, &g, &cfg));
            }
            let outcome = voter.finalize(1, &[0, 1, 2]).unwrap();
            assert_eq!(outcome.votes, 3, "honest replicas stay bit-identical");
            let reference = crate::chunk::apply_scheme(&g, &cfg);
            assert_eq!(outcome.value, reference);
        }
    }

    /// An election's winner as floats, so it compares with a reference
    /// outcome.
    fn elected_floats(outcome: QuorumOutcome<Bytes>) -> QuorumOutcome {
        outcome.map_value(|run| elected_floats_of(&run))
    }

    #[test]
    fn election_copies_in_the_winning_shards_a_byzantine_chunk_displaced() {
        let d = 40;
        let h: Vec<f32> = (0..d).map(|i| i as f32 * 0.75 - 4.0).collect();
        let b: Vec<f32> = h.iter().map(|v| -8.0 * v).collect();
        let cfg = ChunkConfig::dense(8);
        let mut voter = ShardedFileVoter::new(0, d, 8);
        // The Byzantine worker's chunks 1 and 3 arrive first and open
        // group 0 of their shards; the honest values land in side slots.
        let byzantine = frames(4, &b, &cfg);
        ingest_all(&mut voter, &[byzantine[1].clone(), byzantine[3].clone()]);
        ingest_all(&mut voter, &frames(0, &h, &cfg));
        ingest_all(&mut voter, &byzantine);
        ingest_all(&mut voter, &frames(7, &h, &cfg));
        assert_eq!(voter.groups, vec![2; 5], "every shard holds both values");

        let expected = [0usize, 4, 7];
        let reference =
            quorum_vote_audited(&[(0usize, h.clone()), (4, b), (7, h.clone())], 1, &expected)
                .unwrap();
        assert_eq!(voter.finalize(1, &expected).unwrap(), reference);
        let elected = voter.elect(1, &expected).unwrap();
        assert_eq!(elected_floats(elected), reference);
        assert_eq!(reference.value, h);
    }

    /// Worker `w`'s chunk `index` of a `d`-float replica of file 0, cut
    /// at `chunk_len` and sparse-encoded with exactly `entries` (range
    /// index, value).
    fn sparse_chunk(
        w: u32,
        d: usize,
        chunk_len: usize,
        index: usize,
        entries: &[(u32, f32)],
    ) -> Bytes {
        use crate::message::{seal_in_place, KIND_GRADIENT_CHUNK};
        use bytes::BufMut;
        let (start, len) = chunk_span(d, chunk_len, index);
        let mut frame = BytesMut::new();
        frame.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        frame.put_u64_le(1);
        for field in [
            w,
            0,
            index as u32,
            num_chunks(d, chunk_len) as u32,
            start as u32,
        ] {
            frame.put_u32_le(field);
        }
        frame.put_u32_le(len as u32);
        frame.put_u32_le(d as u32);
        frame.put_u8(1);
        frame.put_u32_le(entries.len() as u32);
        entries.iter().for_each(|&(i, _)| frame.put_u32_le(i));
        entries.iter().for_each(|&(_, v)| frame.put_f32_le(v));
        seal_in_place(KIND_GRADIENT_CHUNK, &mut frame);
        frame.freeze()
    }

    #[test]
    fn a_sparse_re_encoding_with_an_explicit_zero_joins_its_group_from_its_payload() {
        let (d, chunk_len) = (16, 8);
        // Chunk 0 keeps coordinates 1 and 5; chunk 1 keeps coordinate 2.
        let honest: [&[(u32, f32)]; 2] = [&[(1, 2.5), (5, -1.0)], &[(2, 4.0)]];
        let padded: &[(u32, f32)] = &[(1, 2.5), (3, 0.0), (5, -1.0)];
        // Agrees on every coordinate it lists, but drops coordinate 5.
        let short: &[(u32, f32)] = &[(1, 2.5)];
        let mut voter = ShardedFileVoter::new(0, d, chunk_len);
        for w in [0u32, 2] {
            for (index, entries) in honest.iter().enumerate() {
                ingest_all(&mut voter, &[sparse_chunk(w, d, chunk_len, index, entries)]);
            }
        }
        let frame = sparse_chunk(5, d, chunk_len, 0, padded);
        let honest_frame = sparse_chunk(0, d, chunk_len, 0, honest[0]);
        assert_ne!(
            frame[FRAME_HEADER_LEN + 12..],
            honest_frame[FRAME_HEADER_LEN + 12..]
        );
        ingest_all(
            &mut voter,
            &[frame, sparse_chunk(5, d, chunk_len, 1, honest[1])],
        );
        assert_eq!(voter.groups, vec![1, 1], "the re-encoding opened no group");
        assert!(
            voter.scratch.is_empty(),
            "settled from the payloads, nothing densified"
        );
        ingest_all(&mut voter, &[sparse_chunk(7, d, chunk_len, 0, short)]);
        ingest_all(&mut voter, &[sparse_chunk(7, d, chunk_len, 1, honest[1])]);
        assert_eq!(
            voter.groups,
            vec![2, 1],
            "a dropped coordinate is another value"
        );

        let mut dense = vec![0.0f32; d];
        (dense[1], dense[5], dense[chunk_len + 2]) = (2.5, -1.0, 4.0);
        let mut replicas: Vec<(usize, Vec<f32>)> = [0, 2, 5].map(|w| (w, dense.clone())).to_vec();
        dense[5] = 0.0;
        replicas.push((7, dense));
        let reference = quorum_vote_audited(&replicas, 1, &[0, 2, 5, 7]).unwrap();
        assert_eq!(reference.votes, 3);
        assert_eq!(
            elected_floats(voter.elect(1, &[0, 2, 5, 7]).unwrap()),
            reference
        );
    }

    #[test]
    fn elections_equal_the_reference_for_every_arrival_order() {
        let d = 23;
        let h: Vec<f32> = (0..d).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut e = h.clone();
        e[9] = f32::NAN;
        e[d - 1] = -0.0;
        let workers = [1usize, 3, 4, 8, 9];
        let sparse = ChunkConfig {
            chunk_len: 5,
            scheme: ChunkScheme::TopK(SparsifyConfig::top_k(2, 9)),
        };
        for cfg in [ChunkConfig::dense(5), sparse] {
            for pattern in 0u32..32 {
                let grads: Vec<&Vec<f32>> = (0..workers.len())
                    .map(|i| if pattern >> i & 1 == 1 { &e } else { &h })
                    .collect();
                let mut stream: Vec<Bytes> = workers
                    .iter()
                    .zip(&grads)
                    .flat_map(|(&w, g)| frames(w as u32, g, &cfg))
                    .collect();
                let shift = pattern as usize % stream.len();
                stream.rotate_left(shift);
                if pattern % 2 == 1 {
                    stream.reverse();
                }
                let mut voter = ShardedFileVoter::new(0, d, 5);
                ingest_all(&mut voter, &stream);
                let replicas: Vec<(usize, Vec<f32>)> = workers
                    .iter()
                    .zip(&grads)
                    .map(|(&w, g)| (w, crate::chunk::apply_scheme(g, &cfg)))
                    .collect();
                let reference = quorum_vote_audited(&replicas, 1, &workers).unwrap();
                let elected = elected_floats(voter.elect(1, &workers).unwrap());
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let case = format!("{:?} pattern {pattern}", cfg.scheme);
                assert_eq!(bits(&elected.value), bits(&reference.value), "{case}");
                assert_eq!(elected.audit, reference.audit, "{case}");
                assert_eq!(elected.winner_worker, reference.winner_worker, "{case}");
            }
        }
    }

    #[test]
    fn a_held_winner_survives_the_next_round_and_a_dropped_one_is_reused() {
        let d = 12;
        let cfg = ChunkConfig::dense(4);
        let round = |voter: &mut ShardedFileVoter, g: &[f32]| {
            voter.reset();
            for w in [0u32, 1, 2] {
                ingest_all(voter, &frames(w, g, &cfg));
            }
            voter.elect(2, &[0, 1, 2]).unwrap().value
        };
        let (one, two) = (vec![1.5f32; d], vec![-2.5f32; d]);
        let mut voter = ShardedFileVoter::new(0, d, 4);
        let first = round(&mut voter, &one);
        // Held: the next round writes a fresh buffer, never this one.
        let second = round(&mut voter, &two);
        assert_ne!(first.as_ptr(), second.as_ptr());
        assert_eq!(elected_floats_of(&first), one);
        assert_eq!(elected_floats_of(&second), two);
        // Dropped: the next round reclaims it.
        let at = second.as_ptr();
        drop((first, second));
        let third = round(&mut voter, &one);
        assert_eq!(third.as_ptr(), at, "steady state allocates no buffer");
        assert_eq!(elected_floats_of(&third), one);
    }

    fn elected_floats_of(run: &Bytes) -> Vec<f32> {
        run.chunks_exact(4)
            .map(|w| f32::from_ne_bytes([w[0], w[1], w[2], w[3]]))
            .collect()
    }

    proptest! {
        /// For arbitrary per-(worker, chunk) drop patterns and arbitrary
        /// delivery order, the incremental vote equals the batched-path
        /// reference: `quorum_vote_audited` over exactly the replicas
        /// whose chunks all survived.
        #[test]
        fn incremental_vote_equals_reference_under_drops(
            d in 1usize..60,
            chunk_len in 1usize..24,
            drops in 0u64..u64::MAX,
            pattern in 0u32..32,
            rotate in 0usize..64,
        ) {
            let workers = [0usize, 2, 3, 5, 8];
            let h: Vec<f32> = (0..d).map(|i| (i as f32) * 0.25).collect();
            let e: Vec<f32> = (0..d).map(|i| (i as f32) - 7.0).collect();
            let cfg = ChunkConfig::dense(chunk_len);
            let chunks = num_chunks(d, chunk_len);

            // Encode every replica, then drop chunks per the bit mask.
            let mut delivered: Vec<Bytes> = Vec::new();
            let mut survivors: Vec<(usize, Vec<f32>)> = Vec::new();
            for (i, &w) in workers.iter().enumerate() {
                let g = if pattern >> i & 1 == 1 { &e } else { &h };
                let fs = frames(w as u32, g, &cfg);
                let mut kept = 0usize;
                for (c, f) in fs.iter().enumerate() {
                    if drops >> ((i * chunks + c) % 64) & 1 == 0 {
                        delivered.push(f.clone());
                        kept += 1;
                    }
                }
                if kept == chunks {
                    survivors.push((w, g.clone()));
                }
            }
            let len = delivered.len().max(1);
            delivered.rotate_left(rotate % len);

            let mut voter = ShardedFileVoter::new(0, d, chunk_len);
            for f in &delivered {
                voter.ingest(&decode_gradient_chunk(f).unwrap());
            }
            let expected: Vec<usize> = workers.to_vec();
            let incremental = voter.finalize(1, &expected);
            let reference = quorum_vote_audited(&survivors, 1, &expected);
            match (incremental, reference) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
            }
        }

        /// The streaming engine's correctness rests on this: finalize
        /// (winner value, full audit, rejections) is invariant under ANY
        /// permutation of chunk-frame arrival order — with byte-identical
        /// duplicate frames and forged-geometry frames interleaved at
        /// arbitrary positions. Group ids may be assigned in a different
        /// first-seen order, but the vote folds over value equality, so
        /// the outcome cannot depend on the schedule.
        #[test]
        fn finalize_is_invariant_under_arrival_permutation(
            d in 1usize..48,
            chunk_len in 1usize..16,
            pattern in 0u32..16,
            dup_mask in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let workers = [0usize, 1, 4, 6];
            let h: Vec<f32> = (0..d).map(|i| (i as f32) * 0.5).collect();
            let e: Vec<f32> = (0..d).map(|i| 3.0 - i as f32).collect();
            let cfg = ChunkConfig::dense(chunk_len);

            // Canonical stream: honest/equivocating replicas per
            // `pattern`, every frame optionally duplicated per
            // `dup_mask`, and worker 6 poisoned with forged-geometry
            // frames (a total_len lie) that void its replica wherever
            // they land in the order.
            let mut stream: Vec<Bytes> = Vec::new();
            for (i, &w) in workers.iter().enumerate() {
                let g = if pattern >> i & 1 == 1 { &e } else { &h };
                for (c, f) in frames(w as u32, g, &cfg).iter().enumerate() {
                    stream.push(f.clone());
                    if dup_mask >> ((i * 16 + c) % 64) & 1 == 1 {
                        stream.push(f.clone());
                    }
                }
            }
            let long: Vec<f32> = (0..d + 1).map(|i| i as f32).collect();
            stream.extend(encode_gradient_chunks(1, 6, 0, &long, &cfg));

            let mut canonical = ShardedFileVoter::new(0, d, chunk_len);
            for f in &stream {
                canonical.ingest(&decode_gradient_chunk(f).unwrap());
            }

            // Fisher-Yates driven by an LCG: reaches any permutation.
            let mut order: Vec<usize> = (0..stream.len()).collect();
            let mut state = seed | 1;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let mut permuted = ShardedFileVoter::new(0, d, chunk_len);
            for &i in &order {
                permuted.ingest(&decode_gradient_chunk(&stream[i]).unwrap());
            }

            // Forged geometry voids worker 6 in every order; the other
            // workers complete in every order.
            let complete = canonical.complete_workers();
            prop_assert_eq!(complete.as_slice(), &[0usize, 1, 4]);
            prop_assert_eq!(complete, permuted.complete_workers());

            let expected = [0usize, 1, 4, 6, 9];
            match (canonical.finalize(2, &expected), permuted.finalize(2, &expected)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
            }
        }
    }
}
