//! Incremental, sharded per-file voting over chunked gradient frames.
//!
//! The batched path decodes a worker's whole `d`-dimensional replica
//! before voting, so the PS's peak decode buffer is `O(d)` *per worker*.
//! [`ShardedFileVoter`] instead votes each coordinate range **as its
//! chunks arrive**: every [`GradientChunkView`] is densified into one
//! reusable `O(chunk_len)` scratch buffer, matched bit-wise against the
//! per-shard group representatives seen so far, and reduced to a small
//! group id. A replica is then just its tuple of per-shard group ids —
//! full-model assembly happens exactly once, for the winner.
//!
//! [`ShardedFileVoter::finalize`] reproduces
//! [`quorum_vote_audited`](byz_aggregate::quorum_vote_audited)
//! **bit-identically** (winner value, votes, tie-break witness,
//! provenance, winner hash, full audit) via the shared shard fold
//! [`fold_shard_votes`](byz_aggregate::fold_shard_votes):
//!
//! * two replicas are whole-vector equal iff their per-shard group ids
//!   agree on every shard;
//! * the fold scans complete replicas in ascending worker order and
//!   keeps the first maximal group — the unsharded tie-break;
//! * the winner hash chains `FingerprintFold` through the shards in
//!   ascending range order, which equals the whole-vector fingerprint
//!   because the fold keys its lanes by absolute coordinate offset.
//!
//! Degradation policy: a replica with *any* chunk missing, rejected
//! (forged geometry, inconsistent fields) or corrupt (checksum failure
//! at decode — the frame never reaches the voter) counts as **Absent**,
//! exactly like a dropped replica in the batched path.

use crate::chunk::{chunk_span, num_chunks, GradientChunkView};
use byz_aggregate::{bits_eq, fold_shard_votes, QuorumError, QuorumOutcome};
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

/// Incremental sharded vote state for one file of one round.
#[derive(Debug)]
pub struct ShardedFileVoter {
    file: u32,
    total_len: usize,
    chunk_len: usize,
    chunks: usize,
    /// `shards[s]` = the distinct densified values seen for shard `s`,
    /// in first-seen order; with honest majorities this stays at one or
    /// two entries per shard, so winner-side storage is `O(d · groups)`,
    /// not `O(d · replicas)`.
    shards: Vec<Vec<Vec<f32>>>,
    /// Per worker: group id per chunk (`None` = not yet arrived).
    replicas: BTreeMap<usize, Vec<Option<u32>>>,
    rejected: BTreeSet<usize>,
    /// The single reusable densify buffer — the only per-chunk decode
    /// scratch, bounded by `chunk_len` however large `d` is.
    scratch: Vec<f32>,
    peak_scratch: usize,
}

impl ShardedFileVoter {
    /// A voter for `file` under the negotiated `(total_len, chunk_len)`
    /// geometry.
    pub fn new(file: u32, total_len: usize, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(1);
        let chunks = num_chunks(total_len, chunk_len);
        ShardedFileVoter {
            file,
            total_len,
            chunk_len,
            chunks,
            shards: vec![Vec::new(); chunks],
            replicas: BTreeMap::new(),
            rejected: BTreeSet::new(),
            scratch: Vec::new(),
            peak_scratch: 0,
        }
    }

    /// Forgets every chunk ingested so far, keeping the geometry, so the
    /// voter serves the next round.
    pub fn reset(&mut self) {
        self.shards.iter_mut().for_each(Vec::clear);
        self.replicas.clear();
        self.rejected.clear();
        self.peak_scratch = 0;
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
            self.replicas.remove(&worker);
            self.rejected.insert(worker);
            return ChunkIngest::Rejected;
        }

        let slots = self
            .replicas
            .entry(worker)
            .or_insert_with(|| vec![None; self.chunks]);
        if slots[index].is_some() {
            return ChunkIngest::Duplicate;
        }

        self.scratch.clear();
        view.densify_into(&mut self.scratch);
        self.peak_scratch = self.peak_scratch.max(self.scratch.len());
        let groups = &mut self.shards[index];
        let id = match groups.iter().position(|g| bits_eq(g, &self.scratch)) {
            Some(id) => id as u32,
            None => {
                groups.push(self.scratch.clone());
                (groups.len() - 1) as u32
            }
        };
        slots[index] = Some(id);
        ChunkIngest::Accepted
    }

    /// Workers whose replica is complete (every chunk arrived and none
    /// was rejected), in ascending order.
    pub fn complete_workers(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .filter(|(_, slots)| slots.iter().all(Option::is_some))
            .map(|(&w, _)| w)
            .collect()
    }

    /// Largest densified range this voter ever decoded — the `O(chunk)`
    /// bound the bench asserts (compare against `O(d)` for the batched
    /// path).
    pub fn peak_decode_floats(&self) -> usize {
        self.peak_scratch
    }

    /// Runs the sharded vote over the complete replicas.
    ///
    /// Bit-identical to
    /// [`quorum_vote_audited`](byz_aggregate::quorum_vote_audited) over
    /// the densified complete replicas; incomplete or rejected replicas
    /// are marked [`Absent`](byz_aggregate::ReplicaVerdict::Absent) via
    /// `expected_workers`, exactly like dropped replicas.
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
        let complete: Vec<(usize, Vec<u32>)> = self
            .replicas
            .iter()
            .filter_map(|(&w, slots)| {
                slots
                    .iter()
                    .copied()
                    .collect::<Option<Vec<u32>>>()
                    .map(|key| (w, key))
            })
            .collect();
        if complete.is_empty() {
            return Err(QuorumError::NoReplicas);
        }
        if complete.len() < q_min {
            return Err(QuorumError::QuorumNotMet {
                got: complete.len(),
                needed: q_min,
            });
        }
        let workers: Vec<usize> = complete.iter().map(|(w, _)| *w).collect();
        let keys: Vec<&[u32]> = complete.iter().map(|(_, k)| k.as_slice()).collect();
        Ok(fold_shard_votes(
            &workers,
            &keys,
            expected_workers,
            self.chunks,
            |s, winner| &self.shards[s][keys[winner][s] as usize],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{
        decode_gradient_chunk, encode_gradient_chunks, ChunkConfig, ChunkScheme, SparsifyConfig,
    };
    use bytes::Bytes;
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
