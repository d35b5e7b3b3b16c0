//! Vote-on-hash: the communication-efficient majority protocol.
//!
//! The paper's conclusion lists "algorithmic improvements to make
//! [ByzShield] more communication-efficient" as future work. This module
//! implements the natural one: since honest replicas of a file are
//! bit-identical (paper Section 2), the majority vote of Eq. (3) can be
//! taken over *fingerprints* instead of full gradients:
//!
//! 1. every worker sends, per assigned file, a 16-byte fingerprint of its
//!    gradient (hash announce phase);
//! 2. the PS majority-votes the fingerprints of each file, then requests
//!    the full payload of each winning fingerprint from ONE worker that
//!    announced it (pull phase);
//! 3. the delivered payload is verified against the winning fingerprint
//!    before use, so a worker cannot bait-and-switch.
//!
//! Uplink traffic drops from `K·l` full gradients (`K·l·d` floats) to
//! `K·l` fingerprints plus `f` gradients — for the paper's K = 25
//! cluster, a **5× reduction** (`f = K·l/r`), and the protocol's
//! robustness is *unchanged*: corrupting a vote still requires `r′`
//! colluding replicas, because fingerprints are voted exactly like values
//! were.
//!
//! Fingerprints are 128-bit to make accidental collisions negligible and
//! engineered collisions pointless: a Byzantine worker that announces an
//! honest fingerprint must then *deliver a matching payload* (i.e. the
//! honest gradient) or be caught by the verification step.

use crate::round::RoundResult;
use crate::{Assignment, Message};
use bytes::{Buf, BufMut, Bytes};
use byz_aggregate::{ReplicaVerdict, VoteAudit};
use crossbeam::channel::Sender;
use std::time::Instant;

/// A 128-bit gradient fingerprint (two independent FNV-1a streams over
/// the raw little-endian bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// Fingerprints a gradient.
    pub fn of(gradient: &[f32]) -> Self {
        let mut h1 = 0xcbf2_9ce4_8422_2325u64;
        let mut h2 = 0x6c62_272e_07bb_0142u64; // distinct offset basis
        for &g in gradient {
            for b in g.to_le_bytes() {
                h1 ^= u64::from(b);
                h1 = h1.wrapping_mul(0x1000_0000_01b3);
                h2 = h2.wrapping_mul(0x1000_0000_01b3);
                h2 ^= u64::from(b).rotate_left(17);
            }
        }
        Fingerprint(h1, h2)
    }

    /// Serializes into 16 bytes.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.0);
        buf.put_u64_le(self.1);
    }

    /// Reads 16 bytes back.
    pub fn read_from(buf: &mut impl Buf) -> Self {
        Fingerprint(buf.get_u64_le(), buf.get_u64_le())
    }
}

/// Outcome of the fingerprint vote for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashVoteOutcome {
    /// The winning fingerprint.
    pub winner: Fingerprint,
    /// How many replicas announced it.
    pub votes: usize,
    /// Workers that announced the winner (candidates for the pull phase),
    /// ascending.
    pub holders: Vec<usize>,
    /// Whether the winner had a strict majority.
    pub is_strict: bool,
}

/// Majority vote over per-replica fingerprints; ties broken by first
/// appearance (matching [`byz_aggregate::majority_vote`] semantics).
///
/// Returns `None` on empty input.
pub fn hash_majority(announcements: &[(usize, Fingerprint)]) -> Option<HashVoteOutcome> {
    if announcements.is_empty() {
        return None;
    }
    let n = announcements.len();
    let mut best: Option<(Fingerprint, usize)> = None;
    for (_, fp) in announcements {
        let votes = announcements.iter().filter(|(_, f)| f == fp).count();
        match best {
            Some((_, b)) if votes <= b => {}
            _ => best = Some((*fp, votes)),
        }
    }
    let (winner, votes) = best.expect("nonempty input");
    let mut holders: Vec<usize> = announcements
        .iter()
        .filter(|(_, f)| *f == winner)
        .map(|(w, _)| *w)
        .collect();
    holders.sort_unstable();
    Some(HashVoteOutcome {
        winner,
        votes,
        holders,
        is_strict: votes * 2 > n,
    })
}

/// Verifies a pulled payload against the winning fingerprint.
pub fn verify_payload(payload: &[f32], expected: Fingerprint) -> bool {
    Fingerprint::of(payload) == expected
}

/// The PS side of one vote-on-hash round — its own two-phase protocol,
/// which ignores the wire format and round mode of the full-gradient
/// transport: collect fingerprint announces, vote each file's
/// fingerprints, pull every winner's payload once from one worker that
/// announced it, and verify it before use. `recv` yields the next
/// uplink frame until the receive window closes. Returns the round's
/// result, when the announce window closed, and the nanoseconds spent
/// voting.
///
/// Announces pass the same admission gate as
/// [`RoundCore::ingest`](crate::RoundCore::ingest): open round, existing
/// file, sender a live assigned holder of it, first delivery wins — so a
/// worker can neither stuff a file's fingerprint vote nor name a pull
/// target that does not exist.
pub(crate) fn hash_vote_round(
    t: u64,
    assignment: &Assignment,
    quarantined: &[bool],
    q_min: usize,
    model_len: usize,
    recv: &mut dyn FnMut() -> Option<Bytes>,
    to_workers: &[Sender<Bytes>],
) -> (RoundResult, Instant, u64) {
    let f = assignment.num_files();
    let expected = assignment.num_workers() * assignment.load();
    let holders: Vec<Vec<usize>> = (0..f)
        .map(|file| {
            let assigned = assignment.graph().workers_of(file).iter().copied();
            assigned.filter(|&w| !quarantined[w]).collect()
        })
        .collect();

    // Phase 1: collect fingerprints. Malformed or unexpected frames
    // degrade, never panic (same policy as the full-gradient transport).
    let mut announced: Vec<Vec<(usize, Fingerprint)>> = vec![Vec::new(); f];
    let mut frames = 0;
    while frames < expected {
        let Some(frame) = recv() else {
            break;
        };
        frames += 1;
        let Ok(Message::HashAnnounce {
            iteration,
            worker,
            file,
            fingerprint,
        }) = Message::decode(&frame)
        else {
            continue;
        };
        let (w, file) = (worker as usize, file as usize);
        if iteration == t
            && holders.get(file).is_some_and(|live| live.contains(&w))
            && announced[file].iter().all(|&(seen, _)| seen != w)
        {
            announced[file].push((w, fingerprint));
        }
    }
    let collect_end = Instant::now();

    // Phase 2: vote on fingerprints, pull each winner once. The same
    // quorum floor applies: files that announced fewer than `q_min`
    // fingerprints are abandoned, and partial announce sets count as
    // degraded votes.
    let vote_start = Instant::now();
    let mut result = RoundResult::default();
    let mut pulls: Vec<(usize, Fingerprint)> = Vec::new();
    for (file, announced) in announced.iter_mut().enumerate() {
        // Ascending worker order, so ties break like the value vote's:
        // to the group holding the smallest worker id.
        announced.sort_by_key(|&(w, _)| w);
        if announced.len() < q_min {
            continue;
        }
        let Some(outcome) = hash_majority(announced) else {
            continue;
        };
        result.non_strict_votes += usize::from(!outcome.is_strict);
        result.degraded_votes += usize::from(announced.len() < assignment.replication());
        // Fingerprint votes audit exactly like full votes: announcing a
        // losing hash is a disagreement, never announcing is an absence.
        let mut audit = VoteAudit {
            replicas: announced
                .iter()
                .map(|&(w, fp)| {
                    let verdict = if fp == outcome.winner {
                        ReplicaVerdict::Agreed
                    } else {
                        ReplicaVerdict::Disagreed
                    };
                    (w, verdict)
                })
                .collect(),
            winner_hash: outcome.winner.0 ^ outcome.winner.1,
        };
        audit.mark_absent(&holders[file]);
        result.audits.push(audit);
        let request = Message::PayloadRequest {
            iteration: t,
            file: file as u32,
        };
        // A dead holder is indistinguishable from a crashed one: the
        // pull below simply times out.
        let _ = to_workers[outcome.holders[0]].send(request.encode());
        pulls.push((file, outcome.winner));
    }
    let vote_ns = vote_start.elapsed().as_nanos() as u64;

    let mut winners: Vec<Option<Vec<f32>>> = vec![None; f];
    for _ in 0..pulls.len() {
        let Some(frame) = recv() else {
            break;
        };
        frames += 1;
        let Ok(Message::GradientReturn {
            iteration,
            file,
            gradient,
            ..
        }) = Message::decode(&frame)
        else {
            continue;
        };
        // A payload for a file the PS never pulled is a forged frame —
        // drop it like any other.
        let Some(&(file, winner)) = pulls.iter().find(|(pulled, _)| *pulled == file as usize)
        else {
            continue;
        };
        // Bait-and-switch defense: the payload must hash to the winning
        // fingerprint — and carry the model's shape (a degraded
        // single-holder vote can be won by a Byzantine fingerprint of
        // arbitrary length, which must not reach the median).
        if iteration == t && gradient.len() == model_len && verify_payload(&gradient, winner) {
            winners[file] = Some(gradient);
        }
    }
    result.winners = winners.into_iter().flatten().collect();
    result.abandoned_files = f - result.winners.len();
    // Frame-level accounting: announces and pulls alike.
    result.missing_votes = expected.saturating_sub(frames);
    (result, collect_end, vote_ns)
}

/// Uplink bytes for the classic full-gradient protocol: `K·l` gradients.
pub fn classic_uplink_bytes(num_workers: usize, load: usize, dim: usize) -> usize {
    num_workers * load * dim * 4
}

/// Uplink bytes for vote-on-hash: `K·l` fingerprints + `f` pulled
/// gradients.
pub fn hashvote_uplink_bytes(
    num_workers: usize,
    load: usize,
    num_files: usize,
    dim: usize,
) -> usize {
    num_workers * load * 16 + num_files * dim * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_and_roundtrips() {
        let a = Fingerprint::of(&[1.0, 2.0, 3.0]);
        let b = Fingerprint::of(&[1.0, 2.0, 3.001]);
        let c = Fingerprint::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, c);
        assert_ne!(a, b);

        let mut buf = bytes::BytesMut::new();
        a.write_to(&mut buf);
        assert_eq!(buf.len(), 16);
        let mut rd: &[u8] = &buf;
        assert_eq!(Fingerprint::read_from(&mut rd), a);
    }

    #[test]
    fn nan_payloads_fingerprint_consistently() {
        // Bit-level hashing: identical NaN payloads agree, so colluders
        // can still vote — and honest verification still works.
        let a = Fingerprint::of(&[f32::NAN, 1.0]);
        let b = Fingerprint::of(&[f32::NAN, 1.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn majority_and_holders() {
        let honest = Fingerprint::of(&[5.0]);
        let evil = Fingerprint::of(&[-5.0]);
        let outcome = hash_majority(&[(0, honest), (4, evil), (9, honest)]).unwrap();
        assert_eq!(outcome.winner, honest);
        assert_eq!(outcome.votes, 2);
        assert!(outcome.is_strict);
        assert_eq!(outcome.holders, vec![0, 9]);
        assert!(hash_majority(&[]).is_none());
    }

    #[test]
    fn byzantine_majority_wins_the_hash_vote_too() {
        // The robustness boundary is IDENTICAL to value voting: r' = 2
        // colluders out of 3 replicas flip the vote.
        let honest = Fingerprint::of(&[1.0]);
        let evil = Fingerprint::of(&[9.0]);
        let outcome = hash_majority(&[(1, evil), (2, honest), (3, evil)]).unwrap();
        assert_eq!(outcome.winner, evil);
    }

    #[test]
    fn payload_verification_blocks_bait_and_switch() {
        let honest_grad = [1.0f32, 2.0];
        let fp = Fingerprint::of(&honest_grad);
        assert!(verify_payload(&honest_grad, fp));
        // A worker that announced the honest fingerprint but delivers a
        // different payload is caught.
        assert!(!verify_payload(&[1.0, 2.5], fp));
    }

    #[test]
    fn traffic_savings_at_paper_scale() {
        // K = 25, l = 5, f = 25, ResNet-18-sized d.
        let d = 11_173_962;
        let classic = classic_uplink_bytes(25, 5, d);
        let hashed = hashvote_uplink_bytes(25, 5, 25, d);
        let ratio = classic as f64 / hashed as f64;
        assert!(ratio > 4.9 && ratio < 5.1, "ratio {ratio}");
    }
}
