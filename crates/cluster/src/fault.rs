//! Deterministic fault injection for cluster rounds.
//!
//! A [`FaultPlan`] marks workers crashed (they never return anything),
//! stragglers (a latency multiplier the message-passing server turns
//! into upload delay and bounded-staleness lag), or message-droppers
//! (individual file replicas are lost with a configured probability).
//! Every decision is a pure function of `(seed, round, worker, file)`, so a
//! plan replays bit-identically: the same seed produces the same crashed
//! set, the same dropped replicas, and therefore the same degraded-round
//! outcome — the reproducibility the chaos test suite pins.
//!
//! The plan is transport-agnostic: the in-process trainer
//! (`byzshield::Trainer::run`) and the `byz-wire` message-passing server
//! both consult the same plan type, so both degrade under one policy.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors from the socket deployment layer (`byz-wire`'s TCP transport
/// reports peer and transport failures through this type so that a
/// remote worker dying is an *error*, never a panic — the same class of
/// observable failure as a crashed in-process worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A remote peer's connection was lost and could not be
    /// re-established within the reconnect budget.
    PeerDisconnected {
        /// The worker whose link died.
        worker: usize,
    },
    /// A deployed job never assembled: fewer than `expected` workers
    /// completed the handshake before the readiness deadline.
    HandshakeTimeout {
        /// The job that failed to assemble.
        job_id: u64,
        /// Workers that did complete the handshake.
        connected: usize,
        /// Workers the job's assignment requires.
        expected: usize,
    },
    /// A transport-level failure (bind, accept, stream clone, …) in the
    /// socket deployment, with the underlying error rendered as text.
    Transport(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::PeerDisconnected { worker } => {
                write!(f, "worker {worker}'s connection was lost for good")
            }
            ClusterError::HandshakeTimeout {
                job_id,
                connected,
                expected,
            } => write!(
                f,
                "job {job_id} never assembled: {connected}/{expected} workers completed the handshake"
            ),
            ClusterError::Transport(what) => write!(f, "transport failure: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A seeded, reproducible fault-injection plan.
///
/// The default plan ([`FaultPlan::none`]) injects nothing, so fault-aware
/// code paths degenerate to the happy path bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashed: BTreeSet<usize>,
    stragglers: BTreeMap<usize, f64>,
    drop_rate: f64,
    disconnects: BTreeMap<usize, u64>,
    stalls: BTreeMap<usize, u64>,
    joins: BTreeMap<usize, u64>,
    leaves: BTreeMap<usize, u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no crashes, no stragglers, no drops.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crashed: BTreeSet::new(),
            stragglers: BTreeMap::new(),
            drop_rate: 0.0,
            disconnects: BTreeMap::new(),
            stalls: BTreeMap::new(),
            joins: BTreeMap::new(),
            leaves: BTreeMap::new(),
        }
    }

    /// A plan whose replica drops are derived from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Marks a worker fail-stop crashed: it computes nothing and returns
    /// nothing, in every round.
    pub fn crash(mut self, worker: usize) -> Self {
        self.crashed.insert(worker);
        self
    }

    /// Marks several workers crashed.
    pub fn crash_many(mut self, workers: impl IntoIterator<Item = usize>) -> Self {
        self.crashed.extend(workers);
        self
    }

    /// Marks a worker a straggler with the given latency multiplier
    /// (≥ 1.0; values below 1 are clamped). The message-passing server
    /// delays the worker's uploads by `straggler_unit × (multiplier − 1)`
    /// and derives its bounded-staleness lag from it
    /// ([`FaultPlan::staleness_lag`]); the in-process trainer's barrier
    /// round never waits and ignores it. It never changes what the
    /// worker computes.
    pub fn straggle(mut self, worker: usize, multiplier: f64) -> Self {
        self.stragglers.insert(worker, multiplier.max(1.0));
        self
    }

    /// Sets the per-replica message drop probability, clamped to the
    /// closed interval `[0, 1]` (NaN counts as 0): each
    /// `(round, worker, file)` replica is independently lost
    /// with this probability, decided by a hash of the plan seed. At
    /// `1.0` every replica is lost.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        self
    }

    /// Schedules a connection fault: `worker` drops its transport link
    /// mid-round at `round` (after its first upload of that round), then
    /// reconnects through the handshake. Connection faults are a
    /// *socket-deployment* fault class — the in-process trainer and the
    /// channel transport have no connections to cut and ignore them; over
    /// TCP a cut link degrades exactly like the replica-drop path.
    pub fn disconnect_at(mut self, worker: usize, round: u64) -> Self {
        self.disconnects.insert(worker, round);
        self
    }

    /// Schedules a half-open connection: from `round` onward, `worker`
    /// keeps its socket open and keeps reading broadcasts but never
    /// writes another frame — the stalled-peer failure TCP cannot
    /// distinguish from a slow one. Socket-deployment only, like
    /// [`FaultPlan::disconnect_at`].
    pub fn stall_from(mut self, worker: usize, round: u64) -> Self {
        self.stalls.insert(worker, round);
        self
    }

    /// Schedules an elastic join: `worker` is *absent* (not a cluster
    /// member, holds no files, sends nothing) for every round before
    /// `round`, then joins the job at the start of `round` and stays a
    /// member until it leaves (if ever). Joiners may use worker ids at or
    /// beyond the initial cluster size `K` — the membership universe is
    /// `max(K, max join id + 1)`.
    pub fn join_at(mut self, worker: usize, round: u64) -> Self {
        self.joins.insert(worker, round);
        self
    }

    /// Schedules a graceful departure: `worker` is a member for every
    /// round before `round` and gone from `round` onward. Unlike a crash
    /// (which strands the worker's replicas every round), a departure
    /// changes *membership*: the dynamic assignment layer re-replicates
    /// the departed worker's files onto the survivors.
    pub fn leave_at(mut self, worker: usize, round: u64) -> Self {
        self.leaves.insert(worker, round);
        self
    }

    /// Whether `worker` is a cluster member during `round`: it has
    /// joined (workers without a `join_at` entry are founding members)
    /// and has not yet left. Crashes are orthogonal — a crashed member
    /// is still a member, it just never delivers.
    pub fn is_member(&self, worker: usize, round: u64) -> bool {
        let joined = self.joins.get(&worker).is_none_or(|&j| round >= j);
        let left = self.leaves.get(&worker).is_some_and(|&l| round >= l);
        joined && !left
    }

    /// The member set of a cluster with `k` founding workers during
    /// `round`, ascending. Scheduled joiners with ids `≥ k` extend the
    /// universe; departed members are excluded.
    pub fn members_at(&self, k: usize, round: u64) -> Vec<usize> {
        (0..self.membership_universe(k))
            .filter(|&w| (w < k || self.joins.contains_key(&w)) && self.is_member(w, round))
            .collect()
    }

    /// The size of the worker-id universe for a cluster founded with `k`
    /// workers: founding ids plus every scheduled joiner's id.
    pub fn membership_universe(&self, k: usize) -> usize {
        self.joins.keys().map(|&w| w + 1).max().unwrap_or(0).max(k)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects no faults at all.
    pub fn is_trivial(&self) -> bool {
        self.crashed.is_empty()
            && self.stragglers.is_empty()
            && self.drop_rate == 0.0
            && self.disconnects.is_empty()
            && self.stalls.is_empty()
            && self.joins.is_empty()
            && self.leaves.is_empty()
    }

    /// The round at which `worker`'s connection is scheduled to be cut
    /// (one-shot), if any.
    pub fn disconnects_at(&self, worker: usize) -> Option<u64> {
        self.disconnects.get(&worker).copied()
    }

    /// The round from which `worker`'s connection goes half-open, if any.
    pub fn stalls_from(&self, worker: usize) -> Option<u64> {
        self.stalls.get(&worker).copied()
    }

    /// Whether `worker` is fail-stop crashed.
    pub fn is_crashed(&self, worker: usize) -> bool {
        self.crashed.contains(&worker)
    }

    /// The crashed worker set, ascending.
    pub fn crashed_workers(&self) -> impl Iterator<Item = usize> + '_ {
        self.crashed.iter().copied()
    }

    /// Number of crashed workers.
    pub fn num_crashed(&self) -> usize {
        self.crashed.len()
    }

    /// The worker's modelled latency multiplier (1.0 for non-stragglers).
    pub fn straggle_factor(&self, worker: usize) -> f64 {
        self.stragglers.get(&worker).copied().unwrap_or(1.0)
    }

    /// The worker's bounded-staleness lag in rounds,
    /// `λ(w) = min(⌈straggle_factor(w)⌉ − 1, max_staleness)`: how many
    /// rounds after their origin its replicas are due. A pure function of
    /// the plan — never of observed arrival times — and zero for every
    /// worker when `max_staleness` is zero.
    pub fn staleness_lag(&self, worker: usize, max_staleness: u64) -> u64 {
        (self.straggle_factor(worker).ceil() as u64)
            .saturating_sub(1)
            .min(max_staleness)
    }

    /// Whether the replica of `file` computed by `worker` is lost in
    /// transit during `round`. Deterministic in the plan seed and all
    /// three inputs.
    pub fn drops_replica(&self, round: u64, worker: usize, file: usize) -> bool {
        if self.drop_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (worker as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ (file as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        // Map to [0, 1) with 53-bit precision.
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.drop_rate
    }

    /// Whether one *chunk* of `worker`'s replica of `file` is lost in
    /// transit during `round` — the chunked-wire analogue of
    /// [`FaultPlan::drops_replica`], sharing its drop probability.
    /// A lost chunk leaves the replica incomplete, so it degrades
    /// exactly like a lost whole replica; the extra mixing constant
    /// keeps the per-chunk rolls independent of the per-replica ones
    /// (chunk 0's fate is not the batched frame's fate).
    pub fn drops_chunk(&self, round: u64, worker: usize, file: usize, chunk: usize) -> bool {
        if self.drop_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (worker as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ (chunk as u64)
                    .wrapping_add(1)
                    .wrapping_mul(0xA24B_AED4_963E_E407)
                ^ (file as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.drop_rate
    }

    /// Whether `worker`'s replica of `file` reaches the parameter server
    /// in `round` — i.e. the worker is alive and the message is not
    /// dropped.
    pub fn replica_arrives(&self, round: u64, worker: usize, file: usize) -> bool {
        !self.is_crashed(worker) && !self.drops_replica(round, worker, file)
    }
}

/// The splitmix64 finalizer: a bijective avalanche mix, the same hash
/// family the kernel layer uses for deterministic chunk seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_trivial());
        assert!(!plan.is_crashed(0));
        assert_eq!(plan.straggle_factor(3), 1.0);
        assert!(!plan.drops_replica(7, 2, 11));
        assert!((0..3).all(|w| plan.replica_arrives(7, w, 11)));
    }

    #[test]
    fn drops_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42).drop_rate(0.3);
        let b = FaultPlan::new(42).drop_rate(0.3);
        let c = FaultPlan::new(43).drop_rate(0.3);
        let pattern = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.drops_replica(i / 50, (i % 10) as usize, (i % 25) as usize))
                .collect()
        };
        assert_eq!(pattern(&a), pattern(&b), "same seed ⇒ same drops");
        assert_ne!(pattern(&a), pattern(&c), "different seed ⇒ different drops");
    }

    #[test]
    fn chunk_drops_are_deterministic_and_independent_of_replica_drops() {
        let plan = FaultPlan::new(42).drop_rate(0.3);
        assert!(!FaultPlan::none().drops_chunk(7, 2, 11, 3));
        let roll = |p: &FaultPlan| -> Vec<bool> {
            (0..400)
                .map(|i| {
                    p.drops_chunk(
                        i / 100,
                        (i % 5) as usize,
                        (i % 25) as usize,
                        (i % 8) as usize,
                    )
                })
                .collect()
        };
        let chunk_pattern = roll(&plan);
        let again = roll(&plan);
        assert_eq!(chunk_pattern, again, "chunk drops are deterministic");
        let dropped = chunk_pattern.iter().filter(|&&d| d).count();
        assert!(
            (60..180).contains(&dropped),
            "drop rate roughly honored, got {dropped}/400"
        );
        // Chunk 0's fate must not simply mirror the whole-replica roll —
        // the rolls use distinct mixing, so they should disagree somewhere.
        let disagree =
            (0..400u64).any(|i| plan.drops_chunk(i, 1, 2, 0) != plan.drops_replica(i, 1, 2));
        assert!(
            disagree,
            "per-chunk rolls are independent of per-replica rolls"
        );
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let plan = FaultPlan::new(7).drop_rate(0.2);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|&i| plan.drops_replica(i as u64, i % 13, i % 29))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn drop_rolls_are_pinned() {
        // Bit `i` of each mask is the roll for round `i / 16`, worker
        // `i % 15`, file `7i mod 25` and chunk `i % 6`. The masks are
        // golden: changing the hash re-rolls every seeded fault run.
        let golden = [
            (0x1, 0x8072_23d2_0524_8308_u64, 0x2803_0686_8856_4608_u64),
            (0x2a, 0x1028_8b0c_0884_4816, 0x0926_9b83_0c10_6073),
            (0xb12, 0x4c06_2252_b601_c002, 0x4b00_0622_6001_2b89),
        ];
        for (seed, replicas, chunks) in golden {
            let plan = FaultPlan::new(seed).drop_rate(0.3);
            let (mut rolled_replicas, mut rolled_chunks) = (0u64, 0u64);
            for i in 0..64u64 {
                let (round, worker, file) = (i / 16, (i % 15) as usize, (i * 7 % 25) as usize);
                let chunk = (i % 6) as usize;
                rolled_replicas |= u64::from(plan.drops_replica(round, worker, file)) << i;
                rolled_chunks |= u64::from(plan.drops_chunk(round, worker, file, chunk)) << i;
            }
            assert_eq!(rolled_replicas, replicas, "replica rolls, seed {seed:#x}");
            assert_eq!(rolled_chunks, chunks, "chunk rolls, seed {seed:#x}");
        }
    }

    #[test]
    fn crashes_and_stragglers() {
        let plan = FaultPlan::new(1)
            .crash(2)
            .crash_many([5, 7])
            .straggle(1, 3.5);
        assert!(plan.is_crashed(2) && plan.is_crashed(5) && plan.is_crashed(7));
        assert_eq!(plan.num_crashed(), 3);
        assert_eq!(plan.straggle_factor(1), 3.5);
        assert_eq!(plan.straggle_factor(0), 1.0);
        // Crashed workers never deliver, even with drop_rate 0.
        let arriving: Vec<usize> = (0..8).filter(|&w| plan.replica_arrives(0, w, 0)).collect();
        assert_eq!(arriving, vec![0, 1, 3, 4, 6]);
    }

    #[test]
    fn churn_membership_windows() {
        // 4 founders; worker 5 joins at round 2, worker 1 leaves at
        // round 3, worker 5 leaves again at round 6.
        let plan = FaultPlan::new(9)
            .join_at(5, 2)
            .leave_at(1, 3)
            .leave_at(5, 6);
        assert!(!plan.is_trivial());
        assert_eq!(plan.membership_universe(4), 6);

        assert_eq!(plan.members_at(4, 0), vec![0, 1, 2, 3]);
        assert_eq!(plan.members_at(4, 2), vec![0, 1, 2, 3, 5]);
        assert_eq!(plan.members_at(4, 3), vec![0, 2, 3, 5]);
        assert_eq!(plan.members_at(4, 6), vec![0, 2, 3]);

        // Joiners are absent before their join round even though their
        // id is inside the universe; id 4 is never a member at all.
        assert!(!plan.is_member(5, 1));
        assert!(plan.is_member(5, 2));
        assert!(!plan.members_at(4, 2).contains(&4));

        // Founding members without a leave schedule stay forever.
        assert!(plan.is_member(0, u64::MAX));
    }

    #[test]
    fn churn_is_orthogonal_to_crashes() {
        let plan = FaultPlan::new(0).join_at(4, 1).crash(4);
        // Member from round 1 but crashed: in the member set, never
        // delivering.
        assert!(plan.is_member(4, 1));
        assert!(plan.members_at(4, 1).contains(&4));
        assert!(!plan.replica_arrives(1, 4, 0));
    }

    #[test]
    fn straggle_clamped_and_drop_rate_clamped() {
        let plan = FaultPlan::new(0).straggle(0, 0.25).drop_rate(1.5);
        assert_eq!(plan.straggle_factor(0), 1.0);
        assert!((0..100).all(|round| plan.drops_replica(round, 0, 0)));
    }

    #[test]
    fn drop_rate_is_the_closed_unit_interval_and_nan_is_zero() {
        let never = FaultPlan::new(3).drop_rate(-0.5);
        let always = FaultPlan::new(3).drop_rate(1.0);
        let nan = FaultPlan::new(3).drop_rate(f64::NAN);
        assert!(nan.is_trivial(), "a NaN rate injects nothing");
        for i in 0..500usize {
            let (round, w, f, c) = (i as u64 / 25, i % 15, i % 25, i % 7);
            assert!(!never.drops_replica(round, w, f) && !never.drops_chunk(round, w, f, c));
            assert!(!nan.drops_replica(round, w, f) && !nan.drops_chunk(round, w, f, c));
            assert!(always.drops_replica(round, w, f) && always.drops_chunk(round, w, f, c));
        }
    }
}
