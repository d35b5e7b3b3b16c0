//! Vote-audit reputation: detect and quarantine Byzantine workers.
//!
//! ByzShield's redundancy *localizes* disagreement: every majority vote a
//! worker loses is evidence against it. Until this crate existed that
//! evidence was discarded the moment `quorum_vote` picked a winner. The
//! [`ReputationLedger`] folds the per-file [`VoteAudit`]s of each round
//! into per-worker suspicion scores and turns persistent disagreement
//! into [`QuarantineEvent`]s, following the detection line of DRACO
//! (Chen et al., 2018) and Aspis (the authors' follow-up).
//!
//! Design constraints, all locked by tests:
//!
//! * **Benign faults never raise suspicion.** A crashed, straggling or
//!   drop-afflicted worker produces [`ReplicaVerdict::Absent`] entries;
//!   absence is accounted in a *separate* decayed rate and can never
//!   trigger quarantine. Only *active disagreement* — delivering a
//!   gradient that loses a vote — is suspicious.
//! * **A minimum-evidence floor.** An honest worker can lose votes too
//!   (it holds a replica of a file whose majority is Byzantine), so a
//!   single bad round must not be enough: quarantine requires both the
//!   decayed disagreement rate to exceed the threshold *and* a floor of
//!   cumulative disagreement observations.
//! * **Determinism.** The ledger is a pure fold over the audit stream in
//!   `(round, worker)` order; two identical runs produce bit-identical
//!   ledgers (including serialized bytes), independent of thread count.
//!
//! The trainer (`byzshield::Trainer`) and the message-passing server
//! (`byz-wire`) consult the ledger each round; quarantined workers stop
//! being polled and their files are reassigned (`byz_assign::reassign_quarantined`).

use byz_aggregate::{ReplicaVerdict, VoteAudit};
use std::fmt;

/// Tuning knobs for the reputation fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReputationConfig {
    /// EWMA retention per *observed* round in `(0, 1)`: the suspicion
    /// score after a round is `decay·old + (1 − decay)·rate`, where
    /// `rate` is that round's disagreement fraction. Higher = slower to
    /// react, harder for a sleeper to game.
    pub decay: f64,
    /// Suspicion score above which a worker is quarantined.
    pub quarantine_threshold: f64,
    /// Minimum cumulative disagreement observations before a worker may
    /// be quarantined — the false-positive guard for honest workers that
    /// occasionally sit in a distorted file's minority.
    pub min_evidence: u64,
    /// Rounds a quarantined worker waits before being readmitted on
    /// probation (`0` = quarantine is permanent). A probationary worker
    /// that crosses the threshold again is quarantined permanently.
    pub probation_rounds: u64,
    /// Run-identity salt: carried in the serialized ledger so state from
    /// different runs cannot be silently mixed. Has no effect on scores.
    pub seed: u64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        // Separation argument for the defaults: an always-lying Byzantine
        // worker on a MOLS-style assignment disagrees on most of its
        // files every round (rate ≥ 0.6 typical), while an honest worker
        // disagrees only on the few distorted files it holds (rate ≤ 0.2
        // at the paper's ε̂ levels). The EWMA converges toward the true
        // rate, so 0.45 sits between the two basins.
        ReputationConfig {
            decay: 0.6,
            quarantine_threshold: 0.45,
            min_evidence: 4,
            probation_rounds: 0,
            seed: 0,
        }
    }
}

/// Why/when a worker's standing changed.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineEvent {
    /// The worker crossed the suspicion threshold with enough evidence.
    Quarantined {
        /// Worker id.
        worker: usize,
        /// Round at which the decision fired.
        round: u64,
        /// Suspicion score at the decision.
        suspicion: f64,
        /// Cumulative disagreement observations backing the decision.
        evidence: u64,
        /// `true` when no future readmission is possible (either
        /// probation is disabled, or this is a second strike).
        permanent: bool,
    },
    /// A quarantined worker served its probation delay and is consulted
    /// again (with a halved suspicion score — one more strike and it is
    /// out for good).
    Readmitted {
        /// Worker id.
        worker: usize,
        /// Round of readmission.
        round: u64,
    },
}

impl QuarantineEvent {
    /// The worker the event concerns.
    pub fn worker(&self) -> usize {
        match self {
            QuarantineEvent::Quarantined { worker, .. }
            | QuarantineEvent::Readmitted { worker, .. } => *worker,
        }
    }

    /// Whether this event removed the worker from service.
    pub fn is_quarantine(&self) -> bool {
        matches!(self, QuarantineEvent::Quarantined { .. })
    }
}

/// A worker's standing in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStanding {
    /// In service, full trust pipeline applies.
    Active,
    /// Removed from service at `since`.
    Quarantined {
        /// Round the quarantine fired.
        since: u64,
        /// No readmission possible when `true`.
        permanent: bool,
    },
    /// Readmitted after quarantine; a second offence is permanent.
    Probation {
        /// Round of readmission.
        since: u64,
    },
    /// Left the cluster (elastic churn) at `since`. Benign — the entry
    /// is kept so the history survives a rejoin, but the worker is not
    /// consulted and accrues no evidence while gone.
    Departed {
        /// Round of departure.
        since: u64,
    },
}

/// Per-worker accumulator. All floats are folded in a fixed order, so
/// state is bit-reproducible.
#[derive(Debug, Clone, PartialEq)]
struct WorkerState {
    /// Decayed disagreement rate (the suspicion score).
    suspicion: f64,
    /// Decayed absence rate — tracked separately, never suspicious.
    absence: f64,
    agreements: u64,
    disagreements: u64,
    absences: u64,
    standing: WorkerStanding,
}

impl WorkerState {
    fn new() -> Self {
        WorkerState {
            suspicion: 0.0,
            absence: 0.0,
            agreements: 0,
            disagreements: 0,
            absences: 0,
            standing: WorkerStanding::Active,
        }
    }
}

/// Errors from ledger (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The buffer is not a serialized ledger (wrong magic).
    NotALedger,
    /// Unsupported serialization version.
    UnsupportedVersion(u32),
    /// Checksum mismatch — truncated or corrupted buffer.
    Corrupted,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::NotALedger => write!(f, "not a reputation ledger"),
            LedgerError::UnsupportedVersion(v) => {
                write!(f, "unsupported reputation ledger version {v}")
            }
            LedgerError::Corrupted => write!(f, "reputation ledger corrupted (checksum mismatch)"),
        }
    }
}

impl std::error::Error for LedgerError {}

const MAGIC: u32 = 0xB52E_9001;
const VERSION: u32 = 1;

/// The deterministic reputation fold over a run's vote audits.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationLedger {
    config: ReputationConfig,
    /// Last round folded (0 before any observation).
    last_round: u64,
    workers: Vec<WorkerState>,
}

impl ReputationLedger {
    /// A fresh ledger: every worker active, zero suspicion.
    pub fn new(num_workers: usize, config: ReputationConfig) -> Self {
        ReputationLedger {
            config,
            last_round: 0,
            workers: vec![WorkerState::new(); num_workers],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReputationConfig {
        &self.config
    }

    /// Number of tracked workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The last round folded into the ledger.
    pub fn last_round(&self) -> u64 {
        self.last_round
    }

    /// The worker's current suspicion score.
    pub fn suspicion(&self, worker: usize) -> f64 {
        self.workers[worker].suspicion
    }

    /// All suspicion scores, indexed by worker.
    pub fn suspicions(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.suspicion).collect()
    }

    /// The worker's decayed absence rate (benign-fault accounting).
    pub fn absence(&self, worker: usize) -> f64 {
        self.workers[worker].absence
    }

    /// Cumulative disagreement observations for the worker.
    pub fn evidence(&self, worker: usize) -> u64 {
        self.workers[worker].disagreements
    }

    /// The worker's standing.
    pub fn standing(&self, worker: usize) -> WorkerStanding {
        self.workers[worker].standing
    }

    /// Whether the worker is currently quarantined (out of service).
    pub fn is_quarantined(&self, worker: usize) -> bool {
        matches!(
            self.workers[worker].standing,
            WorkerStanding::Quarantined { .. }
        )
    }

    /// Whether the worker has departed the cluster (elastic churn).
    pub fn is_departed(&self, worker: usize) -> bool {
        matches!(
            self.workers[worker].standing,
            WorkerStanding::Departed { .. }
        )
    }

    /// Whether the worker is consulted at all: a member that is neither
    /// quarantined nor departed.
    pub fn in_service(&self, worker: usize) -> bool {
        worker < self.workers.len() && !self.is_quarantined(worker) && !self.is_departed(worker)
    }

    /// Grows the ledger so `worker` has an entry, with fresh (zero
    /// suspicion, active) state for every new slot — how elastic joiners
    /// enter the reputation fold. Existing entries are untouched, so the
    /// call is idempotent and order-insensitive.
    pub fn ensure_worker(&mut self, worker: usize) {
        if worker >= self.workers.len() {
            self.workers.resize(worker + 1, WorkerState::new());
        }
    }

    /// Marks `worker` departed at `round`: it keeps its history but is
    /// no longer consulted and accrues no evidence. Departure is benign
    /// and composes with quarantine — a quarantined worker that leaves
    /// stays quarantined (the stronger standing wins), so a later rejoin
    /// cannot launder a bad record.
    pub fn depart_worker(&mut self, worker: usize, round: u64) {
        self.ensure_worker(worker);
        let state = &mut self.workers[worker];
        if matches!(
            state.standing,
            WorkerStanding::Active | WorkerStanding::Probation { .. }
        ) {
            state.standing = WorkerStanding::Departed { since: round };
        }
    }

    /// Readmits a departed worker (or creates a fresh entry for a brand
    /// new joiner id). A rejoining worker resumes its prior suspicion
    /// and evidence — churn must not reset the fold. Quarantined workers
    /// are *not* readmitted by a rejoin; only the probation clock can do
    /// that.
    pub fn admit_worker(&mut self, worker: usize) {
        self.ensure_worker(worker);
        let state = &mut self.workers[worker];
        if matches!(state.standing, WorkerStanding::Departed { .. }) {
            state.standing = WorkerStanding::Active;
        }
    }

    /// Workers currently in service (active or on probation), ascending.
    pub fn active_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.in_service(w))
            .collect()
    }

    /// Workers currently quarantined, ascending.
    pub fn quarantined_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.is_quarantined(w))
            .collect()
    }

    /// Folds one round of vote audits into the ledger and returns the
    /// standing changes it triggered, in ascending worker order
    /// (quarantines before readmissions never interleave — each worker
    /// yields at most one event per round).
    ///
    /// Evidence for workers already quarantined is ignored (they are not
    /// being consulted; any stale audit mentioning them is noise).
    pub fn observe_round(&mut self, round: u64, audits: &[VoteAudit]) -> Vec<QuarantineEvent> {
        self.last_round = round;
        let k = self.workers.len();
        // Per-round tallies, then one EWMA step per worker — the fold
        // order (worker-major, fixed) is what makes the f64 state
        // bit-reproducible.
        let mut agreed = vec![0u64; k];
        let mut disagreed = vec![0u64; k];
        let mut absent = vec![0u64; k];
        for audit in audits {
            for &(w, verdict) in &audit.replicas {
                if w >= k || self.is_quarantined(w) || self.is_departed(w) {
                    continue;
                }
                match verdict {
                    ReplicaVerdict::Agreed => agreed[w] += 1,
                    ReplicaVerdict::Disagreed => disagreed[w] += 1,
                    ReplicaVerdict::Absent => absent[w] += 1,
                }
            }
        }

        let decay = self.config.decay;
        let mut events = Vec::new();
        for w in 0..k {
            let state = &mut self.workers[w];
            match state.standing {
                WorkerStanding::Quarantined { since, permanent } => {
                    // Probation clock: readmit after the configured delay.
                    if !permanent
                        && self.config.probation_rounds > 0
                        && round.saturating_sub(since) >= self.config.probation_rounds
                    {
                        state.standing = WorkerStanding::Probation { since: round };
                        // A fresh chance, not a clean slate: half the
                        // score survives, and the evidence counter keeps
                        // its history.
                        state.suspicion *= 0.5;
                        events.push(QuarantineEvent::Readmitted { worker: w, round });
                    }
                    continue;
                }
                // Departed workers are out of the fold entirely: no
                // probation clock, no decay, so a rejoin resumes from
                // exactly the state it left.
                WorkerStanding::Departed { .. } => continue,
                WorkerStanding::Active | WorkerStanding::Probation { .. } => {}
            }

            state.agreements += agreed[w];
            state.disagreements += disagreed[w];
            state.absences += absent[w];

            let participated = agreed[w] + disagreed[w];
            let expected = participated + absent[w];
            if expected > 0 {
                // Absence rate over the replicas the worker owed this
                // round. Pure benign-fault accounting.
                let absent_rate = absent[w] as f64 / expected as f64;
                state.absence = decay * state.absence + (1.0 - decay) * absent_rate;
            }
            if participated > 0 {
                // Disagreement rate over the votes the worker actually
                // cast. A fully-absent round leaves suspicion untouched:
                // crashes and drops must never look like lying.
                let rate = disagreed[w] as f64 / participated as f64;
                state.suspicion = decay * state.suspicion + (1.0 - decay) * rate;
            }

            if state.suspicion > self.config.quarantine_threshold
                && state.disagreements >= self.config.min_evidence
            {
                let second_strike = matches!(state.standing, WorkerStanding::Probation { .. });
                let permanent = self.config.probation_rounds == 0 || second_strike;
                state.standing = WorkerStanding::Quarantined {
                    since: round,
                    permanent,
                };
                events.push(QuarantineEvent::Quarantined {
                    worker: w,
                    round,
                    suspicion: state.suspicion,
                    evidence: state.disagreements,
                    permanent,
                });
            }
        }
        events
    }

    /// Serializes the ledger to a self-checking byte buffer
    /// (little-endian, FNV-1a checksum) — what a wire run reports as its
    /// ledger bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.workers.len() * 50);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        out.extend_from_slice(&self.last_round.to_le_bytes());
        out.extend_from_slice(&self.config.decay.to_bits().to_le_bytes());
        out.extend_from_slice(&self.config.quarantine_threshold.to_bits().to_le_bytes());
        out.extend_from_slice(&self.config.min_evidence.to_le_bytes());
        out.extend_from_slice(&self.config.probation_rounds.to_le_bytes());
        out.extend_from_slice(&(self.workers.len() as u32).to_le_bytes());
        for w in &self.workers {
            out.extend_from_slice(&w.suspicion.to_bits().to_le_bytes());
            out.extend_from_slice(&w.absence.to_bits().to_le_bytes());
            out.extend_from_slice(&w.agreements.to_le_bytes());
            out.extend_from_slice(&w.disagreements.to_le_bytes());
            out.extend_from_slice(&w.absences.to_le_bytes());
            let (tag, since, permanent) = match w.standing {
                WorkerStanding::Active => (0u8, 0u64, 0u8),
                WorkerStanding::Quarantined { since, permanent } => (1, since, u8::from(permanent)),
                WorkerStanding::Probation { since } => (2, since, 0),
                WorkerStanding::Departed { since } => (3, since, 0),
            };
            out.push(tag);
            out.extend_from_slice(&since.to_le_bytes());
            out.push(permanent);
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a buffer produced by [`ReputationLedger::to_bytes`].
    ///
    /// # Errors
    ///
    /// See [`LedgerError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LedgerError> {
        if bytes.len() < 12 {
            return Err(LedgerError::Corrupted);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(LedgerError::Corrupted);
        }
        let mut r = Reader { body, pos: 0 };
        if r.u32()? != MAGIC {
            return Err(LedgerError::NotALedger);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(LedgerError::UnsupportedVersion(version));
        }
        let seed = r.u64()?;
        let last_round = r.u64()?;
        let decay = f64::from_bits(r.u64()?);
        let quarantine_threshold = f64::from_bits(r.u64()?);
        let min_evidence = r.u64()?;
        let probation_rounds = r.u64()?;
        let num_workers = r.u32()? as usize;
        let mut workers = Vec::with_capacity(num_workers);
        for _ in 0..num_workers {
            let suspicion = f64::from_bits(r.u64()?);
            let absence = f64::from_bits(r.u64()?);
            let agreements = r.u64()?;
            let disagreements = r.u64()?;
            let absences = r.u64()?;
            let tag = r.u8()?;
            let since = r.u64()?;
            let permanent = r.u8()? != 0;
            let standing = match tag {
                0 => WorkerStanding::Active,
                1 => WorkerStanding::Quarantined { since, permanent },
                2 => WorkerStanding::Probation { since },
                3 => WorkerStanding::Departed { since },
                _ => return Err(LedgerError::Corrupted),
            };
            workers.push(WorkerState {
                suspicion,
                absence,
                agreements,
                disagreements,
                absences,
                standing,
            });
        }
        Ok(ReputationLedger {
            config: ReputationConfig {
                decay,
                quarantine_threshold,
                min_evidence,
                probation_rounds,
                seed,
            },
            last_round,
            workers,
        })
    }
}

struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], LedgerError> {
        if self.pos + n > self.body.len() {
            return Err(LedgerError::Corrupted);
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, LedgerError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, LedgerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, LedgerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds one file's audit from explicit verdicts.
    fn audit(verdicts: &[(usize, ReplicaVerdict)]) -> VoteAudit {
        VoteAudit {
            replicas: verdicts.to_vec(),
            winner_hash: 7,
        }
    }

    fn cfg() -> ReputationConfig {
        ReputationConfig::default()
    }

    /// A round mimicking MOLS (5,3) with worker 0 always lying: it loses
    /// 4 of its 5 files (one file it wins because a colluder double-
    /// covers it, distorting the vote and giving worker 3 a loss).
    fn byz_round() -> Vec<VoteAudit> {
        use ReplicaVerdict::*;
        vec![
            audit(&[(0, Disagreed), (3, Agreed), (6, Agreed)]),
            audit(&[(0, Disagreed), (4, Agreed), (7, Agreed)]),
            audit(&[(0, Disagreed), (5, Agreed), (8, Agreed)]),
            audit(&[(0, Disagreed), (3, Agreed), (9, Agreed)]),
            // The distorted file: 0 and its colluder 1 win, honest 3 loses.
            audit(&[(0, Agreed), (1, Agreed), (3, Disagreed)]),
        ]
    }

    #[test]
    fn persistent_liar_is_quarantined_with_enough_evidence() {
        let mut ledger = ReputationLedger::new(10, cfg());
        let mut quarantined_at = None;
        for round in 1..=10 {
            let events = ledger.observe_round(round, &byz_round());
            for e in events {
                if e.is_quarantine() {
                    assert_eq!(e.worker(), 0, "only the liar may be quarantined");
                    quarantined_at = Some(round);
                }
            }
        }
        let at = quarantined_at.expect("worker 0 must be quarantined");
        // Disagreement rate 0.8/round: EWMA crosses 0.45 by round 2 and
        // evidence (4/round) crosses the floor at round 1 → caught fast.
        assert!(at <= 3, "caught at round {at}");
        assert!(ledger.is_quarantined(0));
        // Honest worker 3 loses 1 of 3 votes per round (rate 1/3 < 0.45):
        // suspicion saturates below the threshold, never quarantined.
        assert!(!ledger.is_quarantined(3));
        assert!(ledger.suspicion(3) < cfg().quarantine_threshold);
        assert_eq!(ledger.quarantined_workers(), vec![0]);
        assert_eq!(ledger.active_workers().len(), 9);
    }

    #[test]
    fn absence_never_raises_suspicion() {
        use ReplicaVerdict::*;
        let mut ledger = ReputationLedger::new(4, cfg());
        for round in 1..=20 {
            // Worker 2 is crashed (always absent); the others agree.
            let audits = vec![
                audit(&[(0, Agreed), (1, Agreed), (2, Absent)]),
                audit(&[(0, Agreed), (3, Agreed), (2, Absent)]),
            ];
            let events = ledger.observe_round(round, &audits);
            assert!(events.is_empty(), "round {round}: no one may be flagged");
        }
        assert_eq!(ledger.suspicion(2), 0.0);
        assert!(ledger.absence(2) > 0.9, "absence rate must converge to 1");
        assert_eq!(ledger.evidence(2), 0);
        assert!(!ledger.is_quarantined(2));
    }

    #[test]
    fn min_evidence_floor_delays_quarantine() {
        use ReplicaVerdict::*;
        // One disagreement per round at 100% rate: the EWMA crosses the
        // threshold on round 1, but the evidence floor (4) holds the
        // decision back until round 4.
        let mut ledger = ReputationLedger::new(3, cfg());
        let mut fired = None;
        for round in 1..=6 {
            let audits = vec![audit(&[(0, Disagreed), (1, Agreed), (2, Agreed)])];
            if ledger
                .observe_round(round, &audits)
                .iter()
                .any(|e| e.is_quarantine())
            {
                fired = Some(round);
                break;
            }
        }
        assert_eq!(fired, Some(cfg().min_evidence));
    }

    #[test]
    fn probation_readmits_then_second_strike_is_permanent() {
        use ReplicaVerdict::*;
        let config = ReputationConfig {
            probation_rounds: 3,
            ..cfg()
        };
        let mut ledger = ReputationLedger::new(3, config);
        let bad = vec![audit(&[(0, Disagreed), (1, Agreed), (2, Agreed)])];
        let clean = vec![audit(&[(0, Agreed), (1, Agreed), (2, Agreed)])];

        // Rounds 1..: lie until quarantined.
        let mut round = 0;
        loop {
            round += 1;
            if ledger
                .observe_round(round, &bad)
                .iter()
                .any(|e| e.is_quarantine())
            {
                break;
            }
        }
        let quarantined_round = round;
        assert!(matches!(
            ledger.standing(0),
            WorkerStanding::Quarantined {
                permanent: false,
                ..
            }
        ));

        // Serve probation with clean rounds → readmitted.
        let mut readmitted = false;
        for r in quarantined_round + 1..=quarantined_round + 4 {
            let events = ledger.observe_round(r, &clean);
            readmitted |= events
                .iter()
                .any(|e| matches!(e, QuarantineEvent::Readmitted { worker: 0, .. }));
        }
        assert!(readmitted);
        assert!(matches!(
            ledger.standing(0),
            WorkerStanding::Probation { .. }
        ));
        assert!(!ledger.is_quarantined(0));

        // Relapse → permanent.
        let mut r = quarantined_round + 4;
        loop {
            r += 1;
            let events = ledger.observe_round(r, &bad);
            if let Some(QuarantineEvent::Quarantined { permanent, .. }) =
                events.iter().find(|e| e.is_quarantine())
            {
                assert!(permanent, "second strike must be permanent");
                break;
            }
            assert!(r < quarantined_round + 40, "relapse never detected");
        }
        // Permanent quarantine never readmits, however long we wait.
        for r2 in r + 1..r + 10 {
            assert!(ledger.observe_round(r2, &clean).is_empty());
        }
        assert!(ledger.is_quarantined(0));
    }

    #[test]
    fn fold_is_deterministic_and_serializable() {
        let run = || {
            let mut ledger = ReputationLedger::new(10, cfg());
            for round in 1..=7 {
                ledger.observe_round(round, &byz_round());
            }
            ledger
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let restored = ReputationLedger::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(restored, a);
        // The restored ledger continues the fold identically.
        let mut c = restored;
        let mut d = a.clone();
        assert_eq!(
            c.observe_round(8, &byz_round()),
            d.observe_round(8, &byz_round())
        );
        assert_eq!(c.to_bytes(), d.to_bytes());
    }

    #[test]
    fn serialization_rejects_corruption() {
        let ledger = ReputationLedger::new(5, cfg());
        let mut bytes = ledger.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            ReputationLedger::from_bytes(&bytes),
            Err(LedgerError::Corrupted)
        );
        let good = ledger.to_bytes();
        assert_eq!(
            ReputationLedger::from_bytes(&good[..good.len() - 3]),
            Err(LedgerError::Corrupted)
        );
        assert_eq!(
            ReputationLedger::from_bytes(&[]),
            Err(LedgerError::Corrupted)
        );
    }

    #[test]
    fn membership_grows_and_evicts_with_churn() {
        use ReplicaVerdict::*;
        let mut ledger = ReputationLedger::new(3, cfg());

        // A joiner beyond the founding universe gets a fresh entry.
        ledger.ensure_worker(4);
        assert_eq!(ledger.num_workers(), 5);
        assert!(ledger.in_service(4));
        assert_eq!(ledger.suspicion(4), 0.0);
        // Idempotent; never shrinks.
        ledger.ensure_worker(2);
        assert_eq!(ledger.num_workers(), 5);

        // Build some suspicion on worker 1, then let it leave.
        for round in 1..=2 {
            ledger.observe_round(round, &[audit(&[(1, Disagreed), (0, Agreed), (2, Agreed)])]);
        }
        let before = ledger.suspicion(1);
        assert!(before > 0.0);
        ledger.depart_worker(1, 3);
        assert!(ledger.is_departed(1));
        assert!(!ledger.in_service(1));
        assert_eq!(ledger.active_workers(), vec![0, 2, 3, 4]);

        // While gone: no evidence accrues, no decay, even if stale
        // audits still name the worker.
        ledger.observe_round(3, &[audit(&[(1, Disagreed), (0, Agreed), (2, Agreed)])]);
        assert_eq!(ledger.suspicion(1).to_bits(), before.to_bits());
        assert_eq!(ledger.evidence(1), 2);

        // Rejoin resumes the fold from the preserved state.
        ledger.admit_worker(1);
        assert!(ledger.in_service(1));
        assert_eq!(ledger.suspicion(1).to_bits(), before.to_bits());

        // Departed standing round-trips through serialization.
        ledger.depart_worker(4, 5);
        let restored = ReputationLedger::from_bytes(&ledger.to_bytes()).unwrap();
        assert_eq!(restored, ledger);
        assert!(restored.is_departed(4));
    }

    #[test]
    fn departure_does_not_launder_quarantine() {
        use ReplicaVerdict::*;
        let mut ledger = ReputationLedger::new(3, cfg());
        for round in 1..=5 {
            ledger.observe_round(round, &[audit(&[(0, Disagreed), (1, Agreed), (2, Agreed)])]);
        }
        assert!(ledger.is_quarantined(0));
        // Leaving and rejoining must not clear the quarantine.
        ledger.depart_worker(0, 6);
        assert!(ledger.is_quarantined(0), "quarantine outranks departure");
        ledger.admit_worker(0);
        assert!(ledger.is_quarantined(0));
        assert!(!ledger.in_service(0));
    }

    #[test]
    fn quarantined_workers_accrue_no_evidence() {
        use ReplicaVerdict::*;
        let mut ledger = ReputationLedger::new(3, cfg());
        for round in 1..=5 {
            ledger.observe_round(round, &[audit(&[(0, Disagreed), (1, Agreed), (2, Agreed)])]);
        }
        assert!(ledger.is_quarantined(0));
        let evidence = ledger.evidence(0);
        let suspicion = ledger.suspicion(0);
        // Stale audits still naming worker 0 change nothing.
        ledger.observe_round(6, &[audit(&[(0, Disagreed), (1, Agreed), (2, Agreed)])]);
        assert_eq!(ledger.evidence(0), evidence);
        assert_eq!(ledger.suspicion(0).to_bits(), suspicion.to_bits());
    }
}
