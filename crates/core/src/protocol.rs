//! The end-to-end training protocol (paper Algorithm 1).

use crate::{
    evaluate_accuracy, gradients_differ, FileGradientOracle, GradientMoments, InputLayout,
};
use byz_aggregate::{
    quorum_vote_all_audited, quorum_vote_audited, AggregationError, Aggregator, Provenance,
    QuorumConfig, QuorumError, QuorumOutcome, VoteAudit,
};
use byz_assign::{Assignment, DynamicAssignment};
use byz_attack::{AttackContext, AttackVector, ByzantineSelector};
use byz_cluster::{FaultPlan, RetryPolicy};
use byz_data::{split_batch_into_files, BatchSampler, Dataset};
use byz_distortion::{binomial_saturating, cmax_graph_exhaustive, count_distorted};
use byz_nn::{flatten_params, Module, Sgd, StepDecaySchedule};
use byz_reputation::{QuarantineEvent, ReputationConfig, ReputationLedger};
use byz_wire::{apply_scheme, num_chunks, ChunkConfig, ChunkScheme, RoundMode};
use std::fmt;
use std::time::{Duration, Instant};

/// How the parameter server combines the returned gradients.
pub enum Defense {
    /// ByzShield / DETOX style: per-file majority vote (Eq. 3), then the
    /// given robust aggregator over the `f` vote winners. ByzShield pairs
    /// this with [`CoordinateMedian`](byz_aggregate::CoordinateMedian);
    /// DETOX with [`MedianOfMeans`](byz_aggregate::MedianOfMeans) or
    /// Multi-Krum.
    VoteThenAggregate(Box<dyn Aggregator>),
    /// Baseline style: the aggregator is applied directly to the workers'
    /// returned gradients (no voting; use with a replication-1
    /// assignment).
    Direct(Box<dyn Aggregator>),
}

impl fmt::Debug for Defense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defense::VoteThenAggregate(a) => write!(f, "VoteThenAggregate({})", a.name()),
            Defense::Direct(a) => write!(f, "Direct({})", a.name()),
        }
    }
}

/// A replica payload as the parameter server receives it. Honest
/// replicas *borrow* the round's true gradient — they are bit-identical
/// by construction, so the vote can read one shared buffer instead of
/// `r` clones per file — while Byzantine forgeries own their payload.
enum Replica<'g> {
    Honest(&'g [f32]),
    Forged(Vec<f32>),
}

impl AsRef<[f32]> for Replica<'_> {
    fn as_ref(&self) -> &[f32] {
        match self {
            Replica::Honest(g) => g,
            Replica::Forged(g) => g,
        }
    }
}

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Batch size `b` per iteration (must be divisible by `f`).
    pub batch_size: usize,
    /// Number of synchronous SGD iterations `T`.
    pub iterations: usize,
    /// Learning-rate schedule `(x, y, z)`.
    pub lr_schedule: StepDecaySchedule,
    /// Momentum `µ`.
    pub momentum: f32,
    /// Number of Byzantine workers `q`.
    pub num_byzantine: usize,
    /// Evaluate test accuracy every this many iterations (0 = only at the
    /// end).
    pub eval_every: usize,
    /// Cap on test samples used per evaluation (keeps runs fast).
    pub eval_samples: usize,
    /// Seed for batch sampling.
    pub seed: u64,
    /// Benign-fault injection plan (crashes, stragglers, replica drops).
    /// [`FaultPlan::none`] disables injection and preserves the exact
    /// no-fault protocol behaviour bit for bit.
    pub faults: FaultPlan,
    /// Degradation policy: minimum per-file quorum and retry budget.
    pub quorum: QuorumConfig,
    /// Modelled backoff schedule for re-vote waves (accounted in
    /// [`IterationRecord::retry_time`]; the simulator never sleeps).
    pub retry: RetryPolicy,
    /// Vote-audit reputation: when set, a [`ReputationLedger`] folds
    /// every round's vote audits, quarantined workers stop being polled
    /// and their files are greedily re-replicated onto survivors
    /// (`byz_assign::reassign_quarantined`). `None` (the default)
    /// preserves the pre-reputation protocol bit for bit. Only the
    /// voting defense produces audit evidence; [`Defense::Direct`]
    /// ignores reputation.
    pub reputation: Option<ReputationConfig>,
    /// Gradient wire chunking: when set, replicas travel (conceptually)
    /// as fixed-size coordinate chunks under the given [`ChunkConfig`] —
    /// replica payloads pass through the config's compression scheme
    /// ([`apply_scheme`]: identity for dense, seeded top-k or sign
    /// planes otherwise), and the fault plan additionally rolls
    /// per-chunk message loss — a replica with *any* chunk lost degrades
    /// exactly like a dropped whole replica. Votes, degraded-quorum,
    /// retry and reputation semantics are untouched. `None` (the
    /// default) preserves the unchunked protocol bit for bit.
    pub chunking: Option<ChunkConfig>,
    /// Round scheduling, shared with the wire engine
    /// ([`byz_wire::RoundMode`]):
    ///
    /// * [`RoundMode::Barrier`] (the default) — strict synchronous
    ///   rounds, votes as one post-barrier batch.
    /// * [`RoundMode::Streaming`] — the in-process trainer has no wire
    ///   window for votes to hide in, so `Streaming` is `Barrier`.
    /// * [`RoundMode::BoundedStaleness`] — rounds close on the on-time
    ///   quorum. A worker's deterministic lag is
    ///   [`FaultPlan::staleness_lag`]; a file with at least `q_min` live
    ///   lag-0 holders votes at its own round over those on-time
    ///   replicas (late holders audit `Absent`), while a file below the
    ///   on-time quorum votes over *all* live holders and its winner
    ///   folds `lag` rounds later,
    ///   discounted by `1/(1 + lag)`, after the fold round's on-time
    ///   winners in `(origin round, file)` order. With no stragglers in
    ///   the fault plan — and always with `max_staleness = 0` — the
    ///   schedule is bit-identical to [`RoundMode::Barrier`].
    pub mode: RoundMode,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            batch_size: 250,
            iterations: 200,
            lr_schedule: StepDecaySchedule::new(0.05, 0.96, 15),
            momentum: 0.9,
            num_byzantine: 0,
            eval_every: 20,
            eval_samples: 1_000,
            seed: 0xB12,
            faults: FaultPlan::none(),
            quorum: QuorumConfig::default(),
            retry: RetryPolicy::default(),
            reputation: None,
            chunking: None,
            mode: RoundMode::Barrier,
        }
    }
}

/// A file whose vote never reached quorum, with the error seen on its
/// final attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbandonedFile {
    /// File index in `0..f`.
    pub file: usize,
    /// Vote attempts made (1 initial + retries).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub error: QuorumError,
}

/// Degradation report for one protocol round.
///
/// Every field is a pure function of the fault-plan seed and the round
/// index — no clocks, no thread ordering — so two runs with identical
/// configuration produce bit-identical outcomes (the chaos suite pins
/// this).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundOutcome {
    /// Files whose winner was voted by all `r` expected replicas.
    pub full_quorum: usize,
    /// Files voted from a partial replica set (`q_min ≤ arrived < r`).
    pub degraded: usize,
    /// Files that reached quorum only after at least one retry wave.
    pub retried: usize,
    /// Deepest retry wave used this round (0 = no retries anywhere).
    pub retry_waves: u32,
    /// Replica deliveries lost to message drops across all attempts
    /// (crashed workers are not counted — they never send).
    pub dropped_replicas: usize,
    /// Workers crashed for the whole round.
    pub crashed_workers: usize,
    /// Files whose vote completed this round but whose fold is deferred
    /// to a later round (bounded staleness: the file fell below the
    /// on-time quorum, so it finalizes over all live holders and folds
    /// `lag` rounds later). Always zero outside
    /// [`RoundMode::BoundedStaleness`].
    pub deferred: usize,
    /// Stale winners from *earlier* rounds folded into this round's
    /// update (discounted by `1/(1 + lag)`). Always zero outside
    /// [`RoundMode::BoundedStaleness`].
    pub stale_folded: usize,
    /// Files given up after exhausting the retry budget.
    pub abandoned: Vec<AbandonedFile>,
}

impl RoundOutcome {
    /// Files that produced a vote winner (full + degraded).
    pub fn surviving_files(&self) -> usize {
        self.full_quorum + self.degraded
    }

    /// `true` when no file reached quorum — the round cannot produce a
    /// gradient and surfaces as [`TrainingError::RoundCollapsed`].
    pub fn is_collapsed(&self) -> bool {
        self.surviving_files() == 0
    }
}

/// Membership report for a round whose effective placement changed
/// because of cluster churn (a scheduled join or leave in the
/// [`FaultPlan`]). Quarantine-driven repairs keep their pre-churn
/// reporting shape ([`ReputationOutcome`]) and do not emit one of
/// these.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipOutcome {
    /// Workers that joined (or rejoined) service this round, ascending.
    pub joined: Vec<usize>,
    /// Workers that left service this round, ascending.
    pub left: Vec<usize>,
    /// The full member set after the change, ascending.
    pub members: Vec<usize>,
    /// Files left below the replication factor because the surviving
    /// member pool is too small. Empty whenever `|members| ≥ r`.
    pub under_replicated: Vec<usize>,
    /// `max_load − min_load` across members after the repair.
    pub load_skew: usize,
    /// The realized worst-case distortion fraction ε̂ of the repaired
    /// placement: the best `q` Byzantine members re-scored exhaustively
    /// against the *actual* post-churn graph (`byz-distortion`'s
    /// graph-level solver). `None` when the member set is too large to
    /// enumerate cheaply.
    pub realized_epsilon_bound: Option<f64>,
}

/// Per-round reputation report (present only when
/// [`TrainingConfig::reputation`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationOutcome {
    /// Suspicion scores after this round's fold, indexed by worker.
    pub suspicions: Vec<f64>,
    /// Standing changes this round triggered (quarantines, readmissions).
    pub events: Vec<QuarantineEvent>,
    /// The cumulative quarantined set after this round, ascending.
    pub quarantined: Vec<usize>,
}

/// Why a training run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainingError {
    /// The defense's aggregation rule rejected its input — e.g. Bulyan's
    /// `n ≥ 4c + 3` requirement cannot be met (the inapplicability the
    /// paper hits in Figures 3 and 7).
    DefenseInapplicable {
        iteration: usize,
        source: AggregationError,
    },
    /// The batch size is not divisible by the file count.
    BatchNotDivisible { batch: usize, files: usize },
    /// `q` exceeds the number of workers.
    TooManyByzantine { q: usize, workers: usize },
    /// No file in the round reached its minimum quorum — e.g. every
    /// worker crashed, or drops pushed all files below `q_min` for the
    /// whole retry budget. The outcome records exactly what was lost.
    RoundCollapsed {
        iteration: usize,
        outcome: Box<RoundOutcome>,
    },
}

impl fmt::Display for TrainingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainingError::DefenseInapplicable { iteration, source } => {
                write!(f, "defense inapplicable at iteration {iteration}: {source}")
            }
            TrainingError::BatchNotDivisible { batch, files } => {
                write!(f, "batch size {batch} not divisible into {files} files")
            }
            TrainingError::TooManyByzantine { q, workers } => {
                write!(f, "q = {q} Byzantine workers exceeds K = {workers}")
            }
            TrainingError::RoundCollapsed { iteration, outcome } => {
                write!(
                    f,
                    "round {iteration} collapsed: no file reached quorum \
                     ({} workers crashed, {} replicas dropped, {} files abandoned)",
                    outcome.crashed_workers,
                    outcome.dropped_replicas,
                    outcome.abandoned.len()
                )
            }
        }
    }
}

impl std::error::Error for TrainingError {}

/// One recorded point of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (1-based, matching the paper's plots).
    pub iteration: usize,
    /// Number of file majorities actually distorted this iteration.
    pub distorted_files: usize,
    /// Distorted fraction ε̂ this iteration. Under an active fault plan
    /// this is *measured* over surviving files (winner differs bitwise
    /// from the true gradient / files that reached quorum); without
    /// faults it is the predictive `count_distorted / f` as before.
    pub epsilon_hat: f64,
    /// Degradation report for this round's gather + vote.
    pub outcome: RoundOutcome,
    /// Reputation report for this round (`None` when reputation is
    /// disabled or the defense is [`Defense::Direct`]).
    pub reputation: Option<ReputationOutcome>,
    /// Membership report, present only on rounds where cluster churn
    /// changed the effective placement.
    pub membership: Option<MembershipOutcome>,
    /// Top-1 test accuracy, when evaluated this iteration.
    pub test_accuracy: Option<f64>,
    /// Mean training loss over the probe set, when evaluated this
    /// iteration.
    pub train_loss: Option<f64>,
    /// Wall-clock time spent computing gradients this iteration.
    pub compute_time: Duration,
    /// Wall-clock time spent on voting + aggregation this iteration.
    pub aggregate_time: Duration,
    /// Modelled backoff added by this round's re-vote waves (zero when
    /// nothing was retried; the simulator itself never sleeps).
    pub retry_time: Duration,
}

/// The full history of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// Per-iteration records.
    pub records: Vec<IterationRecord>,
    /// Final test accuracy over the capped evaluation set.
    pub final_accuracy: f64,
    /// Final mean training loss over the probe set (0.0 when the probe
    /// set is empty).
    pub final_loss: f64,
    /// Total wall-clock training time.
    pub total_time: Duration,
    /// The final reputation ledger (`None` when reputation is disabled).
    /// Its serialized bytes travel with format-v2 checkpoints.
    pub ledger: Option<ReputationLedger>,
}

impl TrainingHistory {
    /// The accuracy curve as `(iteration, accuracy)` points.
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.test_accuracy.map(|a| (r.iteration, a)))
            .collect()
    }

    /// The training-loss curve as `(iteration, loss)` points.
    pub fn loss_curve(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.train_loss.map(|l| (r.iteration, l)))
            .collect()
    }

    /// Total files abandoned (never reached quorum) across the run.
    pub fn total_abandoned(&self) -> usize {
        self.records.iter().map(|r| r.outcome.abandoned.len()).sum()
    }

    /// Total files voted from degraded (partial) replica sets.
    pub fn total_degraded(&self) -> usize {
        self.records.iter().map(|r| r.outcome.degraded).sum()
    }

    /// Every quarantine fired during the run, as `(worker, round)` in
    /// firing order. Empty when reputation was disabled.
    pub fn quarantine_timeline(&self) -> Vec<(usize, u64)> {
        self.records
            .iter()
            .filter_map(|r| r.reputation.as_ref())
            .flat_map(|rep| {
                rep.events.iter().filter_map(|e| match e {
                    QuarantineEvent::Quarantined { worker, round, .. } => Some((*worker, *round)),
                    QuarantineEvent::Readmitted { .. } => None,
                })
            })
            .collect()
    }

    /// Mean observed distortion fraction across iterations.
    pub fn mean_epsilon_hat(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.epsilon_hat).sum::<f64>() / self.records.len() as f64
    }
}

/// A vote winner finalized below the on-time quorum under
/// [`RoundMode::BoundedStaleness`], parked until its fold round.
struct StaleWinner {
    origin: u64,
    file: usize,
    lag: u64,
    /// Whether the winner differed bitwise from the origin round's
    /// honest reference (fixed at the origin; folded into the fold
    /// round's measured distortion).
    distorted: bool,
    audit: Option<VoteAudit>,
    value: Vec<f32>,
}

/// Re-realizes the dynamic placement for the plan-level member set
/// minus the quarantined workers. The realization is a pure function of
/// the final sets (not of event order), so this single entry point
/// serves both churn syncs and quarantine repairs and the two compose
/// without drift.
fn sync_membership(dynamic: &mut DynamicAssignment, plan_members: &[usize], quarantined: &[usize]) {
    let universe = dynamic.universe();
    let desired: Vec<usize> = plan_members
        .iter()
        .copied()
        .filter(|w| !quarantined.contains(w))
        .collect();
    let leaves: Vec<usize> = (0..universe).filter(|w| !desired.contains(w)).collect();
    dynamic.apply(&desired, &leaves);
}

/// Byzantine-set enumeration budget for re-scoring a repaired
/// placement's realized ε̂ (C(members, q) subsets, each a full
/// per-file majority count). Past this the bound is skipped, not
/// approximated.
const REALIZED_EPSILON_BUDGET: u64 = 200_000;

/// Assembles the per-round membership report after a churn sync,
/// including the realized worst-case ε̂ of the repaired graph when the
/// member set is small enough to enumerate.
fn membership_report(
    dynamic: &DynamicAssignment,
    joined: Vec<usize>,
    left: Vec<usize>,
    q: usize,
) -> MembershipOutcome {
    let members = dynamic.members();
    let q_eff = q.min(members.len());
    let bound = (binomial_saturating(members.len() as u64, q_eff as u64)
        <= REALIZED_EPSILON_BUDGET)
        .then(|| {
            cmax_graph_exhaustive(dynamic.graph(), &members, q_eff).epsilon_hat(dynamic.num_files())
        });
    MembershipOutcome {
        joined,
        left,
        under_replicated: dynamic.under_replicated().to_vec(),
        load_skew: dynamic.load_skew(),
        realized_epsilon_bound: bound,
        members,
    }
}

/// The synchronous Byzantine-robust trainer (paper Algorithm 1).
///
/// Each iteration:
/// 1. sample a batch and split it into `f` files (`byz-data`);
/// 2. compute the true per-file gradients (each file once — honest
///    replicas are bit-identical, see [`FileGradientOracle`]);
/// 3. choose the Byzantine set (random / omniscient / fixed) and replace
///    every replica held by a Byzantine worker with the attack payload;
/// 4. run the defense (vote → aggregate, or direct aggregation);
/// 5. update the model through SGD-with-momentum and the step-decay
///    schedule.
pub struct Trainer<'a, M: Module> {
    model: &'a M,
    train: &'a Dataset,
    test: &'a Dataset,
    assignment: Assignment,
    layout: InputLayout,
    selector: ByzantineSelector,
    attack: Box<dyn AttackVector>,
    defense: Defense,
    config: TrainingConfig,
}

impl<'a, M: Module> Trainer<'a, M> {
    /// Assembles a trainer. See the crate example for typical wiring.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &'a M,
        train: &'a Dataset,
        test: &'a Dataset,
        assignment: Assignment,
        layout: InputLayout,
        selector: ByzantineSelector,
        attack: Box<dyn AttackVector>,
        defense: Defense,
        config: TrainingConfig,
    ) -> Self {
        Trainer {
            model,
            train,
            test,
            assignment,
            layout,
            selector,
            attack,
            defense,
            config,
        }
    }

    /// The assignment in force.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Runs the full training loop.
    ///
    /// # Errors
    ///
    /// Returns [`TrainingError`] on configuration problems or when the
    /// defense becomes inapplicable (paper Section 6.1's constraints).
    pub fn run(&mut self) -> Result<TrainingHistory, TrainingError> {
        let f = self.assignment.num_files();
        let k = self.assignment.num_workers();
        let q = self.config.num_byzantine;
        if !self.config.batch_size.is_multiple_of(f) {
            return Err(TrainingError::BatchNotDivisible {
                batch: self.config.batch_size,
                files: f,
            });
        }
        if q > k {
            return Err(TrainingError::TooManyByzantine { q, workers: k });
        }

        let start = Instant::now();
        let oracle = FileGradientOracle::new(self.model, self.train, self.layout);
        let params_tensors = self.model.parameters();
        let mut opt = Sgd::new(
            params_tensors.clone(),
            self.config.lr_schedule,
            self.config.momentum,
        );
        let mut sampler =
            BatchSampler::new(self.train.len(), self.config.batch_size, self.config.seed);
        let mut history = TrainingHistory::default();
        let mut params = flatten_params(&params_tensors);

        // Reputation state: the ledger plus the *effective* placement.
        // The placement starts as the scheme's graph and is canonically
        // re-realized (`DynamicAssignment`) after every quarantine and
        // every churn event; with reputation disabled and no churn it is
        // never touched, so the protocol is bit-identical to before.
        let mut ledger = self
            .config
            .reputation
            .map(|cfg| ReputationLedger::new(k, cfg));
        let mut dynamic = DynamicAssignment::new(self.assignment.clone());
        // The fault plan's member set as last realized; churn syncs fire
        // only when this changes, so quarantine-only runs keep the exact
        // legacy repair cadence.
        let mut current_plan_members: Vec<usize> = (0..k).collect();
        // Bounded staleness: winners voted below the on-time quorum,
        // parked until their fold round. Pushed in (origin, file) order,
        // which is exactly the canonical fold order.
        let mut parked: Vec<StaleWinner> = Vec::new();

        for t in 1..=self.config.iterations {
            // 0. Cluster churn: realize this round's member set before
            //    anything is polled. The realization is a pure function
            //    of (base assignment, member set), so join/leave order
            //    and batching cannot perturb the placement.
            let membership = if self.config.faults.has_churn() {
                let plan_members = self.config.faults.members_at(k, t as u64);
                if plan_members == current_plan_members {
                    None
                } else {
                    let joined: Vec<usize> = plan_members
                        .iter()
                        .copied()
                        .filter(|w| !current_plan_members.contains(w))
                        .collect();
                    let left: Vec<usize> = current_plan_members
                        .iter()
                        .copied()
                        .filter(|w| !plan_members.contains(w))
                        .collect();
                    if let Some(ledger) = ledger.as_mut() {
                        for &w in &joined {
                            ledger.admit_worker(w);
                        }
                        for &w in &left {
                            ledger.depart_worker(w, t as u64);
                        }
                    }
                    let quarantined = ledger
                        .as_ref()
                        .map(ReputationLedger::quarantined_workers)
                        .unwrap_or_default();
                    sync_membership(&mut dynamic, &plan_members, &quarantined);
                    current_plan_members = plan_members;
                    Some(membership_report(&dynamic, joined, left, q))
                }
            } else {
                None
            };
            // 1. Batch → files.
            let batch = sampler.next_batch();
            let files = split_batch_into_files(&batch, f);

            // 2. True per-file gradients (computed once; honest replicas
            //    are identical by construction).
            let compute_start = Instant::now();
            let true_grads: Vec<Vec<f32>> = files
                .iter()
                .map(|file| oracle.file_gradient(&params, file))
                .collect();
            let compute_time = compute_start.elapsed();

            // 3. Byzantine selection + forgery. The flag vector spans
            //    the membership universe (joiners extend it past K); the
            //    selector itself still draws from the founding set.
            let byzantine = self.selector.select(&self.assignment, q, t);
            let mut is_byz = vec![false; k.max(dynamic.universe())];
            for &w in &byzantine {
                is_byz[w] = true;
            }
            let moments =
                GradientMoments::compute(&true_grads.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let predicted_distorted = count_distorted(&self.assignment, &byzantine);

            // The replica value worker `w` returns for `file_idx`, as the
            // PS sees it (Eq. 2). Honest replicas are bit-identical; every
            // attack forges deterministically from the context, so retried
            // deliveries re-send the same payload.
            let forge = |w: usize, file_idx: usize| -> Vec<f32> {
                if is_byz[w] {
                    self.attack.forge(&AttackContext {
                        true_gradient: &true_grads[file_idx],
                        honest_mean: &moments.mean,
                        honest_std: &moments.std,
                        num_workers: k,
                        num_byzantine: q,
                        iteration: t,
                        file: file_idx,
                    })
                } else {
                    true_grads[file_idx].clone()
                }
            };

            let plan = &self.config.faults;
            let q_min = self.config.quorum.q_min;
            let max_retries = self.config.quorum.max_retries;
            let chunking = self.config.chunking;
            let d_model = params.len();
            // A delivery is lost when the whole replica drops, or — under
            // a chunked wire — when *any* of its chunk frames drops: an
            // incomplete replica casts no vote, exactly like an absent
            // one. Retry waves re-roll both, keyed on the attempt index.
            let delivery_lost = |attempt: u32, w: usize, file_idx: usize| -> bool {
                if plan.drops_replica(t as u64, attempt, w, file_idx) {
                    return true;
                }
                match chunking {
                    Some(cfg) => (0..num_chunks(d_model, cfg.span_len()))
                        .any(|c| plan.drops_chunk(t as u64, attempt, w, file_idx, c)),
                    None => false,
                }
            };
            let mut outcome = RoundOutcome {
                crashed_workers: plan.num_crashed(),
                ..RoundOutcome::default()
            };
            // Set on the vote path under an active fault plan or an
            // active ledger: (measured distorted winners, surviving
            // files).
            let mut measured: Option<(usize, usize)> = None;
            // This round's vote audits (collected only when a ledger is
            // folding them).
            let mut audits: Vec<VoteAudit> = Vec::new();

            let agg_start = Instant::now();
            // 4. Defense, over whatever replicas arrive. Each attempt
            //    re-polls the file's surviving workers with re-rolled
            //    drops (`FaultPlan::replica_arrives` keys on the attempt
            //    index); crashed workers never return.
            let aggregated = match &self.defense {
                Defense::VoteThenAggregate(aggregator) => {
                    // Under a lossy chunk scheme every payload passes
                    // through the same deterministic compression, so the
                    // honest replicas of a file stay bit-identical (and
                    // shareable) *after* compression — the vote still
                    // works by exact equality.
                    let wire_grads: Vec<Vec<f32>> = match chunking {
                        Some(cfg) if cfg.scheme != ChunkScheme::Dense => {
                            true_grads.iter().map(|g| apply_scheme(g, &cfg)).collect()
                        }
                        _ => Vec::new(),
                    };
                    let honest_grads: &Vec<Vec<f32>> = if wire_grads.is_empty() {
                        &true_grads
                    } else {
                        &wire_grads
                    };
                    // Zero-copy forge: honest replicas borrow the shared
                    // (possibly compressed) gradient, only forgeries
                    // allocate.
                    let forge_replica = |w: usize, file_idx: usize| {
                        if is_byz[w] {
                            let forged = self.attack.forge(&AttackContext {
                                true_gradient: &true_grads[file_idx],
                                honest_mean: &moments.mean,
                                honest_std: &moments.std,
                                num_workers: k,
                                num_byzantine: q,
                                iteration: t,
                                file: file_idx,
                            });
                            Replica::Forged(match chunking {
                                Some(cfg) if cfg.scheme != ChunkScheme::Dense => {
                                    apply_scheme(&forged, &cfg)
                                }
                                _ => forged,
                            })
                        } else {
                            Replica::Honest(&honest_grads[file_idx])
                        }
                    };

                    let active_graph = dynamic.graph();
                    // Bounded staleness: each worker's lag is a pure
                    // function of the fault plan, never of observed
                    // arrival times. A file with enough live lag-0
                    // holders votes now over those on-time replicas; a
                    // file below the on-time quorum votes over all live
                    // holders and folds `lag` rounds later.
                    let max_staleness = match self.config.mode {
                        RoundMode::BoundedStaleness { max_staleness } => max_staleness,
                        RoundMode::Barrier | RoundMode::Streaming => 0,
                    };
                    let lag_of = |w: usize| plan.staleness_lag(w, max_staleness);
                    let file_lag: Vec<u64> = (0..f)
                        .map(|fi| {
                            let holders = active_graph.workers_of(fi);
                            let on_time = holders
                                .iter()
                                .filter(|&&w| !plan.is_crashed(w) && lag_of(w) == 0)
                                .count();
                            if on_time >= q_min {
                                0
                            } else {
                                holders
                                    .iter()
                                    .filter(|&&w| !plan.is_crashed(w))
                                    .map(|&w| lag_of(w))
                                    .max()
                                    .unwrap_or(0)
                            }
                        })
                        .collect();

                    // Wave 0: collect every file's attempt-0 deliveries
                    // (drop decisions evaluated in the same (file, worker)
                    // order as the sequential loop), then vote all files
                    // in parallel over the kernel pool. Each vote is a
                    // pure per-file function writing its own slot, so the
                    // winners/audits are bit-identical to voting one file
                    // at a time.
                    let mut wave0: Vec<Vec<(usize, Replica<'_>)>> = Vec::with_capacity(f);
                    for (file_idx, &lag) in file_lag.iter().enumerate() {
                        let workers = active_graph.workers_of(file_idx);
                        let mut present = Vec::with_capacity(workers.len());
                        for &w in workers {
                            if plan.is_crashed(w) {
                                continue;
                            }
                            // An on-time file never waits for a late
                            // holder: its replica is discarded on
                            // (modeled) late arrival and audits Absent.
                            if lag == 0 && lag_of(w) > 0 {
                                continue;
                            }
                            if delivery_lost(0, w, file_idx) {
                                outcome.dropped_replicas += 1;
                            } else {
                                present.push((w, forge_replica(w, file_idx)));
                            }
                        }
                        wave0.push(present);
                    }
                    let vote_inputs: Vec<byz_aggregate::VoteInput<'_, Replica<'_>>> = wave0
                        .iter()
                        .enumerate()
                        .map(|(fi, present)| (present.as_slice(), active_graph.workers_of(fi)))
                        .collect();
                    let wave0_votes = quorum_vote_all_audited(&vote_inputs, q_min);

                    // Retry waves stay sequential (they are rare and
                    // per-file); bookkeeping runs in ascending file order
                    // exactly as before.
                    let mut winners: Vec<(usize, QuorumOutcome)> = Vec::with_capacity(f);
                    for (file_idx, wave0_vote) in wave0_votes.into_iter().enumerate() {
                        let workers = active_graph.workers_of(file_idx);
                        let mut attempt: u32 = 0;
                        let mut result = wave0_vote;
                        loop {
                            match result {
                                Ok(vote) => {
                                    if attempt > 0 {
                                        outcome.retried += 1;
                                        outcome.retry_waves = outcome.retry_waves.max(attempt);
                                    }
                                    match vote.provenance {
                                        Provenance::Full => outcome.full_quorum += 1,
                                        Provenance::Degraded { .. } => outcome.degraded += 1,
                                    }
                                    winners.push((file_idx, vote));
                                    break;
                                }
                                Err(error) => {
                                    if attempt as usize >= max_retries {
                                        outcome.abandoned.push(AbandonedFile {
                                            file: file_idx,
                                            attempts: attempt + 1,
                                            error,
                                        });
                                        break;
                                    }
                                    attempt += 1;
                                    let mut present: Vec<(usize, Replica<'_>)> =
                                        Vec::with_capacity(workers.len());
                                    for &w in workers {
                                        if plan.is_crashed(w) {
                                            continue;
                                        }
                                        if file_lag[file_idx] == 0 && lag_of(w) > 0 {
                                            continue;
                                        }
                                        if delivery_lost(attempt, w, file_idx) {
                                            outcome.dropped_replicas += 1;
                                        } else {
                                            present.push((w, forge_replica(w, file_idx)));
                                        }
                                    }
                                    result = quorum_vote_audited(&present, q_min, workers);
                                }
                            }
                        }
                    }
                    // Partition this round's winners: on-time files fold
                    // now; deferred files (below the on-time quorum) park
                    // until round `t + lag`. Their measured-distortion
                    // verdict is fixed at the origin round against the
                    // origin's honest reference.
                    let voted_any = !winners.is_empty();
                    let mut on_time: Vec<(usize, QuorumOutcome)> =
                        Vec::with_capacity(winners.len());
                    for (fi, vote) in winners {
                        if file_lag[fi] > 0 {
                            outcome.deferred += 1;
                            parked.push(StaleWinner {
                                origin: t as u64,
                                file: fi,
                                lag: file_lag[fi],
                                distorted: gradients_differ(&vote.value, &honest_grads[fi]),
                                audit: ledger.is_some().then_some(vote.audit),
                                value: vote.value,
                            });
                        } else {
                            on_time.push((fi, vote));
                        }
                    }
                    // Stale winners due this round, folded in canonical
                    // (origin round, file) order. Parking happens in
                    // round order with ascending files, so the sort is a
                    // no-op in practice; it pins the order explicitly
                    // rather than by construction.
                    let (mut due, keep): (Vec<StaleWinner>, Vec<StaleWinner>) =
                        std::mem::take(&mut parked)
                            .into_iter()
                            .partition(|s| s.origin + s.lag == t as u64);
                    due.sort_by_key(|s| (s.origin, s.file));
                    parked = keep;
                    if !voted_any && due.is_empty() {
                        return Err(TrainingError::RoundCollapsed {
                            iteration: t,
                            outcome: Box::new(outcome),
                        });
                    }
                    if ledger.is_some() {
                        // Evidence folds when a vote's gradient folds:
                        // on-time audits in file order, then due stale
                        // audits in (origin, file) order — mirroring the
                        // operand order below.
                        for (_, vote) in &mut on_time {
                            audits.push(std::mem::take(&mut vote.audit));
                        }
                        for stale in &mut due {
                            audits.extend(stale.audit.take());
                        }
                    }
                    if !plan.is_trivial() || ledger.is_some() {
                        // Under a lossy scheme the honest (compressed)
                        // payload is the reference: sparsification error
                        // is not Byzantine distortion.
                        let distorted = on_time
                            .iter()
                            .filter(|(fi, vote)| gradients_differ(&vote.value, &honest_grads[*fi]))
                            .count()
                            + due.iter().filter(|s| s.distorted).count();
                        measured = Some((distorted, on_time.len() + due.len()));
                    }
                    let mut values: Vec<Vec<f32>> =
                        on_time.into_iter().map(|(_, vote)| vote.value).collect();
                    for stale in due {
                        outcome.stale_folded += 1;
                        let discount = 1.0 / (1.0 + stale.lag as f32);
                        values.push(stale.value.iter().map(|v| v * discount).collect());
                    }
                    if values.is_empty() {
                        // Every winner was deferred and nothing came due:
                        // the round produced evidence but no gradient.
                        // Parameters hold; this is not a collapse.
                        Ok(None)
                    } else {
                        aggregator.aggregate(&values).map(Some)
                    }
                }
                Defense::Direct(aggregator) => {
                    // Without voting, every arriving return is an operand
                    // (baseline schemes use replication 1, so normally one
                    // per worker). A file with zero arrivals is retried and
                    // eventually abandoned like a collapsed quorum.
                    let mut operands: Vec<Vec<f32>> = Vec::new();
                    for file_idx in 0..f {
                        let workers = self.assignment.graph().workers_of(file_idx);
                        let expected = workers.len();
                        let mut attempt: u32 = 0;
                        loop {
                            let mut present: Vec<Vec<f32>> = Vec::with_capacity(expected);
                            for &w in workers {
                                if plan.is_crashed(w) {
                                    continue;
                                }
                                if plan.drops_replica(t as u64, attempt, w, file_idx) {
                                    outcome.dropped_replicas += 1;
                                } else {
                                    present.push(forge(w, file_idx));
                                }
                            }
                            if present.is_empty() {
                                if attempt as usize >= max_retries {
                                    outcome.abandoned.push(AbandonedFile {
                                        file: file_idx,
                                        attempts: attempt + 1,
                                        error: QuorumError::NoReplicas,
                                    });
                                    break;
                                }
                                attempt += 1;
                                continue;
                            }
                            if attempt > 0 {
                                outcome.retried += 1;
                                outcome.retry_waves = outcome.retry_waves.max(attempt);
                            }
                            if present.len() == expected {
                                outcome.full_quorum += 1;
                            } else {
                                outcome.degraded += 1;
                            }
                            operands.extend(present);
                            break;
                        }
                    }
                    if operands.is_empty() {
                        return Err(TrainingError::RoundCollapsed {
                            iteration: t,
                            outcome: Box::new(outcome),
                        });
                    }
                    aggregator.aggregate(&operands).map(Some)
                }
            }
            .map_err(|source| TrainingError::DefenseInapplicable {
                iteration: t,
                source,
            })?;
            let aggregate_time = agg_start.elapsed();
            let retry_time = self.config.retry.total_backoff(outcome.retry_waves);

            // Reputation fold: turn this round's audits into suspicion
            // updates; on a quarantine, re-realize the placement so the
            // flagged workers stop being polled and their files regain
            // full replication on the surviving members.
            let voting = matches!(self.defense, Defense::VoteThenAggregate(_));
            let reputation = ledger.as_mut().filter(|_| voting).map(|ledger| {
                let events = ledger.observe_round(t as u64, &audits);
                if events.iter().any(QuarantineEvent::is_quarantine) {
                    sync_membership(
                        &mut dynamic,
                        &current_plan_members,
                        &ledger.quarantined_workers(),
                    );
                }
                ReputationOutcome {
                    suspicions: ledger.suspicions(),
                    events,
                    quarantined: ledger.quarantined_workers(),
                }
            });

            // 5. Model update. File gradients are SUMS over b/f samples;
            //    the aggregate approximates a per-file sum, so scaling by
            //    f/b yields a per-sample mean-gradient step (Algorithm 1,
            //    line 17). The scale folds into the chunk-parallel kernel
            //    step, bit-identical to pre-scaling the gradient.
            let scale = f as f32 / self.config.batch_size as f32;
            if let Some(gradient) = &aggregated {
                opt.step_with_scaled_gradient(gradient, scale);
                params = flatten_params(&params_tensors);
            }

            // Bookkeeping. Without faults ε̂ keeps its predictive meaning
            // (`count_distorted / f`, exactly as before); with faults it
            // is measured over the files that actually reached quorum.
            let (distorted_files, epsilon_hat) = match measured {
                // `surviving` can be zero only when every winner was
                // deferred under bounded staleness; report ε̂ = 0 for
                // such a no-fold round rather than dividing by zero.
                Some((distorted, surviving)) => {
                    (distorted, distorted as f64 / surviving.max(1) as f64)
                }
                None => (predicted_distorted, predicted_distorted as f64 / f as f64),
            };
            let evaluate = self.config.eval_every != 0 && t % self.config.eval_every == 0;
            let test_accuracy = evaluate.then(|| {
                evaluate_accuracy(
                    self.model,
                    &params,
                    self.test,
                    self.layout,
                    self.config.eval_samples,
                )
            });
            let train_loss = if evaluate {
                oracle
                    .probe_loss(&params, self.config.eval_samples)
                    .map(f64::from)
            } else {
                None
            };
            history.records.push(IterationRecord {
                iteration: t,
                distorted_files,
                epsilon_hat,
                outcome,
                reputation,
                membership,
                test_accuracy,
                train_loss,
                compute_time,
                aggregate_time,
                retry_time,
            });
        }

        history.final_accuracy = evaluate_accuracy(
            self.model,
            &params,
            self.test,
            self.layout,
            self.config.eval_samples,
        );
        history.final_loss = oracle
            .probe_loss(&params, self.config.eval_samples)
            .map(f64::from)
            .unwrap_or(0.0);
        history.total_time = start.elapsed();
        history.ledger = ledger;
        Ok(history)
    }
}
