//! The end-to-end training protocol (paper Algorithm 1).

use crate::{evaluate_accuracy, GradientMoments};
use byz_aggregate::{gradient_fingerprint, AggregationError, Aggregator, QuorumError};
use byz_assign::{Assignment, DynamicAssignment};
use byz_attack::{AttackContext, AttackVector, ByzantineSelector};
use byz_cluster::FaultPlan;
use byz_data::Dataset;
use byz_distortion::{binomial_saturating, cmax_graph_exhaustive, count_distorted};
use byz_nn::{FastMlp, StepDecaySchedule};
use byz_reputation::{QuarantineEvent, ReputationConfig, ReputationLedger};
use byz_wire::{Delivery, RoundCore, RoundResult, ServerConfig, Session};
use std::fmt;
use std::time::{Duration, Instant};

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Batch size `b` per iteration (at least 1, at most the training
    /// set's size, and divisible by `f`).
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
    /// Benign-fault injection plan: crashes, replica drops and churn.
    /// (Stragglers, chunk drops and connection faults shape the wire's
    /// rounds only; the barrier round here never waits.)
    /// [`FaultPlan::none`] disables injection and preserves the exact
    /// no-fault protocol behaviour bit for bit.
    pub faults: FaultPlan,
    /// Degradation policy: the minimum number of arrived replicas for a
    /// file's vote to count — the wire's [`ServerConfig::q_min`], with
    /// its `⌈q_min/2⌉ − 1` guarantee. A file below it is abandoned for
    /// the round, never re-requested.
    pub q_min: usize,
    /// Vote-audit reputation: when set, a [`ReputationLedger`] folds
    /// every round's vote audits, quarantined workers stop being polled
    /// and their files are greedily re-replicated onto survivors
    /// (`byz_assign::reassign_quarantined`). `None` (the default)
    /// preserves the pre-reputation protocol bit for bit.
    pub reputation: Option<ReputationConfig>,
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
            q_min: 1,
            reputation: None,
        }
    }
}

/// A file whose vote never reached quorum, with why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbandonedFile {
    /// File index in `0..f`.
    pub file: usize,
    /// Why the vote failed.
    pub error: QuorumError,
}

/// Degradation report for one protocol round: every file is booked
/// once, so `full_quorum + degraded + abandoned.len()` is `f`.
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
    /// Replica deliveries lost to message drops (crashed workers are not
    /// counted — they never send).
    pub dropped_replicas: usize,
    /// Workers crashed for the whole round.
    pub crashed_workers: usize,
    /// Files that had fewer than `q_min` replicas arrive.
    pub abandoned: Vec<AbandonedFile>,
}

impl RoundOutcome {
    /// Files whose winner folded this round (full + degraded).
    pub fn surviving_files(&self) -> usize {
        self.full_quorum + self.degraded
    }

    /// `true` when no file reached quorum this round, so it produced no
    /// gradient: exactly the [`TrainingError::RoundCollapsed`] payloads.
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
    /// The batch size is zero or exceeds the training set.
    BatchSizeOutOfRange { batch: usize, samples: usize },
    /// The batch size is not divisible by the file count.
    BatchNotDivisible { batch: usize, files: usize },
    /// `q` exceeds the number of workers.
    TooManyByzantine { q: usize, workers: usize },
    /// No file in the round reached its minimum quorum — e.g. every
    /// worker crashed, or drops pushed all files below `q_min`. The
    /// outcome records exactly what was lost.
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
            TrainingError::BatchSizeOutOfRange { batch, samples } => {
                write!(
                    f,
                    "batch size {batch} outside 1..={samples} training samples"
                )
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
    /// or ledger this is *measured* on the engine's winners (those whose
    /// fingerprint is not the round's true gradient's / files that
    /// reached quorum); otherwise it is the predictive
    /// `count_distorted / f`.
    pub epsilon_hat: f64,
    /// Degradation report for this round's gather + vote.
    pub outcome: RoundOutcome,
    /// Reputation report for this round (`None` when reputation is
    /// disabled).
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
    /// Wall-clock time of the round's engine span: replica delivery,
    /// votes, aggregation and the update.
    pub aggregate_time: Duration,
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
    /// The final reputation ledger (`None` when reputation is disabled);
    /// [`ReputationLedger::to_bytes`] serializes it.
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

/// The synchronous Byzantine-robust trainer (paper Algorithm 1): the
/// [`Session`] the wire PS runs, over an in-memory delivery.
///
/// Each iteration:
/// 1. sample a batch and split it into `f` files (`byz-data`);
/// 2. compute the true per-file gradients with the model the deployed
///    workers run (each file once — honest replicas are bit-identical,
///    see [`FastMlp::gradient_sum`]);
/// 3. choose the Byzantine set (random / omniscient / fixed) and replace
///    every replica held by a Byzantine worker with the attack payload;
/// 4. offer the round engine ([`RoundCore`]) every replica the fault
///    plan delivers (the zero-latency link, on the barrier schedule); it
///    votes every file, then the aggregator combines the winners. A
///    baseline is the same round on an `r = 1` placement;
/// 5. take the PS's SGD-with-momentum step at the step-decay schedule's
///    rate, and load the parameters into the model.
///
/// The run leaves the final parameters in the model it was given.
pub struct Trainer<'a> {
    model: &'a mut FastMlp,
    train: &'a Dataset,
    test: &'a Dataset,
    assignment: Assignment,
    selector: ByzantineSelector,
    attack: Box<dyn AttackVector>,
    aggregator: Box<dyn Aggregator>,
    config: TrainingConfig,
}

impl<'a> Trainer<'a> {
    /// Assembles a trainer. See the crate example for typical wiring.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &'a mut FastMlp,
        train: &'a Dataset,
        test: &'a Dataset,
        assignment: Assignment,
        selector: ByzantineSelector,
        attack: Box<dyn AttackVector>,
        aggregator: Box<dyn Aggregator>,
        config: TrainingConfig,
    ) -> Self {
        Trainer {
            model,
            train,
            test,
            assignment,
            selector,
            attack,
            aggregator,
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
    /// Returns [`TrainingError`] on configuration problems, when a round
    /// collapses, or when the aggregator becomes inapplicable (paper
    /// Section 6.1's constraints).
    pub fn run(&mut self) -> Result<TrainingHistory, TrainingError> {
        self.check_config()?;
        let start = Instant::now();
        let config = &self.config;
        // The engine's barrier round on the batched wire; the rate comes
        // from the schedule, round by round.
        let session_config = ServerConfig {
            batch_size: config.batch_size,
            momentum: config.momentum,
            faults: config.faults.clone(),
            q_min: config.q_min,
            seed: config.seed,
            reputation: config.reputation,
            ..ServerConfig::default()
        };
        let params = self.model.params_flat();
        let mut session = Session::new(&self.assignment, self.train.len(), params, &session_config);
        let mut link = InMemory {
            model: &mut *self.model,
            train: self.train,
            assignment: &self.assignment,
            selector: &self.selector,
            attack: &*self.attack,
            config,
            dynamic: DynamicAssignment::new(self.assignment.clone()),
            plan_members: (0..self.assignment.num_workers()).collect(),
            true_grads: Vec::new(),
            compute_time: Duration::ZERO,
            predicted_distorted: 0,
            dropped: 0,
            membership: None,
        };
        let mut history = TrainingHistory::default();

        for t in 1..=config.iterations {
            let lr = config.lr_schedule.rate_at(t - 1) as f32;
            let round = session
                .round(&mut link, &*self.aggregator, lr)
                .map_err(|source| TrainingError::DefenseInapplicable {
                    iteration: t,
                    source,
                })?;
            let result = &round.result;
            let outcome = round_outcome(result, config.faults.num_crashed(), link.dropped);
            if result.voted.is_empty() {
                return Err(TrainingError::RoundCollapsed {
                    iteration: t,
                    outcome: Box::new(outcome),
                });
            }
            // On a quarantine, re-realize the placement so the flagged
            // workers stop being polled and their files regain full
            // replication on the surviving members.
            let reputation = session.ledger().map(|ledger| {
                let quarantined = ledger.quarantined_workers();
                if round.events.iter().any(QuarantineEvent::is_quarantine) {
                    sync_membership(&mut link.dynamic, &link.plan_members, &quarantined);
                }
                ReputationOutcome {
                    suspicions: ledger.suspicions(),
                    events: round.events,
                    quarantined,
                }
            });
            let (distorted_files, epsilon_hat) = link.distortion(result);
            link.model.set_params(session.params());
            let evaluate = config.eval_every != 0 && t % config.eval_every == 0;
            let (test_accuracy, train_loss) = if evaluate {
                let (accuracy, loss) = evaluate_model(link.model, self.test, self.train, config);
                (Some(accuracy), loss)
            } else {
                (None, None)
            };
            history.records.push(IterationRecord {
                iteration: t,
                distorted_files,
                epsilon_hat,
                outcome,
                reputation,
                membership: link.membership.take(),
                test_accuracy,
                train_loss,
                compute_time: link.compute_time,
                aggregate_time: Duration::from_nanos(round.timings.round_ns),
            });
        }

        let (accuracy, loss) = evaluate_model(link.model, self.test, self.train, config);
        history.final_accuracy = accuracy;
        history.final_loss = loss.unwrap_or(0.0);
        history.total_time = start.elapsed();
        history.ledger = session.into_parts().1;
        Ok(history)
    }

    /// The configuration errors a run reports before its first round.
    fn check_config(&self) -> Result<(), TrainingError> {
        let (batch, samples) = (self.config.batch_size, self.train.len());
        let (files, workers) = (self.assignment.num_files(), self.assignment.num_workers());
        let q = self.config.num_byzantine;
        if !(1..=samples).contains(&batch) {
            return Err(TrainingError::BatchSizeOutOfRange { batch, samples });
        }
        if !batch.is_multiple_of(files) {
            return Err(TrainingError::BatchNotDivisible { batch, files });
        }
        if q > workers {
            return Err(TrainingError::TooManyByzantine { q, workers });
        }
        Ok(())
    }
}

/// The trainer's [`Delivery`], the zero-latency link: workers compute in
/// memory, and the engine is offered every replica the fault plan
/// delivers, once — like the wire, the round votes over what arrived.
/// Crashed workers never send.
struct InMemory<'r> {
    model: &'r mut FastMlp,
    train: &'r Dataset,
    assignment: &'r Assignment,
    selector: &'r ByzantineSelector,
    attack: &'r dyn AttackVector,
    config: &'r TrainingConfig,
    /// The effective placement, re-realized after every quarantine and
    /// churn event (never touched without either).
    dynamic: DynamicAssignment,
    /// The fault plan's member set as last realized.
    plan_members: Vec<usize>,
    // This round's true gradients, compute time, `count_distorted`,
    // drops and churn report.
    true_grads: Vec<Vec<f32>>,
    compute_time: Duration,
    predicted_distorted: usize,
    dropped: usize,
    membership: Option<MembershipOutcome>,
}

impl Delivery for InMemory<'_> {
    /// Computes the true per-file gradients, each file once: honest
    /// replicas are identical by construction. The model already holds
    /// the parameters (the trainer loads them after every step). Then
    /// realizes round `t`'s churn and polls the effective placement.
    fn send(
        &mut self,
        t: u64,
        _params: &[f32],
        files: &[Vec<usize>],
        ledger: Option<&mut ReputationLedger>,
    ) -> Vec<Vec<usize>> {
        let start = Instant::now();
        self.true_grads = files
            .iter()
            .map(|file| {
                let (x, labels) = self.train.gather(file);
                self.model.gradient_sum(&x, file.len(), &labels).1
            })
            .collect();
        self.compute_time = start.elapsed();
        self.membership = self.realize_churn(t, ledger);
        let graph = self.dynamic.graph();
        (0..self.dynamic.num_files())
            .map(|file| graph.workers_of(file).to_vec())
            .collect()
    }

    fn collect(&mut self, t: u64, core: &mut RoundCore, _opened: Instant) -> Option<Instant> {
        // The selector draws from the founding set; joiners are honest.
        let (k, q) = (self.assignment.num_workers(), self.config.num_byzantine);
        let byzantine = self.selector.select(self.assignment, q, t as usize);
        self.predicted_distorted = count_distorted(self.assignment, &byzantine);
        let grads: Vec<&[f32]> = self.true_grads.iter().map(Vec::as_slice).collect();
        let moments = GradientMoments::compute(&grads);
        let plan = &self.config.faults;
        self.dropped = 0;
        for (file, &true_gradient) in grads.iter().enumerate() {
            for &w in self.dynamic.graph().workers_of(file) {
                if plan.is_crashed(w) {
                    continue;
                }
                if plan.drops_replica(t, w, file) {
                    self.dropped += 1;
                    continue;
                }
                // The replica worker `w` returns for `file`, as the PS
                // sees it (Eq. 2): every attack forges deterministically
                // from the context.
                let forged;
                let replica = if byzantine.contains(&w) {
                    forged = self.attack.forge(&AttackContext {
                        true_gradient,
                        honest_mean: &moments.mean,
                        honest_std: &moments.std,
                        num_workers: k,
                        num_byzantine: q,
                        iteration: t as usize,
                        file,
                    });
                    &forged
                } else {
                    true_gradient
                };
                // The gate refuses only what could not vote on the wire
                // either (a forgery of the wrong shape).
                let _ = core.offer(w, t, file, replica);
            }
        }
        None
    }
}

impl InMemory<'_> {
    /// The round's distorted files and ε̂: under an active fault plan or
    /// ledger measured (winners against the true gradients, over the
    /// voted files), otherwise the predictive `count_distorted / f`.
    fn distortion(&self, result: &RoundResult) -> (usize, f64) {
        if self.config.faults.is_trivial() && self.config.reputation.is_none() {
            let (distorted, f) = (self.predicted_distorted, self.true_grads.len());
            return (distorted, distorted as f64 / f as f64);
        }
        let votes = result.voted.iter().zip(&result.audits);
        let distorted = votes
            .filter(|(slot, audit)| {
                audit.winner_hash != gradient_fingerprint(&self.true_grads[slot.file])
            })
            .count();
        (distorted, distorted as f64 / result.voted.len() as f64)
    }

    /// Cluster churn: realizes round `t`'s member set and reports the
    /// change, if the fault plan schedules one. The realization is a pure
    /// function of (base assignment, member set), so join/leave order and
    /// batching cannot perturb the placement.
    fn realize_churn(
        &mut self,
        t: u64,
        ledger: Option<&mut ReputationLedger>,
    ) -> Option<MembershipOutcome> {
        let k = self.assignment.num_workers();
        let members = self.config.faults.members_at(k, t);
        if members == self.plan_members {
            return None;
        }
        let newly = |now: &[usize], before: &[usize]| -> Vec<usize> {
            now.iter()
                .filter(|w| !before.contains(w))
                .copied()
                .collect()
        };
        let joined = newly(&members, &self.plan_members);
        let left = newly(&self.plan_members, &members);
        let mut quarantined = Vec::new();
        if let Some(ledger) = ledger {
            joined.iter().for_each(|&w| ledger.admit_worker(w));
            left.iter().for_each(|&w| ledger.depart_worker(w, t));
            quarantined = ledger.quarantined_workers();
        }
        sync_membership(&mut self.dynamic, &members, &quarantined);
        self.plan_members = members;
        let q = self.config.num_byzantine;
        Some(membership_report(&self.dynamic, joined, left, q))
    }
}

/// Test accuracy, and the mean training loss over the probe set (the
/// first `eval_samples` training samples; `None` when that is empty).
fn evaluate_model(
    model: &FastMlp,
    test: &Dataset,
    train: &Dataset,
    config: &TrainingConfig,
) -> (f64, Option<f64>) {
    let samples = config.eval_samples;
    let accuracy = evaluate_accuracy(model, test, samples);
    let n = train.len().min(samples);
    let probe = (n > 0).then(|| {
        let (x, labels) = train.gather(&(0..n).collect::<Vec<_>>());
        f64::from(model.gradient_sum(&x, n, &labels).0 / n as f32)
    });
    (accuracy, probe)
}

/// The engine's closed round as the trainer's degradation report.
fn round_outcome(
    result: &RoundResult,
    crashed_workers: usize,
    dropped_replicas: usize,
) -> RoundOutcome {
    RoundOutcome {
        full_quorum: result.voted.len() - result.degraded_votes,
        degraded: result.degraded_votes,
        dropped_replicas,
        crashed_workers,
        abandoned: result
            .abandoned
            .iter()
            .map(|&(slot, error)| AbandonedFile {
                file: slot.file,
                error,
            })
            .collect(),
    }
}
