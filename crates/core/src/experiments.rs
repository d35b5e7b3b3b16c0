//! Preconfigured experiment drivers that regenerate the paper's deep
//! learning evaluation (Figures 2–11) on the synthetic substrate.
//!
//! Each figure plots top-1 test accuracy vs. iteration for a set of
//! `(scheme, aggregation, attack, q)` combinations on one of two paper
//! clusters:
//!
//! * **K = 25** — ByzShield uses the Ramanujan Case 2 construction
//!   `(m, s) = (5, 5)`, so `f = 25` files with `r = l = 5`;
//! * **K = 15** — ByzShield uses the MOLS construction `(l, r) = (5, 3)`,
//!   so `f = 25` files.
//!
//! DETOX uses the FRC grouping on the same cluster; baselines use no
//! redundancy. Byzantine workers are chosen omnisciently (worst-case ε̂),
//! exactly as in the paper's evaluation ("we chose the q Byzantines such
//! that ε̂ is maximized").

use crate::{Trainer, TrainingConfig, TrainingError};
use byz_aggregate::{
    Aggregator, Bulyan, CoordinateMedian, Mean, MedianOfMeans, MultiKrum, SignSgdMajority,
    TrimmedMean,
};
use byz_assign::{Assignment, FrcAssignment, MolsAssignment, RamanujanAssignment};
use byz_attack::{Alie, AttackVector, ByzantineSelector, ConstantAttack, ReversedGradient};
use byz_data::{SyntheticConfig, SyntheticImages};
use byz_distortion::cmax_auto;
use byz_nn::{FastMlp, StepDecaySchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which paper cluster an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSize {
    /// `K = 15` workers (MOLS `l = 5, r = 3` for ByzShield; FRC `r = 3`
    /// for DETOX).
    K15,
    /// `K = 25` workers (Ramanujan Case 2 `r = l = 5` for ByzShield; FRC
    /// `r = 5` for DETOX).
    K25,
}

impl ClusterSize {
    /// Number of workers.
    pub fn num_workers(self) -> usize {
        match self {
            ClusterSize::K15 => 15,
            ClusterSize::K25 => 25,
        }
    }

    /// Replication factor used by the redundancy schemes on this cluster.
    pub fn replication(self) -> usize {
        match self {
            ClusterSize::K15 => 3,
            ClusterSize::K25 => 5,
        }
    }
}

/// The training scheme (placement + pipeline shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// ByzShield: expander assignment, vote, robust aggregation.
    ByzShield,
    /// DETOX: FRC grouping, vote, hierarchical aggregation.
    Detox,
    /// No redundancy; aggregation applied directly to worker gradients.
    Baseline,
}

/// The second-stage aggregation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Coordinate-wise median (ByzShield's default).
    Median,
    /// Median-of-means (DETOX's default).
    MedianOfMeans,
    /// Multi-Krum with worst-case `c` derived from the scheme and `q`.
    MultiKrum,
    /// Bulyan with worst-case `c` derived from the scheme and `q`.
    Bulyan,
    /// Coordinate-wise sign majority (signSGD).
    SignSgd,
    /// Trimmed mean with worst-case `c` trim.
    TrimmedMean,
    /// Plain mean (non-robust control).
    Mean,
}

/// The attack payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// A Little Is Enough (Baruch et al. 2019).
    Alie,
    /// Constant matrix.
    Constant,
    /// Reversed gradient `−c·g`.
    ReversedGradient,
}

impl AttackKind {
    fn build(self) -> Box<dyn AttackVector> {
        match self {
            AttackKind::Alie => Box::new(Alie::default()),
            AttackKind::Constant => Box::new(ConstantAttack::default()),
            AttackKind::ReversedGradient => Box::new(ReversedGradient::default()),
        }
    }
}

/// A fully specified figure experiment.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Aggregation rule.
    pub aggregator: AggregatorKind,
    /// Cluster geometry.
    pub cluster: ClusterSize,
    /// Attack payload.
    pub attack: AttackKind,
    /// Number of Byzantine workers.
    pub q: usize,
    /// SGD iterations.
    pub iterations: usize,
    /// Evaluate test accuracy every this many iterations.
    pub eval_every: usize,
    /// Learning-rate schedule; `None` picks a sensible default.
    pub lr: Option<StepDecaySchedule>,
    /// Seed controlling data generation, init and batch order.
    pub seed: u64,
    /// How the adversary picks its workers. The paper's evaluation uses
    /// the omniscient worst case; random selection models DETOX's weaker
    /// assumed adversary (the attacker-knowledge ablation).
    pub selector: SelectorKind,
}

/// Byzantine-selection strategy for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Worst-case ε̂-maximizing set (the paper's adversary).
    Omniscient,
    /// Uniformly random set each iteration (DETOX's assumption).
    Random,
}

impl ExperimentSpec {
    /// A spec with the defaults used by the figure harnesses.
    pub fn new(
        scheme: SchemeSpec,
        aggregator: AggregatorKind,
        cluster: ClusterSize,
        attack: AttackKind,
        q: usize,
    ) -> Self {
        ExperimentSpec {
            scheme,
            aggregator,
            cluster,
            attack,
            q,
            iterations: 300,
            eval_every: 10,
            lr: None,
            seed: 0x5EED,
            selector: SelectorKind::Omniscient,
        }
    }

    /// Display label matching the paper's legends, e.g.
    /// `"ByzShield, q = 5"` or `"DETOX-MoM, q = 3"`.
    pub fn label(&self) -> String {
        let scheme = match (self.scheme, self.aggregator) {
            (SchemeSpec::ByzShield, AggregatorKind::Median) => "ByzShield".to_string(),
            (SchemeSpec::ByzShield, a) => format!("ByzShield-{}", short(a)),
            (SchemeSpec::Detox, a) => format!("DETOX-{}", short(a)),
            (SchemeSpec::Baseline, a) => long(a).to_string(),
        };
        format!("{scheme}, q = {}", self.q)
    }
}

fn short(a: AggregatorKind) -> &'static str {
    match a {
        AggregatorKind::Median => "Median",
        AggregatorKind::MedianOfMeans => "MoM",
        AggregatorKind::MultiKrum => "Multi-Krum",
        AggregatorKind::Bulyan => "Bulyan",
        AggregatorKind::SignSgd => "signSGD",
        AggregatorKind::TrimmedMean => "TrimmedMean",
        AggregatorKind::Mean => "Mean",
    }
}

fn long(a: AggregatorKind) -> &'static str {
    match a {
        AggregatorKind::Median => "Median",
        AggregatorKind::MedianOfMeans => "Median-of-Means",
        AggregatorKind::MultiKrum => "Multi-Krum",
        AggregatorKind::Bulyan => "Bulyan",
        AggregatorKind::SignSgd => "signSGD",
        AggregatorKind::TrimmedMean => "Trimmed Mean",
        AggregatorKind::Mean => "Mean",
    }
}

/// One point of an accuracy curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index.
    pub iteration: usize,
    /// Top-1 test accuracy in `[0, 1]`.
    pub accuracy: f64,
}

/// A labelled accuracy curve (one line of a paper figure).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// Accuracy-vs-iteration points.
    pub points: Vec<CurvePoint>,
    /// Mean observed distortion fraction over the run.
    pub mean_epsilon_hat: f64,
    /// `Some(err)` when the defense became inapplicable (the paper's
    /// "cannot be paired" cases) — `points` is then empty.
    pub error: Option<TrainingError>,
}

/// Builds the assignment a scheme uses on a cluster.
///
/// # Panics
///
/// Panics only on internal parameter bugs — all combinations used by the
/// figure harnesses are valid.
pub fn build_assignment(scheme: SchemeSpec, cluster: ClusterSize) -> Assignment {
    match (scheme, cluster) {
        (SchemeSpec::ByzShield, ClusterSize::K25) => RamanujanAssignment::new(5, 5)
            .expect("valid Ramanujan parameters")
            .build(),
        (SchemeSpec::ByzShield, ClusterSize::K15) => MolsAssignment::new(5, 3)
            .expect("valid MOLS parameters")
            .build(),
        (SchemeSpec::Detox, c) => FrcAssignment::new(c.num_workers(), c.replication())
            .expect("valid FRC parameters")
            .build(),
        (SchemeSpec::Baseline, c) => FrcAssignment::new(c.num_workers(), 1)
            .expect("valid baseline parameters")
            .build(),
    }
}

/// Worst-case number of corrupted *aggregation operands* the second-stage
/// rule must tolerate, given the scheme and `q` — this is what Krum-family
/// rules take as their `c` parameter (paper Section 6.1).
pub fn worst_case_corrupted_operands(
    scheme: SchemeSpec,
    assignment: &Assignment,
    q: usize,
) -> usize {
    match scheme {
        SchemeSpec::Baseline => q,
        SchemeSpec::Detox => {
            let r_prime = assignment.replication().div_ceil(2);
            q / r_prime
        }
        SchemeSpec::ByzShield => cmax_auto(assignment, q).value,
    }
}

/// Builds the second-stage aggregation rule for a spec; the vote in
/// front of it is the round's, whatever the scheme (a baseline's `r = 1`
/// placement makes each returned gradient its file's winner).
pub fn build_aggregator(
    scheme: SchemeSpec,
    aggregator: AggregatorKind,
    assignment: &Assignment,
    q: usize,
) -> Box<dyn Aggregator> {
    let c = worst_case_corrupted_operands(scheme, assignment, q);
    let operands = match scheme {
        SchemeSpec::Baseline => assignment.num_workers(),
        _ => assignment.num_files(),
    };
    match aggregator {
        AggregatorKind::Median => Box::new(CoordinateMedian),
        AggregatorKind::MedianOfMeans => Box::new(MedianOfMeans {
            num_groups: (2 * c + 1).min(operands).max(1),
        }),
        AggregatorKind::MultiKrum => Box::new(MultiKrum {
            num_byzantine: c,
            num_selected: operands.saturating_sub(c).max(1),
        }),
        AggregatorKind::Bulyan => Box::new(Bulyan { num_byzantine: c }),
        AggregatorKind::SignSgd => Box::new(SignSgdMajority),
        AggregatorKind::TrimmedMean => Box::new(TrimmedMean { trim: c }),
        AggregatorKind::Mean => Box::new(Mean),
    }
}

/// The shared synthetic task used by every figure experiment (the
/// CIFAR-10 substitute — see DESIGN.md §2).
pub fn standard_dataset(seed: u64) -> (byz_data::Dataset, byz_data::Dataset) {
    SyntheticImages::new(SyntheticConfig {
        num_classes: 10,
        channels: 1,
        hw: 12,
        train_samples: 4_000,
        test_samples: 1_000,
        noise: 0.9,
        max_shift: 2,
        seed,
    })
    .generate()
}

/// Batch size shared by the figure experiments; divisible by every file
/// count the schemes produce (25, 5, 15, 3).
pub const BATCH_SIZE: usize = 300;

/// Default LR schedule per aggregator (the paper tunes per scheme —
/// Appendix A.6; signSGD needs a much smaller rate because its update has
/// unit magnitude per coordinate).
fn default_lr(aggregator: AggregatorKind) -> StepDecaySchedule {
    match aggregator {
        AggregatorKind::SignSgd => StepDecaySchedule::new(0.005, 0.95, 50),
        _ => StepDecaySchedule::new(0.05, 0.96, 30),
    }
}

/// Runs one experiment and returns its accuracy curve. Aggregator
/// inapplicability (e.g. Bulyan with too few operands) is reported inside
/// the curve rather than as a hard error, because the paper's figures
/// treat those as "cannot be paired" annotations.
pub fn run_experiment(spec: &ExperimentSpec) -> Curve {
    let (train, test) = standard_dataset(spec.seed);
    let assignment = build_assignment(spec.scheme, spec.cluster);
    let aggregator = build_aggregator(spec.scheme, spec.aggregator, &assignment, spec.q);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x11);
    let sample_len: usize = train.item_shape().iter().product();
    let mut model = FastMlp::new(&[sample_len, 64, 10], &mut rng);

    let config = TrainingConfig {
        batch_size: BATCH_SIZE,
        iterations: spec.iterations,
        lr_schedule: spec.lr.unwrap_or_else(|| default_lr(spec.aggregator)),
        momentum: 0.9,
        num_byzantine: spec.q,
        eval_every: spec.eval_every,
        eval_samples: 500,
        seed: spec.seed ^ 0x22,
        ..TrainingConfig::default()
    };

    let selector = match spec.selector {
        SelectorKind::Omniscient => ByzantineSelector::Omniscient,
        SelectorKind::Random => ByzantineSelector::Random {
            seed: spec.seed ^ 0x33,
        },
    };
    let mut trainer = Trainer::new(
        &mut model,
        &train,
        &test,
        assignment,
        selector,
        spec.attack.build(),
        aggregator,
        config,
    );

    match trainer.run() {
        Ok(history) => Curve {
            label: spec.label(),
            points: history
                .accuracy_curve()
                .into_iter()
                .map(|(iteration, accuracy)| CurvePoint {
                    iteration,
                    accuracy,
                })
                .collect(),
            mean_epsilon_hat: history.mean_epsilon_hat(),
            error: None,
        },
        Err(err) => Curve {
            label: spec.label(),
            points: Vec::new(),
            mean_epsilon_hat: f64::NAN,
            error: Some(err),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignments_have_paper_parameters() {
        let a = build_assignment(SchemeSpec::ByzShield, ClusterSize::K25);
        assert_eq!(
            (a.num_workers(), a.num_files(), a.load(), a.replication()),
            (25, 25, 5, 5)
        );
        let a = build_assignment(SchemeSpec::ByzShield, ClusterSize::K15);
        assert_eq!(
            (a.num_workers(), a.num_files(), a.load(), a.replication()),
            (15, 25, 5, 3)
        );
        let a = build_assignment(SchemeSpec::Detox, ClusterSize::K25);
        assert_eq!((a.num_workers(), a.num_files()), (25, 5));
        let a = build_assignment(SchemeSpec::Baseline, ClusterSize::K15);
        assert_eq!((a.num_workers(), a.num_files()), (15, 15));
    }

    #[test]
    fn corrupted_operand_counts_match_paper() {
        // ByzShield K=25, q=3 → c_max = 1 (Table 4); DETOX → ⌊3/3⌋ = 1;
        // baseline → 3.
        let bs = build_assignment(SchemeSpec::ByzShield, ClusterSize::K25);
        assert_eq!(
            worst_case_corrupted_operands(SchemeSpec::ByzShield, &bs, 3),
            1
        );
        let dx = build_assignment(SchemeSpec::Detox, ClusterSize::K25);
        assert_eq!(worst_case_corrupted_operands(SchemeSpec::Detox, &dx, 3), 1);
        assert_eq!(worst_case_corrupted_operands(SchemeSpec::Detox, &dx, 9), 3);
        let base = build_assignment(SchemeSpec::Baseline, ClusterSize::K25);
        assert_eq!(
            worst_case_corrupted_operands(SchemeSpec::Baseline, &base, 3),
            3
        );
    }

    #[test]
    fn labels_match_paper_legends() {
        let s = ExperimentSpec::new(
            SchemeSpec::ByzShield,
            AggregatorKind::Median,
            ClusterSize::K25,
            AttackKind::Alie,
            5,
        );
        assert_eq!(s.label(), "ByzShield, q = 5");
        let s = ExperimentSpec::new(
            SchemeSpec::Detox,
            AggregatorKind::MedianOfMeans,
            ClusterSize::K25,
            AttackKind::Alie,
            3,
        );
        assert_eq!(s.label(), "DETOX-MoM, q = 3");
    }

    #[test]
    fn bulyan_on_detox_is_inapplicable() {
        // Paper Section 6.2: "Bulyan cannot be paired with DETOX for q ≥ 1
        // for our setup since f ≥ 4c + 3 cannot be satisfied" (DETOX has
        // only K/r = 5 vote outputs).
        let mut spec = ExperimentSpec::new(
            SchemeSpec::Detox,
            AggregatorKind::Bulyan,
            ClusterSize::K25,
            AttackKind::Alie,
            3,
        );
        spec.iterations = 1;
        let curve = run_experiment(&spec);
        assert!(matches!(
            curve.error,
            Some(TrainingError::DefenseInapplicable { .. })
        ));
        assert!(curve.points.is_empty());
    }
}
