//! # ByzShield: Byzantine-robust distributed training
//!
//! A from-scratch Rust reproduction of *"ByzShield: An Efficient and
//! Robust System for Distributed Training"* (Konstantinidis &
//! Ramamoorthy, MLSys 2021).
//!
//! ByzShield defends synchronous parameter-server SGD against an
//! **omniscient** adversary controlling up to `q` of the `K` workers. Its
//! defense has three ingredients:
//!
//! 1. **Redundant, expander-structured task assignment** — each batch is
//!    split into `f` files, each replicated on `r` workers according to a
//!    bipartite graph built from mutually orthogonal Latin squares or
//!    Ramanujan bigraphs (`byz-assign`). The graph's spectral expansion
//!    bounds how many file majorities *any* `q` workers can corrupt
//!    (`byz-graph`, `byz-distortion`).
//! 2. **Per-file majority voting** — honest replicas agree exactly, so a
//!    file's gradient is corrupted only if `r′ = (r+1)/2` of its replicas
//!    are Byzantine (`byz-aggregate::majority_vote`).
//! 3. **Robust aggregation of the vote winners** — coordinate-wise median
//!    by default (`byz-aggregate`).
//!
//! This crate ties the substrates together into the paper's Algorithm 1:
//!
//! * [`Trainer`] / [`TrainingConfig`] — the end-to-end protocol with
//!   pluggable assignment, attack, Byzantine selection and aggregation
//!   rule: every scheme votes each file over its replicas first
//!   (ByzShield, DETOX, and a baseline on its `r = 1` placement), then
//!   aggregates the winners;
//! * [`experiments`] — preconfigured drivers that regenerate the paper's
//!   figures (accuracy-vs-iteration curves under ALIE / constant /
//!   reversed-gradient attacks);
//! * re-exports of every substrate crate under one roof.
//!
//! ## Quickstart
//!
//! ```
//! use byzshield::prelude::*;
//!
//! // The paper's K = 15 cluster: MOLS assignment with l = 5, r = 3.
//! let assignment = MolsAssignment::new(5, 3).unwrap().build();
//!
//! // An omniscient adversary controlling q = 3 workers corrupts at most
//! // 3 of the 25 file majorities (Table 3)...
//! let attack = cmax_auto(&assignment, 3);
//! assert_eq!(attack.value, 3);
//!
//! // ...whereas the same adversary against DETOX's FRC grouping corrupts
//! // a whole vote group.
//! let frc = FrcAssignment::new(15, 3).unwrap().build();
//! assert_eq!(frc_epsilon(3, 3, 15), 0.2);
//! ```

pub mod experiments;
mod metrics;
mod protocol;

pub use metrics::{evaluate_accuracy, gradients_differ, GradientMoments};
pub use protocol::{
    AbandonedFile, IterationRecord, MembershipOutcome, ReputationOutcome, RoundOutcome, Trainer,
    TrainingConfig, TrainingError, TrainingHistory,
};

/// One-stop imports for applications and experiments.
pub mod prelude {
    pub use crate::experiments::{
        self, AggregatorKind, AttackKind, ClusterSize, Curve, CurvePoint, ExperimentSpec,
        SchemeSpec, SelectorKind,
    };
    pub use crate::{
        evaluate_accuracy, gradients_differ, AbandonedFile, IterationRecord, MembershipOutcome,
        ReputationOutcome, RoundOutcome, Trainer, TrainingConfig, TrainingError, TrainingHistory,
    };
    pub use byz_aggregate::{
        aggregate_winners, gradient_fingerprint, majority_vote, quorum_vote, quorum_vote_audited,
        Aggregator, Auror, Bulyan, CoordinateMedian, GeometricMedian, Krum, Mean, MedianOfMeans,
        MultiKrum, Provenance, QuorumError, QuorumOutcome, ReplicaVerdict, SignSgdMajority,
        TrimmedMean, VoteAudit,
    };
    pub use byz_assign::{
        reassign_quarantined, Assignment, DynamicAssignment, FrcAssignment, MembershipPatch,
        MolsAssignment, RamanujanAssignment, RandomAssignment, RepairedAssignment, SchemeKind,
    };
    pub use byz_attack::{
        Alie, AttackContext, AttackVector, ByzantineSelector, ConstantAttack, InnerProductAttack,
        RandomNoise, ReversedGradient, Sleeper,
    };
    pub use byz_cluster::{
        ClusterError, CostModel, FaultPlan, IterationTimeEstimate, PhaseTimings,
    };
    pub use byz_data::{BatchSampler, Dataset, SyntheticConfig, SyntheticImages};
    pub use byz_distortion::{
        baseline_epsilon, claim2_exact_epsilon, cmax_auto, cmax_branch_and_bound, cmax_exhaustive,
        cmax_graph_exhaustive, cmax_greedy, count_distorted, count_distorted_graph,
        count_distorted_post_quarantine, count_distorted_surviving, frc_epsilon, CmaxResult,
        SurvivingDistortion,
    };
    pub use byz_draco::{CyclicCode, DracoError, FrcCode};
    pub use byz_nn::{FastMlp, StepDecaySchedule};
    pub use byz_reputation::{
        LedgerError, QuarantineEvent, ReputationConfig, ReputationLedger, WorkerStanding,
    };
    pub use byz_wire::{
        packed_sign_majority, run_tcp_worker, Handshake, HandshakeError, JobResult, JobSpec, Link,
        LinkError, LocalAttack, Message, MessagePassingCluster, PackedSigns, PsServer,
        RejectReason, RoundSummary, ServerConfig, SparsifyConfig, StreamDecoder, TcpLink,
        WireError, WireFormat, WireTrainingRun, WorkerSpec,
    };
}
