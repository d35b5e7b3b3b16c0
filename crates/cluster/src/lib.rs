//! Fault plan + timing model for the synchronous parameter-server round.
//!
//! The paper runs PyTorch + MPICH on EC2; this workspace runs the same
//! protocol in-process or over `byz-wire` (DESIGN.md §2 documents the
//! substitution). This crate holds the two pieces the round engine
//! (`byz_wire::RoundCore`), its session (`byz_wire::Session`) and the
//! session's two callers (`byzshield::Trainer::run` in-process, the PS
//! loop on the wire) share:
//!
//! * [`FaultPlan`] deterministically marks workers crashed, stragglers,
//!   message-droppers, disconnecting/stalling peers, joiners or leavers.
//!   Every decision is a pure function of the plan's seed, so both
//!   drivers degrade under one policy and replay bit-identically.
//!   Byzantine behaviour is *not* modelled here — the training protocol
//!   replaces Byzantine workers' returns after the honest gradients are
//!   known (the omniscient attack model).
//! * [`CostModel`] converts the cluster's geometry (model broadcast, `l`
//!   gradient uploads per worker, PS aggregation passes) into the
//!   per-iteration computation/communication/aggregation split of the
//!   paper's Figure 12; [`PhaseTimings`] is the measured counterpart a
//!   wire PS reports.
//!
//! [`ClusterError`] is the error type of socket-deployment failures.

mod fault;
mod timing;

pub use fault::{ClusterError, FaultPlan};
pub use timing::{CostModel, IterationTimeEstimate, PhaseTimings};
