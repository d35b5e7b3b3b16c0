//! Per-iteration time modelling (paper Section 6.2 "Training Time" and
//! Figure 12).

use byz_assign::Assignment;
use std::time::Duration;

/// A calibrated cost model turning cluster geometry into the
/// computation / communication / aggregation split of Figure 12.
///
/// The paper's qualitative structure, which this model reproduces:
///
/// * **computation** — redundancy schemes process `r×` more samples per
///   worker than the baseline;
/// * **communication** — ByzShield uploads `l` gradients per worker per
///   iteration (one per file) where baseline and DETOX upload one, and the
///   PS broadcasts the model to all `K` workers in every scheme;
/// * **aggregation** — scales with the number of vectors the PS combines
///   and the aggregation rule's complexity.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Seconds for one worker to compute the gradient of a single sample.
    pub seconds_per_sample: f64,
    /// Bytes per model parameter on the wire (f32 = 4).
    pub bytes_per_param: f64,
    /// Model dimension `d`.
    pub model_dim: usize,
    /// Link bandwidth in bytes/second between the PS and one worker.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Seconds for the PS to process one `f32` during aggregation.
    pub seconds_per_aggregated_value: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated to c5.4xlarge-like workers on 10 Gb/s links: the
        // absolute values are illustrative; the figure-of-merit is the
        // relative split.
        CostModel {
            seconds_per_sample: 2.0e-4,
            bytes_per_param: 4.0,
            model_dim: 11_173_962, // ResNet-18 parameter count
            bandwidth: 1.25e9,
            latency: 5.0e-4,
            seconds_per_aggregated_value: 2.0e-9,
        }
    }
}

/// The modelled per-iteration time split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTimeEstimate {
    /// Worker gradient computation (slowest worker; synchronous barrier).
    pub computation: Duration,
    /// Model broadcast + gradient uploads.
    pub communication: Duration,
    /// PS-side voting + robust aggregation.
    pub aggregation: Duration,
}

impl IterationTimeEstimate {
    /// Total modelled iteration time.
    pub fn total(&self) -> Duration {
        self.computation + self.communication + self.aggregation
    }
}

/// Measured wall-clock nanoseconds per round phase, as observed by the
/// parameter server.
///
/// In the barrier round mode the phases run back-to-back, so their sum is
/// close to the round wall time ([`PhaseTimings::overlap_ratio`] ≈ 1). In
/// the streaming mode votes run *inside* the collection window while
/// later frames are still in flight, so the phase sum exceeds the wall
/// time and the ratio rises above 1 — the ratio is the per-round
/// observable for how much work the pipeline hid.
///
/// Phase boundaries:
/// * `compute_ns` — model broadcast until the first gradient frame
///   arrives (worker compute plus straggler delay, as seen by the PS);
/// * `wire_ns` — first frame until the collection window closes
///   (includes any vote work done inline while waiting);
/// * `vote_ns` — CPU time spent in quorum votes and the canonical fold,
///   wherever it ran;
/// * `update_ns` — robust aggregation plus the SGD-momentum step;
/// * `round_ns` — broadcast until the round summary is sealed.
///
/// Wall-clock values: nondeterministic, excluded from any bit-identity
/// comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Broadcast → first gradient frame.
    pub compute_ns: u64,
    /// First gradient frame → collection window closed.
    pub wire_ns: u64,
    /// Total vote + canonical-fold CPU time.
    pub vote_ns: u64,
    /// Aggregation + model update time.
    pub update_ns: u64,
    /// Whole-round wall time.
    pub round_ns: u64,
}

impl PhaseTimings {
    /// Sum of the (possibly overlapping) phase durations.
    pub fn total_phase_ns(&self) -> u64 {
        self.compute_ns + self.wire_ns + self.vote_ns + self.update_ns
    }

    /// Phase-sum over wall time: ≈ 1 when phases run as strict barriers,
    /// > 1 when the pipeline overlaps them. 0 for an unmeasured round.
    pub fn overlap_ratio(&self) -> f64 {
        if self.round_ns == 0 {
            return 0.0;
        }
        self.total_phase_ns() as f64 / self.round_ns as f64
    }
}

impl CostModel {
    /// Models one iteration for a redundancy scheme with the given
    /// assignment, batch size `b`, and an aggregation pass over
    /// `aggregated_vectors` vectors of dimension `d` with cost factor
    /// `aggregation_ops_per_value` (e.g. ~1 for median-family rules,
    /// ~n for Krum-family rules whose cost is quadratic in the operands).
    pub fn estimate(
        &self,
        assignment: &Assignment,
        batch_size: usize,
        aggregated_vectors: usize,
        aggregation_ops_per_value: f64,
    ) -> IterationTimeEstimate {
        let r = assignment.replication() as f64;
        let l = assignment.load() as f64;
        let k = assignment.num_workers() as f64;

        // Each worker processes l files of (b·r/(f·r)) = b/f samples each;
        // with f files total, per-worker samples = l·b/f = b·r/K.
        let samples_per_worker = batch_size as f64 * r / k;
        let computation = samples_per_worker * self.seconds_per_sample;

        let model_bytes = self.model_dim as f64 * self.bytes_per_param;
        // Broadcast down (PS serializes K sends), l gradient uploads per
        // worker contending on the PS ingress link.
        let downlink = k * (self.latency + model_bytes / self.bandwidth);
        let uplink = k * l * (self.latency + model_bytes / self.bandwidth);
        let communication = downlink + uplink;

        // Majority vote touches every replica value once, then the robust
        // rule runs over `aggregated_vectors` vectors.
        let vote_values = k * l * self.model_dim as f64;
        let agg_values =
            aggregated_vectors as f64 * self.model_dim as f64 * aggregation_ops_per_value;
        let aggregation = (vote_values + agg_values) * self.seconds_per_aggregated_value;

        IterationTimeEstimate {
            computation: Duration::from_secs_f64(computation),
            communication: Duration::from_secs_f64(communication),
            aggregation: Duration::from_secs_f64(aggregation),
        }
    }

    /// Models one iteration of a *baseline* (no redundancy) scheme on `K`
    /// workers: one file per worker, one upload each.
    pub fn estimate_baseline(
        &self,
        num_workers: usize,
        batch_size: usize,
        aggregation_ops_per_value: f64,
    ) -> IterationTimeEstimate {
        let k = num_workers as f64;
        let computation = batch_size as f64 / k * self.seconds_per_sample;
        let model_bytes = self.model_dim as f64 * self.bytes_per_param;
        let communication = 2.0 * k * (self.latency + model_bytes / self.bandwidth);
        let aggregation = k
            * self.model_dim as f64
            * aggregation_ops_per_value
            * self.seconds_per_aggregated_value;
        IterationTimeEstimate {
            computation: Duration::from_secs_f64(computation),
            communication: Duration::from_secs_f64(communication),
            aggregation: Duration::from_secs_f64(aggregation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byz_assign::{FrcAssignment, RamanujanAssignment};

    #[test]
    fn byzshield_spends_more_than_baseline() {
        // Figure 12's ordering: baseline median < DETOX-MoM < ByzShield.
        let model = CostModel::default();
        let byzshield = RamanujanAssignment::new(5, 5).unwrap().build();
        let detox = FrcAssignment::new(25, 5).unwrap().build();

        let bs = model.estimate(&byzshield, 750, 25, 1.0);
        let dx = model.estimate(&detox, 750, 5, 1.0);
        let base = model.estimate_baseline(25, 750, 1.0);

        assert!(
            bs.total() > dx.total(),
            "ByzShield should cost more than DETOX"
        );
        assert!(
            dx.total() > base.total(),
            "DETOX should cost more than baseline"
        );
        // Redundant schemes compute r× the samples.
        assert!(bs.computation > base.computation);
        assert!((bs.computation.as_secs_f64() / base.computation.as_secs_f64() - 5.0).abs() < 0.01);
        // ByzShield's l uploads dominate its communication.
        assert!(bs.communication > dx.communication);
    }

    #[test]
    fn totals_add_up() {
        let model = CostModel::default();
        let est = model.estimate_baseline(10, 100, 1.0);
        assert_eq!(
            est.total(),
            est.computation + est.communication + est.aggregation
        );
    }

    #[test]
    fn overlap_ratio_reflects_hidden_work() {
        let barrier = PhaseTimings {
            compute_ns: 100,
            wire_ns: 50,
            vote_ns: 30,
            update_ns: 20,
            round_ns: 200,
        };
        assert!((barrier.overlap_ratio() - 1.0).abs() < 1e-12);
        // Streaming: votes ran inside the wire window, so the phase sum
        // exceeds the wall time.
        let streaming = PhaseTimings {
            round_ns: 170,
            ..barrier
        };
        assert!(streaming.overlap_ratio() > 1.0);
        assert_eq!(PhaseTimings::default().overlap_ratio(), 0.0);
        assert_eq!(barrier.total_phase_ns(), 200);
    }

    #[test]
    fn quadratic_aggregation_costs_more() {
        let model = CostModel::default();
        let a = model.estimate_baseline(25, 750, 1.0);
        let b = model.estimate_baseline(25, 750, 25.0); // Krum-like
        assert!(b.aggregation > a.aggregation);
        assert_eq!(b.computation, a.computation);
    }
}
