//! One training session: paper Algorithm 1's loop, written once.
//!
//! The PS and the trainer run the same round: sample a batch and split
//! it into files, hand it to a [`Delivery`], open the [`RoundCore`] on
//! the delivery's holder sets and let the delivery feed it, close,
//! aggregate the winners where the round holds them, take the
//! SGD-with-momentum step, release the winners and fold the audits into
//! the reputation ledger. Only delivery differs: the PS broadcasts and
//! ingests frames under its deadlines (over channels, which `PsServer`
//! adapts sockets into); the in-process trainer (`byzshield::Trainer`)
//! offers true and forged replicas in memory. Each caller passes its
//! aggregator and the round's learning rate.

use crate::round::{RoundCore, RoundResult};
use crate::server::ServerConfig;
use crate::Assignment;
use byz_aggregate::{AggregationError, Aggregator};
use byz_cluster::PhaseTimings;
use byz_data::{split_batch_into_files, BatchSampler};
use byz_reputation::{QuarantineEvent, ReputationLedger};
use std::time::Instant;

/// How a round's replicas reach a [`Session`]'s engine.
pub trait Delivery {
    /// Hands round `t`'s model and batch split (sample indices per file)
    /// to the workers, and names the round's live holders of every file:
    /// the delivery's membership decision. `ledger` is the session's,
    /// when reputation is on.
    fn send(
        &mut self,
        t: u64,
        params: &[f32],
        files: &[Vec<usize>],
        ledger: Option<&mut ReputationLedger>,
    ) -> Vec<Vec<usize>>;

    /// Feeds the open round whatever replicas arrive; the round opened
    /// at `opened`. Returns when the first replica arrived, if the
    /// delivery observes arrivals.
    fn collect(&mut self, t: u64, core: &mut RoundCore, opened: Instant) -> Option<Instant>;
}

/// What one round of a [`Session`] decided.
#[derive(Debug)]
pub struct SessionRound {
    /// The closed round's votes. Its `winners` are empty: the session
    /// released them after the step, and with them the round's frames and
    /// assembly buffers.
    pub result: RoundResult,
    /// Standing changes the ledger fold fired (empty without reputation).
    pub events: Vec<QuarantineEvent>,
    /// From opening the engine to the ledger fold.
    pub timings: PhaseTimings,
}

/// What a training run carries across rounds — parameters, momentum,
/// batch sampler, round engine, ledger — and the one round body.
pub struct Session {
    sampler: BatchSampler,
    /// The next round's batch split.
    next_files: Vec<Vec<usize>>,
    core: RoundCore,
    params: Vec<f32>,
    velocity: Vec<f32>,
    /// `f / b`: file gradients are sums over `b / f` samples, so the
    /// step is a per-sample mean-gradient step (Algorithm 1, line 17).
    scale: f32,
    momentum: f32,
    ledger: Option<ReputationLedger>,
    t: u64,
}

impl Session {
    /// A session over `assignment` and a `samples`-sample training set,
    /// starting from `params`. Reads `config`'s batch size, seed,
    /// momentum and reputation, and what [`RoundCore::new`] reads.
    ///
    /// # Panics
    ///
    /// Panics if the batch size is zero, exceeds `samples` or is not
    /// divisible by the file count.
    pub fn new(
        assignment: &Assignment,
        samples: usize,
        params: Vec<f32>,
        config: &ServerConfig,
    ) -> Self {
        let files = assignment.num_files();
        let mut sampler = BatchSampler::new(samples, config.batch_size, config.seed);
        let k = assignment.num_workers();
        Session {
            next_files: draw(&mut sampler, files),
            sampler,
            core: RoundCore::new(assignment, params.len(), config),
            velocity: vec![0.0; params.len()],
            params,
            scale: files as f32 / config.batch_size as f32,
            momentum: config.momentum,
            ledger: config.reputation.map(|cfg| ReputationLedger::new(k, cfg)),
            t: 0,
        }
    }

    /// Runs the next round over `delivery`, stepping at rate `lr` along
    /// `aggregator`'s combination of the winners; a round without
    /// winners leaves the parameters alone.
    ///
    /// # Errors
    ///
    /// The aggregator's, before the step and the ledger fold.
    pub fn round(
        &mut self,
        delivery: &mut dyn Delivery,
        aggregator: &dyn Aggregator,
        lr: f32,
    ) -> Result<SessionRound, AggregationError> {
        self.t += 1;
        let t = self.t;
        let holders = delivery.send(t, &self.params, &self.next_files, self.ledger.as_mut());
        // Round t+1's split, drawn under worker compute.
        self.next_files = draw(&mut self.sampler, self.next_files.len());

        let opened = Instant::now();
        self.core.begin(t, &holders);
        let first = delivery.collect(t, &mut self.core, opened);
        let collected = Instant::now();
        let mut result = self.core.close();

        let update_start = Instant::now();
        if !result.winners.is_empty() {
            let winners: Vec<&[f32]> = result.winners.iter().map(|w| &**w).collect();
            let aggregate = aggregator.aggregate_slices(&winners)?;
            // Chunk-parallel on the kernel pool; elementwise, so
            // bit-identical to the scalar loop at any thread count.
            byz_kernel::sgd_momentum_step(
                &mut self.params,
                &mut self.velocity,
                &aggregate,
                self.scale,
                lr,
                self.momentum,
            );
        }
        result.winners.clear();
        let update_ns = update_start.elapsed().as_nanos() as u64;
        let events = match self.ledger.as_mut() {
            Some(ledger) => ledger.observe_round(t, &result.audits),
            None => Vec::new(),
        };

        // The first arrival ends (observed) worker compute, `collected`
        // the wire window; `vote_ns` is vote CPU wherever it ran.
        let ns = |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos() as u64;
        let timings = PhaseTimings {
            compute_ns: first.map_or(0, |first| ns(opened, first)),
            wire_ns: first.map_or(0, |first| ns(first, collected)),
            vote_ns: self.core.vote_ns(),
            update_ns,
            round_ns: ns(opened, Instant::now()),
        };
        Ok(SessionRound {
            result,
            events,
            timings,
        })
    }

    /// The current parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The reputation ledger, when reputation is on.
    pub fn ledger(&self) -> Option<&ReputationLedger> {
        self.ledger.as_ref()
    }

    /// The trained parameters and the final ledger.
    pub fn into_parts(self) -> (Vec<f32>, Option<ReputationLedger>) {
        (self.params, self.ledger)
    }
}

/// Draws the next batch and splits it into `files` files.
fn draw(sampler: &mut BatchSampler, files: usize) -> Vec<Vec<usize>> {
    split_batch_into_files(&sampler.next_batch(), files)
}
