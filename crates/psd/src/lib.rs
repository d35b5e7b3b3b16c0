//! Shared deployment-spec plumbing for the `byzshield-ps` and
//! `byzshield-worker` binaries.
//!
//! A deployment is described by a flat list of `key=value` tokens — the
//! same tokens are passed verbatim to the PS and to every worker, which
//! is what keeps the processes consistent: assignment, dataset, initial
//! parameters and protocol configuration are all **derived
//! deterministically from the spec**, never shipped over the wire. A
//! worker that was launched with a different spec than its PS will
//! train a different model and lose its votes — visible immediately —
//! rather than silently half-work.
//!
//! ```text
//! byzshield-ps    listen=127.0.0.1:7001  job id=1 l=5 r=3 iters=10 …  job id=2 …
//! byzshield-worker connect=127.0.0.1:7001 worker=0  id=1 l=5 r=3 iters=10 …
//! ```
//!
//! One [`DeploySpec`] builds its dataset once: [`DeploySpec::job_spec`]
//! and every [`DeploySpec::worker_spec`] share the same `Arc<Dataset>`,
//! so a process hosting the PS and all its workers holds one copy.

use byz_assign::{Assignment, MolsAssignment};
use byz_data::{Dataset, SyntheticConfig, SyntheticImages};
use byz_nn::FastMlp;
use byz_reputation::ReputationConfig;
use byz_wire::{
    ChunkConfig, JobSpec, LocalAttack, RoundMode, ServerConfig, WireFormat, WorkerSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A malformed or inconsistent deployment spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid deployment spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// The generator inputs a dataset depends on: `classes`, `hw`,
/// `samples`, `data_seed`.
type DataKey = (usize, usize, usize, u64);

/// The dataset a spec last built, with the inputs it was built from. It
/// is a cache, not part of the spec: it compares equal to any other,
/// and a clone starts from a copy of the cached pair.
#[derive(Default)]
struct DatasetMemo(Mutex<Option<(DataKey, Arc<Dataset>)>>);

impl DatasetMemo {
    /// The cached dataset when it was built from `key`, else `build`'s
    /// (which then replaces the cache).
    fn get_or_build(&self, key: DataKey, build: impl FnOnce() -> Dataset) -> Arc<Dataset> {
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match memo.as_ref() {
            Some((built_from, data)) if *built_from == key => Arc::clone(data),
            _ => Arc::clone(&memo.insert((key, Arc::new(build()))).1),
        }
    }
}

impl Clone for DatasetMemo {
    fn clone(&self) -> Self {
        let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        DatasetMemo(Mutex::new(memo.clone()))
    }
}

impl PartialEq for DatasetMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Everything one job's processes must agree on, parsed from `key=value`
/// tokens. Every field has a default, so `byzshield-ps listen=… job` is
/// already a runnable (if boring) deployment.
#[derive(Clone, PartialEq)]
pub struct DeploySpec {
    /// Job identity carried in the socket handshake (`id=`).
    pub job_id: u64,
    /// MOLS replication factor pair (`l=`, `r=`): `K = l·r` workers,
    /// `l²` files.
    pub l: usize,
    pub r: usize,
    /// Protocol rounds (`iters=`).
    pub iterations: usize,
    /// Batch size (`batch=`); must be divisible by `l²` and at most
    /// `samples`.
    pub batch_size: usize,
    /// Learning rate (`lr=`).
    pub learning_rate: f32,
    /// Batch-sampling seed (`seed=`).
    pub seed: u64,
    /// Initial-parameter seed (`params-seed=`).
    pub params_seed: u64,
    /// Synthetic-dataset seed (`data-seed=`).
    pub data_seed: u64,
    /// Dataset shape (`classes=`, `hw=`, `samples=`).
    pub classes: usize,
    pub hw: usize,
    pub samples: usize,
    /// MLP layer widths (`dims=36x16x4`). First must equal `hw²`, last
    /// must equal `classes`.
    pub dims: Vec<usize>,
    /// Byzantine worker ids (`byzantine=0,5`).
    pub byzantine: Vec<usize>,
    /// What Byzantine workers send (`attack=constant:-100` or
    /// `attack=reversed:8`).
    pub attack: LocalAttack,
    /// Per-frame drop probability (`drops=0.05`) under fault seed
    /// (`fault-seed=`).
    pub drop_rate: f64,
    pub fault_seed: u64,
    /// Modelled stragglers (`straggle=3:4.0`): worker id → latency
    /// multiplier ≥ 1. Under bounded staleness the plan's straggle
    /// factors decide which workers arrive late and by how many rounds.
    pub stragglers: Vec<(usize, f64)>,
    /// Vote-audit reputation at the PS (`reputation=true`).
    pub reputation: bool,
    /// Wire format (`wire=batched` or `wire=chunked:256`).
    pub wire: WireFormat,
    /// Round scheduling (`mode=barrier`, `mode=streaming` or
    /// `mode=bounded:N` for bounded staleness with `max_staleness = N`).
    pub mode: RoundMode,
    /// PS receive window in milliseconds (`recv-ms=`, positive).
    pub receive_timeout_ms: u64,
    /// Hard PS round deadline in milliseconds (`deadline-ms=`, positive).
    pub round_deadline_ms: u64,
    /// What [`DeploySpec::dataset`] built last.
    dataset_memo: DatasetMemo,
}

impl fmt::Debug for DeploySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every field but the cache, so a new field cannot be missed.
        let DeploySpec {
            job_id,
            l,
            r,
            iterations,
            batch_size,
            learning_rate,
            seed,
            params_seed,
            data_seed,
            classes,
            hw,
            samples,
            dims,
            byzantine,
            attack,
            drop_rate,
            fault_seed,
            stragglers,
            reputation,
            wire,
            mode,
            receive_timeout_ms,
            round_deadline_ms,
            dataset_memo: _,
        } = self;
        f.debug_struct("DeploySpec")
            .field("job_id", job_id)
            .field("l", l)
            .field("r", r)
            .field("iterations", iterations)
            .field("batch_size", batch_size)
            .field("learning_rate", learning_rate)
            .field("seed", seed)
            .field("params_seed", params_seed)
            .field("data_seed", data_seed)
            .field("classes", classes)
            .field("hw", hw)
            .field("samples", samples)
            .field("dims", dims)
            .field("byzantine", byzantine)
            .field("attack", attack)
            .field("drop_rate", drop_rate)
            .field("fault_seed", fault_seed)
            .field("stragglers", stragglers)
            .field("reputation", reputation)
            .field("wire", wire)
            .field("mode", mode)
            .field("receive_timeout_ms", receive_timeout_ms)
            .field("round_deadline_ms", round_deadline_ms)
            .finish()
    }
}

impl Default for DeploySpec {
    fn default() -> Self {
        DeploySpec {
            job_id: 1,
            l: 5,
            r: 3,
            iterations: 10,
            batch_size: 100,
            learning_rate: 0.05,
            seed: 0,
            params_seed: 2,
            data_seed: 5,
            classes: 4,
            hw: 6,
            samples: 400,
            dims: vec![36, 16, 4],
            byzantine: Vec::new(),
            attack: LocalAttack::Constant { value: -100.0 },
            drop_rate: 0.0,
            fault_seed: 7,
            stragglers: Vec::new(),
            reputation: false,
            wire: WireFormat::Batched,
            mode: RoundMode::Barrier,
            receive_timeout_ms: 500,
            round_deadline_ms: 5000,
            dataset_memo: DatasetMemo::default(),
        }
    }
}

impl DeploySpec {
    /// Parses one job's `key=value` tokens. Unknown keys are errors —
    /// a typo'd knob silently falling back to its default is exactly the
    /// cross-process divergence this type exists to prevent.
    pub fn parse(tokens: &[String]) -> Result<DeploySpec, SpecError> {
        let mut spec = DeploySpec::default();
        let mut dims_given = false;
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return err(format!("`{token}` is not a key=value token"));
            };
            match key {
                "id" => spec.job_id = parse_num(key, value)?,
                "l" => spec.l = parse_num(key, value)?,
                "r" => spec.r = parse_num(key, value)?,
                "iters" => spec.iterations = parse_num(key, value)?,
                "batch" => spec.batch_size = parse_num(key, value)?,
                "lr" => spec.learning_rate = parse_num(key, value)?,
                "seed" => spec.seed = parse_num(key, value)?,
                "params-seed" => spec.params_seed = parse_num(key, value)?,
                "data-seed" => spec.data_seed = parse_num(key, value)?,
                "classes" => spec.classes = parse_num(key, value)?,
                "hw" => spec.hw = parse_num(key, value)?,
                "samples" => spec.samples = parse_num(key, value)?,
                "dims" => {
                    spec.dims = parse_dims(value)?;
                    dims_given = true;
                }
                "byzantine" => spec.byzantine = parse_list(value)?,
                "attack" => spec.attack = parse_attack(value)?,
                "drops" => spec.drop_rate = parse_num(key, value)?,
                "fault-seed" => spec.fault_seed = parse_num(key, value)?,
                "straggle" => spec.stragglers = parse_pairs(key, value)?,
                "reputation" => spec.reputation = parse_bool(value)?,
                "wire" => spec.wire = parse_wire(value)?,
                "mode" => spec.mode = parse_mode(value)?,
                "recv-ms" => spec.receive_timeout_ms = parse_num(key, value)?,
                "deadline-ms" => spec.round_deadline_ms = parse_num(key, value)?,
                _ => return err(format!("unknown key `{key}`")),
            }
        }
        if !dims_given {
            spec.dims = vec![spec.hw * spec.hw, 16, spec.classes];
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        let k = self.l * self.r;
        let f = self.l * self.l;
        if self.l == 0 || self.r == 0 {
            return err("l and r must be positive");
        }
        if self.iterations == 0 {
            return err("iters must be positive");
        }
        if self.batch_size == 0 || !self.batch_size.is_multiple_of(f) {
            return err(format!(
                "batch={} must be a positive multiple of l²={f}",
                self.batch_size
            ));
        }
        if self.batch_size > self.samples {
            return err(format!(
                "batch={} exceeds the dataset's samples={}",
                self.batch_size, self.samples
            ));
        }
        match self.dims.as_slice() {
            [first, .., last] => {
                if *first != self.hw * self.hw {
                    return err(format!(
                        "dims[0]={first} must equal hw²={}",
                        self.hw * self.hw
                    ));
                }
                if *last != self.classes {
                    return err(format!(
                        "dims[-1]={last} must equal classes={}",
                        self.classes
                    ));
                }
            }
            _ => return err("dims needs at least two layers"),
        }
        if self.classes == 0 {
            return err("classes must be positive");
        }
        // `>` rejects NaN along with zero and negative rates.
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return err(format!(
                "lr={} must be finite and positive",
                self.learning_rate
            ));
        }
        // A zero window abandons every file while uploads pile up unread.
        if self.receive_timeout_ms == 0 || self.round_deadline_ms == 0 {
            return err("recv-ms and deadline-ms must be positive");
        }
        if let WireFormat::Chunked(cfg) = self.wire {
            if cfg.chunk_len == 0 {
                return err("wire=chunked:0 needs at least one coordinate per chunk");
            }
        }
        if let Some(&w) = self.byzantine.iter().find(|&&w| w >= k) {
            return err(format!("byzantine worker {w} outside cluster of K={k}"));
        }
        if !(0.0..1.0).contains(&self.drop_rate) {
            return err(format!("drops={} must be in [0, 1)", self.drop_rate));
        }
        let unit = self.server_config().straggler_unit;
        for &(w, m) in &self.stragglers {
            if w >= k {
                return err(format!("straggle worker {w} outside cluster of K={k}"));
            }
            // `contains` rejects NaN along with sub-unit multipliers.
            if !(1.0..).contains(&m) {
                return err(format!("straggle={w}:{m} needs a multiplier ≥ 1"));
            }
            // A worker sleeps `straggler_unit × (m − 1)` per broadcast:
            // an infinite or huge multiplier is no `Duration`.
            if Duration::try_from_secs_f64(unit.as_secs_f64() * (m - 1.0)).is_err() {
                return err(format!("straggle={w}:{m} needs a finite delay"));
            }
        }
        Ok(())
    }

    /// Number of workers the spec's assignment needs.
    pub fn num_workers(&self) -> usize {
        self.l * self.r
    }

    /// The job's worker–file placement, derived from `(l, r)`.
    ///
    /// # Errors
    ///
    /// When `(l, r)` admits no MOLS construction.
    pub fn assignment(&self) -> Result<Assignment, SpecError> {
        match MolsAssignment::new(self.l as u64, self.r) {
            Ok(mols) => Ok(mols.build()),
            Err(e) => err(format!(
                "no MOLS assignment for l={}, r={}: {e}",
                self.l, self.r
            )),
        }
    }

    /// The job's dataset, generated from the spec's data seed — every
    /// process derives an identical replica. It is built once per spec:
    /// later calls, [`job_spec`](Self::job_spec) and every
    /// [`worker_spec`](Self::worker_spec) share it until `classes`, `hw`,
    /// `samples` or `data_seed` changes.
    pub fn dataset(&self) -> Arc<Dataset> {
        let key = (self.classes, self.hw, self.samples, self.data_seed);
        self.dataset_memo.get_or_build(key, || {
            SyntheticImages::new(SyntheticConfig {
                num_classes: self.classes,
                channels: 1,
                hw: self.hw,
                train_samples: self.samples,
                test_samples: 1,
                noise: 0.4,
                max_shift: 1,
                seed: self.data_seed,
            })
            .generate()
            .0
        })
    }

    /// The starting flat parameters, derived from the params seed.
    pub fn initial_params(&self) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(self.params_seed);
        FastMlp::new(&self.dims, &mut rng).params_flat()
    }

    /// The protocol configuration both sides run.
    pub fn server_config(&self) -> ServerConfig {
        let mut faults = byz_cluster::FaultPlan::new(self.fault_seed);
        if self.drop_rate > 0.0 {
            faults = faults.drop_rate(self.drop_rate);
        }
        for &(w, multiplier) in &self.stragglers {
            faults = faults.straggle(w, multiplier);
        }
        ServerConfig {
            batch_size: self.batch_size,
            iterations: self.iterations,
            learning_rate: self.learning_rate,
            byzantine: self.byzantine.clone(),
            attack: self.attack,
            faults,
            wire: self.wire,
            mode: self.mode,
            receive_timeout: Duration::from_millis(self.receive_timeout_ms),
            round_deadline: Duration::from_millis(self.round_deadline_ms),
            seed: self.seed,
            reputation: self.reputation.then(ReputationConfig::default),
            ..ServerConfig::default()
        }
    }

    /// The PS-side job description.
    ///
    /// # Errors
    ///
    /// When the spec admits no assignment.
    pub fn job_spec(&self) -> Result<JobSpec, SpecError> {
        Ok(JobSpec {
            job_id: self.job_id,
            assignment: self.assignment()?,
            dataset: self.dataset(),
            model_dims: self.dims.clone(),
            initial_params: self.initial_params(),
            config: self.server_config(),
        })
    }

    /// The worker-side description for slot `worker`.
    ///
    /// # Errors
    ///
    /// When the spec admits no assignment or `worker` is out of range.
    pub fn worker_spec(&self, worker: usize) -> Result<WorkerSpec, SpecError> {
        if worker >= self.num_workers() {
            return err(format!(
                "worker={worker} outside cluster of K={}",
                self.num_workers()
            ));
        }
        Ok(WorkerSpec::new(
            self.job_id,
            worker,
            self.assignment()?,
            self.dataset(),
            self.dims.clone(),
            self.server_config(),
        ))
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError(format!("{key}={value} is not a valid number")))
}

fn parse_bool(value: &str) -> Result<bool, SpecError> {
    match value {
        "true" | "on" | "1" => Ok(true),
        "false" | "off" | "0" => Ok(false),
        _ => err(format!("`{value}` is not a boolean")),
    }
}

fn parse_dims(value: &str) -> Result<Vec<usize>, SpecError> {
    value
        .split('x')
        .map(|part| {
            part.parse()
                .map_err(|_| SpecError(format!("dims segment `{part}` is not a number")))
        })
        .collect()
}

/// Parses `w:v,w:v,…` pairs — worker id to a per-worker value (the
/// latency multiplier of `straggle=`).
fn parse_pairs<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<(usize, T)>, SpecError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|pair| {
            let Some((worker, v)) = pair.split_once(':') else {
                return err(format!("{key} entry `{pair}` is not worker:value"));
            };
            Ok((parse_num(key, worker)?, parse_num(key, v)?))
        })
        .collect()
}

fn parse_list(value: &str) -> Result<Vec<usize>, SpecError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|part| {
            part.parse()
                .map_err(|_| SpecError(format!("byzantine id `{part}` is not a number")))
        })
        .collect()
}

fn parse_attack(value: &str) -> Result<LocalAttack, SpecError> {
    match value.split_once(':') {
        Some(("constant", v)) => Ok(LocalAttack::Constant {
            value: parse_num("attack", v)?,
        }),
        Some(("reversed", m)) => Ok(LocalAttack::ReversedGradient {
            magnitude: parse_num("attack", m)?,
        }),
        _ => err(format!(
            "attack=`{value}` (expected constant:<v> or reversed:<m>)"
        )),
    }
}

fn parse_wire(value: &str) -> Result<WireFormat, SpecError> {
    match value {
        "batched" => Ok(WireFormat::Batched),
        other => match other.split_once(':') {
            Some(("chunked", n)) => Ok(WireFormat::Chunked(ChunkConfig::dense(parse_num(
                "wire", n,
            )?))),
            _ => err(format!(
                "wire=`{value}` (expected batched or chunked:<coords>)"
            )),
        },
    }
}

fn parse_mode(value: &str) -> Result<RoundMode, SpecError> {
    match value {
        "barrier" => Ok(RoundMode::Barrier),
        "streaming" => Ok(RoundMode::Streaming),
        other => match other.split_once(':') {
            Some(("bounded", s)) => Ok(RoundMode::BoundedStaleness {
                max_staleness: parse_num("mode", s)?,
            }),
            _ => err(format!(
                "mode=`{value}` (expected barrier, streaming or bounded:<s>)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_round_trip() {
        let spec = DeploySpec::parse(&[]).unwrap();
        assert_eq!(spec, DeploySpec::default());
        assert_eq!(spec.num_workers(), 15);
        assert_eq!(spec.assignment().unwrap().num_files(), 25);
    }

    #[test]
    fn full_spec_parses() {
        let spec = DeploySpec::parse(&toks(
            "id=9 l=4 r=3 iters=6 batch=96 lr=0.1 seed=8 byzantine=1,7 \
             attack=reversed:4 wire=chunked:128 mode=streaming reputation=on \
             recv-ms=250 deadline-ms=2000 drops=0.05 dims=36x8x4",
        ))
        .unwrap();
        assert_eq!(spec.job_id, 9);
        assert_eq!((spec.l, spec.r), (4, 3));
        assert_eq!(spec.byzantine, vec![1, 7]);
        assert_eq!(
            spec.attack,
            LocalAttack::ReversedGradient { magnitude: 4.0 }
        );
        assert_eq!(spec.mode, RoundMode::Streaming);
        assert!(matches!(spec.wire, WireFormat::Chunked(_)));
        assert!(spec.reputation);
        assert_eq!(spec.server_config().receive_timeout.as_millis(), 250);
    }

    #[test]
    fn bounded_mode_and_stragglers_parse() {
        let spec = DeploySpec::parse(&toks("mode=bounded:2 straggle=3:4.0,9:2.5")).unwrap();
        assert_eq!(spec.mode, RoundMode::BoundedStaleness { max_staleness: 2 });
        let faults = spec.server_config().faults;
        assert_eq!(faults.straggle_factor(3), 4.0);
        assert_eq!(faults.straggle_factor(9), 2.5);
        assert_eq!(faults.straggle_factor(0), 1.0);
    }

    #[test]
    fn dims_default_tracks_shape() {
        let spec = DeploySpec::parse(&toks("hw=8 classes=5 batch=100 l=5 r=3")).unwrap();
        assert_eq!(spec.dims, vec![64, 16, 5]);
    }

    #[test]
    fn inconsistent_specs_are_rejected() {
        for bad in [
            "batch=90",            // not a multiple of l² = 25
            "dims=10x16x4",        // input ≠ hw²
            "dims=36x16x7",        // output ≠ classes
            "classes=0",           // no labels to draw
            "byzantine=99",        // outside K = 15
            "drops=1.5",           // not a probability
            "mystery=1",           // unknown key
            "attack=downgrade:2",  // unknown attack
            "wire=pigeon",         // unknown wire format
            "iters",               // not key=value
            "mode=bounded",        // bounded needs :<s>
            "joins=3:4",           // retired: no socket process acts on churn
            "leaves=2:4",          // retired, likewise
            "straggle=3-2",        // not worker:multiplier
            "straggle=3:0.5",      // multiplier below 1
            "straggle=15:4.0",     // straggler outside K = 15
            "straggle=3:inf",      // an endless delay
            "straggle=3:1e30",     // a delay no Duration holds
            "samples=10 batch=25", // batch larger than the dataset
            "wire=chunked:0",      // no coordinates per chunk
            "lr=NaN",              // not a rate
            "lr=inf",              // not finite
            "lr=-0.05",            // not positive
        ] {
            assert!(DeploySpec::parse(&toks(bad)).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn zero_receive_windows_are_rejected() {
        for bad in ["recv-ms=0", "deadline-ms=0"] {
            let e = DeploySpec::parse(&toks(bad)).unwrap_err();
            assert!(e.0.contains("must be positive"), "`{bad}`: {e}");
        }
        assert!(DeploySpec::parse(&toks("recv-ms=1 deadline-ms=1")).is_ok());
    }

    /// Every sample's value bits and label.
    fn contents(data: &Dataset) -> (Vec<u32>, Vec<usize>) {
        let (x, labels) = data.gather(&(0..data.len()).collect::<Vec<_>>());
        (x.iter().map(|v| v.to_bits()).collect(), labels)
    }

    #[test]
    fn one_spec_builds_one_dataset() {
        let spec = DeploySpec::parse(&toks("data-seed=42 samples=300 hw=5 classes=3")).unwrap();
        let shared = spec.job_spec().unwrap().dataset;
        for w in 0..spec.num_workers() {
            let worker = spec.worker_spec(w).unwrap().dataset;
            assert!(Arc::ptr_eq(&shared, &worker), "worker {w} got its own copy");
        }
        let (fresh, _) = SyntheticImages::new(SyntheticConfig {
            num_classes: 3,
            channels: 1,
            hw: 5,
            train_samples: 300,
            test_samples: 1,
            noise: 0.4,
            max_shift: 1,
            seed: 42,
        })
        .generate();
        assert_eq!(contents(&shared), contents(&fresh));
        // The cache is no part of the spec.
        let copy = spec.clone();
        assert_eq!(
            copy,
            DeploySpec::parse(&toks("data-seed=42 samples=300 hw=5 classes=3")).unwrap()
        );
        assert!(Arc::ptr_eq(&copy.dataset(), &shared));
        assert!(!format!("{spec:?}").contains("memo"));
    }

    #[test]
    fn changed_generator_inputs_rebuild_the_dataset() {
        let mut spec = DeploySpec::default();
        let first = spec.dataset();
        spec.data_seed += 1;
        let reseeded = spec.dataset();
        assert!(!Arc::ptr_eq(&first, &reseeded));
        assert_ne!(contents(&first), contents(&reseeded));
        assert!(Arc::ptr_eq(
            &reseeded,
            &spec.worker_spec(0).unwrap().dataset
        ));
        spec.samples = 250;
        let resized = spec.job_spec().unwrap().dataset;
        assert_eq!(resized.len(), 250);
        assert_eq!(reseeded.len(), 400);
        let fresh = DeploySpec {
            data_seed: spec.data_seed,
            samples: 250,
            ..DeploySpec::default()
        };
        assert_eq!(contents(&resized), contents(&fresh.dataset()));
    }

    #[test]
    fn derived_artifacts_are_deterministic() {
        let a = DeploySpec::parse(&toks("data-seed=42 params-seed=3")).unwrap();
        let b = DeploySpec::parse(&toks("params-seed=3 data-seed=42")).unwrap();
        assert_eq!(a.initial_params(), b.initial_params());
        assert_eq!(a.dataset().len(), b.dataset().len());
        assert_eq!(
            a.job_spec().unwrap().initial_params,
            b.job_spec().unwrap().initial_params
        );
    }
}
