//! The four workloads, as `DeploySpec` tokens derived from `--seed`.
//!
//! The program under test only ever sees the generated tokens (and, for
//! the two knobs that have no token, a patch applied to the
//! `ServerConfig` that `DeploySpec::server_config` returns).

use byz_psd::DeploySpec;
use byz_wire::{ChunkConfig, ChunkScheme, ServerConfig, SparsifyConfig, WireFormat};
use std::time::Duration;

/// Workload names in the order `run.sh` runs them.
pub const WORKLOAD_NAMES: [&str; 4] = [
    "wire_dense",
    "compute_heavy",
    "tcp_chunked_byz",
    "straggler_sparse_bounded",
];

/// Coordinates per chunk on the chunked-wire workloads (and of the
/// chunk/voter probes on every workload).
pub const CHUNK_LEN: usize = 4096;

/// Top-k kept per chunk on `straggler_sparse_bounded`: a tenth of the
/// chunk, the compression level `BENCH_wire.json` reports as 4.9× fewer
/// uplink bytes.
pub const TOP_K: usize = 410;

/// Rounds of the reference job every traced run launches on real
/// processes (and in-process over TCP, for the fingerprint it must match).
pub const PROCESS_ROUNDS: usize = 10;

/// Which transport a workload's jobs run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// `MessagePassingCluster::train_run` over `ChannelLink`.
    Channel,
    /// `PsServer` + `run_tcp_worker` threads over loopback `TcpLink`.
    Tcp,
}

/// The seeds a spec needs, all derived from the one `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub batch: u64,
    pub params: u64,
    pub data: u64,
    pub fault: u64,
    pub top_k: u64,
}

/// Derives the spec seeds from `--seed` with a splitmix64 stream, so
/// neighbouring seeds give unrelated inputs. Values are kept to 31 bits
/// to stay readable in the token list.
pub fn derive_seeds(seed: u64) -> Seeds {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) >> 33
    };
    Seeds {
        batch: next(),
        params: next(),
        data: next(),
        fault: next(),
        top_k: next(),
    }
}

/// One workload: the tokens of its job plus the two token-less knobs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub link: LinkKind,
    /// Rounds per job (`iters=`).
    pub rounds: usize,
    /// The job's full token list, `iters=` included.
    pub tokens: Vec<String>,
    /// `Some(seed)`: ship chunks as seeded top-[`TOP_K`] instead of dense.
    pub top_k_seed: Option<u64>,
    /// Sleep per unit of straggle multiplier above 1, when not the
    /// `ServerConfig` default.
    pub straggler_unit: Option<Duration>,
    /// A job is only correct if its final loss is below this share of
    /// the initial loss. Half on the dense wires; on the top-k wire the
    /// coordinate median of 25 winners that are each 90 % zeros is zero
    /// almost everywhere, so the loss only creeps down (1284 → 1170 in
    /// 40 rounds) and the check is that it falls at all.
    pub max_final_loss_share: f64,
}

impl Workload {
    /// Builds workload `name` for `seed`. `rounds` overrides the
    /// workload's rounds per job (`--quick`). `None` for an unknown name.
    pub fn new(name: &str, seed: u64, rounds: Option<usize>) -> Option<Workload> {
        let seeds = derive_seeds(seed);
        // MOLS l=5, r=3: the paper's smallest cluster, K=15 workers over
        // f=25 files. `ServerConfig`'s default momentum is the 0.9 all
        // four workloads want.
        let common = format!(
            "id=1 l=5 r=3 lr=0.05 classes=10 seed={} params-seed={} data-seed={} fault-seed={}",
            seeds.batch, seeds.params, seeds.data, seeds.fault
        );
        // d = 264 970: one sample per file, so a round is almost all wire.
        let wide = "hw=32 dims=1024x256x10 batch=25 samples=400";
        let (name, link, default_rounds, specific) = match name {
            "wire_dense" => (
                WORKLOAD_NAMES[0],
                LinkKind::Channel,
                36,
                format!("{wide} wire=batched mode=barrier"),
            ),
            // d = 68 362 and 512 samples per file: a round is almost all
            // worker-side GEMM.
            "compute_heavy" => (
                WORKLOAD_NAMES[1],
                LinkKind::Channel,
                20,
                "hw=16 dims=256x256x10 batch=12800 samples=12800 wire=batched mode=barrier"
                    .to_string(),
            ),
            "tcp_chunked_byz" => (
                WORKLOAD_NAMES[2],
                LinkKind::Tcp,
                26,
                format!(
                    "{wide} wire=chunked:{CHUNK_LEN} mode=streaming byzantine=0,5 \
                     attack=reversed:8 reputation=on"
                ),
            ),
            "straggler_sparse_bounded" => (
                WORKLOAD_NAMES[3],
                LinkKind::Channel,
                20,
                format!(
                    "{wide} wire=chunked:{CHUNK_LEN} mode=bounded:1 straggle=3:4.0 recv-ms=2000"
                ),
            ),
            _ => return None,
        };
        let rounds = rounds.unwrap_or(default_rounds);
        let sparse = name == "straggler_sparse_bounded";
        Some(Workload {
            name,
            link,
            rounds,
            tokens: format!("{common} {specific} iters={rounds}")
                .split_whitespace()
                .map(String::from)
                .collect(),
            top_k_seed: sparse.then_some(seeds.top_k),
            straggler_unit: sparse.then_some(Duration::from_millis(50)),
            max_final_loss_share: if sparse { 1.0 } else { 0.5 },
        })
    }

    /// The reference deployment every traced run launches on the real
    /// binaries: the `tcp_chunked_byz` tokens at [`PROCESS_ROUNDS`].
    pub fn process_reference(seed: u64) -> Workload {
        Workload::new("tcp_chunked_byz", seed, Some(PROCESS_ROUNDS)).expect("known workload")
    }

    /// Parses the tokens the way both binaries do.
    pub fn spec(&self) -> DeploySpec {
        DeploySpec::parse(&self.tokens).expect("generated tokens parse")
    }

    /// Sets the knobs that have no spec token on a config that
    /// `DeploySpec::server_config` produced.
    pub fn patch(&self, config: &mut ServerConfig) {
        if let Some(seed) = self.top_k_seed {
            config.wire = WireFormat::Chunked(ChunkConfig {
                chunk_len: CHUNK_LEN,
                scheme: ChunkScheme::TopK(SparsifyConfig::top_k(TOP_K, seed)),
            });
        }
        if let Some(unit) = self.straggler_unit {
            config.straggler_unit = unit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byz_wire::RoundMode;

    #[test]
    fn seeds_are_a_pure_function_of_the_seed() {
        assert_eq!(derive_seeds(7), derive_seeds(7));
        assert_ne!(derive_seeds(7), derive_seeds(8));
        let s = derive_seeds(1);
        let all = [s.batch, s.params, s.data, s.fault, s.top_k];
        for (i, a) in all.iter().enumerate() {
            assert!(*a < 1 << 31);
            assert!(all[i + 1..].iter().all(|b| a != b), "seed stream repeats");
        }
    }

    #[test]
    fn every_workload_round_trips_through_deploy_spec() {
        for name in WORKLOAD_NAMES {
            let w = Workload::new(name, 3, None).unwrap();
            let spec = w.spec();
            let seeds = derive_seeds(3);
            assert_eq!(w.name, name);
            assert_eq!(spec.num_workers(), 15);
            assert_eq!(spec.iterations, w.rounds);
            assert_eq!(
                (spec.seed, spec.params_seed, spec.data_seed, spec.fault_seed),
                (seeds.batch, seeds.params, seeds.data, seeds.fault)
            );
            assert_eq!(spec.assignment().unwrap().num_files(), 25);
        }
        assert!(Workload::new("no_such_workload", 3, None).is_none());
    }

    #[test]
    fn workloads_differ_where_the_readme_says() {
        let dense = Workload::new("wire_dense", 1, None).unwrap().spec();
        let heavy = Workload::new("compute_heavy", 1, None).unwrap().spec();
        assert_eq!(dense.initial_params().len(), 264_970);
        assert_eq!(heavy.initial_params().len(), 68_362);
        assert_eq!((dense.wire, dense.mode), (heavy.wire, heavy.mode));

        let tcp = Workload::new("tcp_chunked_byz", 1, None).unwrap();
        assert_eq!(tcp.link, LinkKind::Tcp);
        assert_eq!(tcp.spec().byzantine, vec![0, 5]);
        assert_eq!(tcp.spec().mode, RoundMode::Streaming);
        assert!(tcp.spec().reputation);
    }

    #[test]
    fn patch_sets_the_tokenless_knobs_only_where_asked() {
        let sparse = Workload::new("straggler_sparse_bounded", 9, Some(5)).unwrap();
        assert_eq!(sparse.rounds, 5);
        let mut config = sparse.spec().server_config();
        assert_eq!(
            config.wire,
            WireFormat::Chunked(ChunkConfig::dense(CHUNK_LEN))
        );
        sparse.patch(&mut config);
        assert_eq!(config.straggler_unit, Duration::from_millis(50));
        assert_eq!(config.faults.straggle_factor(3), 4.0);
        match config.wire {
            WireFormat::Chunked(ChunkConfig {
                chunk_len: CHUNK_LEN,
                scheme: ChunkScheme::TopK(sp),
            }) => assert_eq!((sp.k, sp.seed), (TOP_K, derive_seeds(9).top_k)),
            other => panic!("unexpected wire {other:?}"),
        }

        let dense = Workload::new("wire_dense", 9, None).unwrap();
        let mut config = dense.spec().server_config();
        let before = format!("{config:?}");
        dense.patch(&mut config);
        assert_eq!(format!("{config:?}"), before);
    }

    #[test]
    fn process_reference_is_the_tcp_workload_cut_short() {
        let reference = Workload::process_reference(4);
        assert_eq!(reference.rounds, PROCESS_ROUNDS);
        assert_eq!(reference.link, LinkKind::Tcp);
        assert!(reference
            .tokens
            .contains(&format!("iters={PROCESS_ROUNDS}")));
    }
}
