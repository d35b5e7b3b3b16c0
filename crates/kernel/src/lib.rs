//! Shared parallel compute kernels for the ByzShield hot paths.
//!
//! The paper's headline claim is *efficiency*: redundancy `r` multiplies
//! per-worker compute, so the speed of the gradient/aggregation kernels
//! directly governs the reproduced per-iteration timing curves (Fig. 12).
//! This crate concentrates those kernels in one place so every consumer
//! (`byz-nn`'s MLP, `byz-aggregate`'s vote and median, the parameter
//! server's and the trainer's model update) shares the same machinery:
//!
//! * [`pool`] — a persistent, lazily-initialized worker pool over
//!   crossbeam channels with a [`parallel_chunks`] primitive for
//!   data-parallel loops. Threads are spawned once per process (sized
//!   from `std::thread::available_parallelism`, overridable with the
//!   `BYZ_KERNEL_THREADS` env var) instead of per round.
//! * [`mod@matmul`] — a cache-blocked, register-tiled f32 GEMM
//!   (`out += A·B`) with fused [`matmul_transa`] / [`matmul_transb`]
//!   variants so backward passes never materialize transposed operands.
//! * [`buffer`] — a thread-local [`with_scratch`] buffer pool so hot
//!   loops (GEMM packing panels, per-coordinate aggregation columns)
//!   stop allocating a fresh `Vec` per call.
//! * [`select`] — order-statistic kernels: O(n) selection
//!   ([`median_select`], [`trimmed_sum_select`]) replacing full
//!   per-coordinate sorts, and [`MedianNetwork`], the coordinate-median
//!   hot path: Batcher's sorting network pruned to the comparators that
//!   reach the middle row, run 16 coordinates at a time on the widest
//!   vector path the CPU has (AVX-512F, AVX2 or baseline, probed once),
//!   with the same bits as reading the middle of a full sort.
//! * [`update`] — chunk-parallel SGD-with-momentum steps
//!   ([`sgd_momentum_step`]) so the post-aggregation model update stops
//!   being a single-threaded walk over every parameter.
//! * [`bits`] — the exact-equality vote's inner loops: [`bits_eq`]
//!   (one `memcmp` over the f32 storage) and [`FingerprintFold`], a
//!   word-wise multi-lane hash whose lanes are keyed by absolute
//!   coordinate offset, so shard-wise folds equal the whole-vector
//!   [`gradient_fingerprint`]; and [`ChecksumFold`] / [`lane_checksum`],
//!   the wire's 64-lane frame checksum, one body compiled for AVX-512F+DQ,
//!   AVX2 and baseline and dispatched once per process.
//!
//! # Determinism contract
//!
//! Every parallel kernel partitions its output into fixed-size chunks
//! and computes each output element with a fixed sequential reduction
//! order. The partition depends only on the problem shape — never on the
//! pool size or on scheduling — so results are bitwise identical from
//! run to run and across thread counts, preserving the simulator's
//! reproducibility guarantees.

pub mod bits;
pub mod buffer;
pub mod matmul;
pub mod pool;
pub mod select;
pub mod update;

pub use bits::{
    bits_eq, gradient_fingerprint, lane_checksum, lane_checksum_on, ChecksumFold, ChecksumPath,
    FingerprintFold, CHECKSUM_LANES, CHECKSUM_ROW,
};
pub use buffer::with_scratch;
pub use matmul::{matmul, matmul_naive, matmul_transa, matmul_transb};
pub use pool::{num_threads, parallel_chunks, parallel_chunks_mut};
pub use select::{median_select, trimmed_sum_select, MedianNetwork};
pub use update::{sgd_momentum_step, UPDATE_CHUNK};
