//! Compute-kernel benches: the blocked/pooled matmul against the seed's
//! naive triple loop, the skinny shapes either side of the pack-free
//! crossover, and selection-based parallel coordinate-median against a
//! sort-based scalar baseline.

use byz_aggregate::{Aggregator, CoordinateMedian};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    // 256³ is the acceptance shape; the others are FastMlp layer shapes
    // (batch × input × hidden, batch × hidden × classes), the last two
    // `compute_heavy`'s 512-sample replica on the 256 → 256 → 10 MLP.
    let shapes = [
        (256usize, 256usize, 256usize),
        (64, 784, 64),
        (64, 64, 10),
        (512, 256, 256),
        (512, 256, 10),
    ];
    for (m, k, n) in shapes {
        let a = filled(m * k, 1);
        let b = filled(k * n, 2);
        let g = filled(m * n, 3);
        let label = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("naive", &label), &(), |bench, ()| {
            let mut out = vec![0.0f32; m * n];
            bench.iter(|| {
                out.fill(0.0);
                byz_kernel::matmul_naive(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut out,
                    m,
                    k,
                    n,
                );
            })
        });
        group.bench_with_input(BenchmarkId::new("kernel", &label), &(), |bench, ()| {
            let mut out = vec![0.0f32; m * n];
            bench.iter(|| {
                out.fill(0.0);
                byz_kernel::matmul(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut out,
                    m,
                    k,
                    n,
                );
            })
        });
        // The layer's weight gradient `Aᵀ·G` (k×n, m deep).
        group.bench_with_input(BenchmarkId::new("transa", &label), &(), |bench, ()| {
            let mut out = vec![0.0f32; k * n];
            bench.iter(|| {
                out.fill(0.0);
                byz_kernel::matmul_transa(
                    std::hint::black_box(&a),
                    std::hint::black_box(&g),
                    &mut out,
                    m,
                    k,
                    n,
                );
            })
        });
    }
    group.finish();
}

/// The replica path's shapes on the 1024×256 layer: `few` rows forward
/// (`matmul`) and `few` deep backward (`matmul_transa`, the rank-`few`
/// weight gradient). `matmul.rs::SKINNY` sits where the per-row cost of
/// the pack-free kernel stops beating the blocked tile — to re-measure,
/// run this group with `SKINNY` set to 0 (always blocked) and to 16.
fn bench_skinny(c: &mut Criterion) {
    let mut group = c.benchmark_group("skinny_k1024_n256");
    let (k, n) = (1024usize, 256usize);
    for few in [1usize, 2, 4, 8, 16] {
        let a = filled(few * k, 3);
        let b = filled(k * n, 4);
        let g = filled(few * n, 5);
        group.bench_with_input(BenchmarkId::new("matmul_rows", few), &(), |bench, ()| {
            let mut out = vec![0.0f32; few * n];
            bench.iter(|| {
                byz_kernel::matmul(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut out,
                    few,
                    k,
                    n,
                );
            })
        });
        group.bench_with_input(BenchmarkId::new("transa_depth", few), &(), |bench, ()| {
            let mut out = vec![0.0f32; k * n];
            bench.iter(|| {
                byz_kernel::matmul_transa(
                    std::hint::black_box(&a),
                    std::hint::black_box(&g),
                    &mut out,
                    few,
                    k,
                    n,
                );
            })
        });
    }
    group.finish();
}

/// The seed's coordinate-median: column copy + full sort per coordinate.
fn sort_based_median(gradients: &[Vec<f32>]) -> Vec<f32> {
    let d = gradients[0].len();
    let n = gradients.len();
    let mut out = vec![0.0f32; d];
    let mut column = vec![0.0f32; n];
    for j in 0..d {
        for (c, g) in column.iter_mut().zip(gradients) {
            *c = g[j];
        }
        column.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        out[j] = if n % 2 == 1 {
            column[n / 2]
        } else {
            0.5 * (column[n / 2 - 1] + column[n / 2])
        };
    }
    out
}

fn bench_coordinate_median(c: &mut Criterion) {
    let mut group = c.benchmark_group("coordinate_median_d100k");
    group.sample_size(20);
    let grads: Vec<Vec<f32>> = (0..25).map(|i| filled(100_000, i as u64)).collect();
    group.bench_function("sort_scalar", |b| {
        b.iter(|| sort_based_median(std::hint::black_box(&grads)))
    });
    group.bench_function("select_parallel", |b| {
        b.iter(|| {
            CoordinateMedian
                .aggregate(std::hint::black_box(&grads))
                .unwrap()
        })
    });
    group.finish();

    // The deployed shape: the wire workloads' f = 25 vote winners of
    // d = 264 970 coordinates, the PS's once-per-round median.
    let mut group = c.benchmark_group("coordinate_median_deployed");
    group.sample_size(20);
    let winners: Vec<Vec<f32>> = (0..25).map(|i| filled(264_970, i as u64)).collect();
    group.bench_function("n25_d264970", |b| {
        b.iter(|| {
            CoordinateMedian
                .aggregate(std::hint::black_box(&winners))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_skinny, bench_coordinate_median);
criterion_main!(benches);
