//! End-to-end training iteration cost for the three pipelines (the
//! wall-clock substance behind Figure 12, measured on this simulator).

use byzshield::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_iters(scheme: SchemeSpec, aggregator: AggregatorKind, iters: usize) {
    let spec = ExperimentSpec {
        iterations: iters,
        eval_every: 0,
        ..ExperimentSpec::new(scheme, aggregator, ClusterSize::K25, AttackKind::Alie, 3)
    };
    let curve = experiments::run_experiment(&spec);
    assert!(curve.error.is_none());
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_iteration");
    group.sample_size(10);
    group.bench_function("byzshield_median_5iters", |b| {
        b.iter(|| run_iters(SchemeSpec::ByzShield, AggregatorKind::Median, 5))
    });
    group.bench_function("detox_mom_5iters", |b| {
        b.iter(|| run_iters(SchemeSpec::Detox, AggregatorKind::MedianOfMeans, 5))
    });
    group.bench_function("baseline_median_5iters", |b| {
        b.iter(|| run_iters(SchemeSpec::Baseline, AggregatorKind::Median, 5))
    });
    group.finish();
}

fn bench_file_gradient(c: &mut Criterion) {
    let (train, _) = experiments::standard_dataset(3);
    let mut rng = StdRng::seed_from_u64(5);
    let sample_len: usize = train.item_shape().iter().product();
    let model = FastMlp::new(&[sample_len, 64, 10], &mut rng);
    let file: Vec<usize> = (0..12).collect();
    c.bench_function("file_gradient_12_samples", |b| {
        b.iter(|| {
            let (x, labels) = train.gather(std::hint::black_box(&file));
            model.gradient_sum(&x, file.len(), &labels)
        })
    });
}

/// One replica of the wire workloads: a 1-sample file on the
/// 1024×256×10 MLP — the kernel whose cost redundancy multiplies by `r`.
fn bench_replica_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let model = FastMlp::new(&[1024, 256, 10], &mut rng);
    let x: Vec<f32> = (0..1024).map(|i| (i % 17) as f32 / 17.0).collect();
    c.bench_function("fast_mlp_gradient_sum_batch1_1024x256x10", |b| {
        b.iter(|| model.gradient_sum(std::hint::black_box(&x), 1, &[3]))
    });
}

/// One replica of `compute_heavy`: a 512-sample file on the 256×256×10
/// MLP, where the two 512×256×256 GEMMs dominate.
fn bench_batch_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let model = FastMlp::new(&[256, 256, 10], &mut rng);
    let x: Vec<f32> = (0..512 * 256)
        .map(|i| (i % 23) as f32 / 23.0 - 0.4)
        .collect();
    let labels: Vec<usize> = (0..512).map(|s| s % 10).collect();
    c.bench_function("fast_mlp_gradient_sum_batch512_256x256x10", |b| {
        b.iter(|| model.gradient_sum(std::hint::black_box(&x), 512, &labels))
    });
}

criterion_group!(
    benches,
    bench_training,
    bench_file_gradient,
    bench_replica_gradient,
    bench_batch_gradient
);
criterion_main!(benches);
