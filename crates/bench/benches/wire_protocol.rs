//! Wire-protocol throughput: the batch frame workers upload (built in
//! place, decoded as a view), the sign-packing codec and the seeded
//! top-k sparsifier.

use byz_wire::{
    decode_gradient_batch, packed_sign_majority, sparsify_top_k, BatchFrameBuilder, PackedSigns,
};
use byzshield::prelude::FastMlp;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_frames");
    for &d in &[1024usize, 16384, 131072] {
        let gradient: Vec<f32> = (0..d).map(|i| i as f32 * 0.01).collect();
        // What a worker does per flush: fill the slot, seal the frame.
        let encode = |g: &[f32]| {
            let mut builder = BatchFrameBuilder::new(1, g.len());
            builder.next_slot(g.len()).copy_from_slice(g);
            builder.commit(21);
            builder.finish(7, 3)
        };
        group.bench_with_input(BenchmarkId::new("encode", d), &gradient, |b, g| {
            b.iter(|| encode(g))
        });
        let frame = encode(&gradient);
        group.bench_with_input(BenchmarkId::new("decode", d), &frame, |b, f| {
            b.iter(|| decode_gradient_batch(std::hint::black_box(f)).unwrap())
        });
    }
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codecs");
    let g: Vec<f32> = (0..65536).map(|i| ((i as f32) * 0.37).sin()).collect();
    group.bench_function("sign_pack_64k", |b| {
        b.iter(|| PackedSigns::pack(std::hint::black_box(&g)))
    });
    let packed: Vec<PackedSigns> = (0..25).map(|_| PackedSigns::pack(&g)).collect();
    group.bench_function("packed_majority_25x64k", |b| {
        b.iter(|| packed_sign_majority(std::hint::black_box(&packed)).unwrap())
    });

    // One chunk of `straggler_sparse_bounded`'s top-k wire: 4096
    // coordinates, 410 kept. The real chunk is the first of a 1-sample
    // replica of the 1024×256×10 MLP (about half exact zeros, where the
    // ReLU is off); the uniform one has no ties at all.
    let mut rng = StdRng::seed_from_u64(3);
    let model = FastMlp::new(&[1024, 256, 10], &mut rng);
    let x: Vec<f32> = (0..1024).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let (_, replica) = model.gradient_sum(&x, 1, &[4]);
    let uniform: Vec<f32> = (0..4096).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for (name, chunk) in [
        ("real_gradient", &replica[..4096]),
        ("uniform", &uniform[..]),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sparsify_top_k_4096_k410", name),
            chunk,
            |b, chunk| b.iter(|| sparsify_top_k(std::hint::black_box(chunk), 410, 0xB12, 0)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_frames, bench_codecs);
criterion_main!(benches);
