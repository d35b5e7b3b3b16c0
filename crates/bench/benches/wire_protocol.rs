//! Wire-protocol throughput: the batch frame workers upload (built in
//! place, decoded as a view) and the sign-packing codec.

use byz_wire::{decode_gradient_batch, packed_sign_majority, BatchFrameBuilder, PackedSigns};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

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
    group.finish();
}

criterion_group!(benches, bench_frames, bench_codecs);
criterion_main!(benches);
