//! Wire-protocol throughput: the batch frame workers upload (built in
//! place, decoded as a view), the frame checksum on every compiled
//! path, the sign-packing codec and the seeded top-k sparsifier.

use byz_kernel::{lane_checksum_on, ChecksumPath};
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
            builder.begin(7, 3, 1);
            builder.next_slot(g.len()).copy_from_slice(g);
            builder.commit(21);
            builder.finish()
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

/// The frame checksum the 64-lane kernel replaced — four scalar FNV
/// lanes over 32-byte blocks — kept here as the yardstick its portable
/// path must not fall behind.
fn four_lane_fnv(kind: u8, body: &[u8]) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [
        (OFFSET ^ u64::from(kind)).wrapping_mul(PRIME),
        OFFSET.rotate_left(17),
        OFFSET.rotate_left(31),
        OFFSET.rotate_left(47),
    ];
    let mut blocks = body.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
    }
    hash
}

/// The frame checksum on `path`, or the four-lane loop for `None`.
fn checksum_on(path: Option<ChecksumPath>, body: &[u8]) -> u64 {
    match path {
        Some(path) => lane_checksum_on(path, 6, body),
        None => four_lane_fnv(6, body),
    }
}

/// The checksum over a hot 1 MB body (in cache: the worker sealing what
/// it just wrote) and over 79 MB of cold 16 KiB frames (a round of
/// `wire_dense` uplink as the PS verifies it), on every path this CPU
/// runs — the portable one forced — and on the four-lane loop it
/// replaced. Bodies start at frame offset 17, as in a frame.
fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_checksum");
    let bytes: Vec<u8> = (0u64..79 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    let hot = &bytes[17..(1 << 20) + 17];
    let mut paths = vec![None];
    for path in ChecksumPath::compiled() {
        if path.is_supported() {
            paths.push(Some(path));
        } else {
            println!("skipped: {path:?} is not supported by this CPU");
        }
    }
    for path in paths {
        let name = path.map_or("four_lane_reference".into(), |p| format!("{p:?}"));
        group.bench_with_input(BenchmarkId::new("hot_1mb", &name), hot, |b, body| {
            b.iter(|| checksum_on(path, std::hint::black_box(body)))
        });
        group.bench_function(BenchmarkId::new("cold_79mb_16k_frames", &name), |b| {
            b.iter(|| {
                let frames = bytes.chunks_exact(16 << 10);
                frames.fold(0, |acc, frame| acc ^ checksum_on(path, &frame[17..]))
            })
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

criterion_group!(benches, bench_frames, bench_checksum, bench_codecs);
criterion_main!(benches);
