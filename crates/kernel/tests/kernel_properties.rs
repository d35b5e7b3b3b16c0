//! Property tests for the compute-kernel layer: the blocked/tiled
//! matmul (including its pooled parallel path) agrees with the naive
//! reference, the fused-transpose variants agree with materialized
//! transposes, and the pruned median network agrees with scalar
//! selection — bitwise, where determinism is the contract.

use byz_kernel::{
    matmul, matmul_naive, matmul_transa, matmul_transb, median_select, parallel_chunks_mut,
    MedianNetwork,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill so operand sizes can depend on the
/// generated shape without nested strategies.
fn filled(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((x >> 8) & 0xffff) as f32 / 65536.0 - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u32..10_000,
    ) {
        let a = filled(m * k, seed);
        let b = filled(k * n, seed.wrapping_add(1));
        let mut want = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul(&a, &b, &mut got, m, k, n);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            prop_assert!((x - y).abs() <= 1e-4 * k as f32, "out[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn pooled_matmul_path_matches_naive(
        m in 140usize..200,
        k in 8usize..24,
        n in 24usize..40,
        seed in 0u32..1000,
    ) {
        // Shapes past PARALLEL_THRESHOLD with more rows than one MC
        // block, so the product fans out across the pool.
        let a = filled(m * k, seed);
        let b = filled(k * n, seed.wrapping_add(2));
        let mut want = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul(&a, &b, &mut got, m, k, n);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            prop_assert!((x - y).abs() <= 1e-4 * k as f32, "out[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn fused_transposes_match_materialized(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in 0u32..10_000,
    ) {
        let a = filled(m * k, seed);
        let g = filled(m * n, seed.wrapping_add(3));

        // dB = Aᵀ·G against an explicit transpose of A.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for t in 0..k {
                at[t * m + i] = a[i * k + t];
            }
        }
        let mut want = vec![0.0f32; k * n];
        matmul_naive(&at, &g, &mut want, k, m, n);
        let mut got = vec![0.0f32; k * n];
        matmul_transa(&a, &g, &mut got, m, k, n);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            prop_assert!((x - y).abs() <= 1e-4 * m as f32, "transa[{}]: {} vs {}", i, x, y);
        }

        // dA = G·Bᵀ against an explicit transpose of B.
        let b = filled(k * n, seed.wrapping_add(4));
        let mut bt = vec![0.0f32; n * k];
        for t in 0..k {
            for j in 0..n {
                bt[j * k + t] = b[t * n + j];
            }
        }
        let mut want = vec![0.0f32; m * k];
        matmul_naive(&g, &bt, &mut want, m, n, k);
        let mut got = vec![0.0f32; m * k];
        matmul_transb(&g, &b, &mut got, m, n, k);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            prop_assert!((x - y).abs() <= 1e-4 * n as f32, "transb[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn sorting_network_median_matches_scalar_select(
        n in 1usize..33,
        width in 1usize..20,
        seed in 0u32..10_000,
    ) {
        // The network path the coordinate-median takes: the pruned
        // network over n rows of width coordinates. Must equal
        // per-column scalar selection exactly (same order statistics,
        // same midpoint arithmetic).
        let block = filled(n * width, seed);
        let rows: Vec<&[f32]> = block.chunks(width).collect();
        let mut got = vec![0.0f32; width];
        MedianNetwork::new(n).median(&rows, &mut got);
        for (c, g) in got.iter().enumerate() {
            let mut column: Vec<f32> = (0..n).map(|r| block[r * width + c]).collect();
            let want = median_select(&mut column);
            prop_assert_eq!(g.to_bits(), want.to_bits(), "column {}", c);
        }
    }

    #[test]
    fn parallel_median_is_bit_identical_to_serial(
        d in 1usize..600,
        n in 1usize..12,
        chunk in 1usize..64,
        seed in 0u32..10_000,
    ) {
        // The aggregator pattern: one median per output coordinate,
        // fanned out in fixed-size chunks. Chunking must never change a
        // single bit relative to the serial loop.
        let gradients: Vec<Vec<f32>> =
            (0..n).map(|g| filled(d, seed.wrapping_add(g as u32))).collect();

        let mut serial = vec![0.0f32; d];
        let mut column = vec![0.0f32; n];
        for (j, o) in serial.iter_mut().enumerate() {
            for (c, g) in column.iter_mut().zip(&gradients) {
                *c = g[j];
            }
            *o = median_select(&mut column);
        }

        let mut pooled = vec![0.0f32; d];
        parallel_chunks_mut(&mut pooled, chunk, |start, piece| {
            let mut column = vec![0.0f32; n];
            for (off, o) in piece.iter_mut().enumerate() {
                for (c, g) in column.iter_mut().zip(&gradients) {
                    *c = g[start + off];
                }
                *o = median_select(&mut column);
            }
        });

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&serial), bits(&pooled));
    }
}
