//! `CoordinateMedian` against the full-sort oracle: Batcher's network
//! with every comparator kept, applied to whole gathered columns — the
//! median this crate computed before the pruned network. The oracle's
//! source is `byz-kernel`'s test-only `select/oracle.rs`, compiled in
//! here so it never joins either crate's public API.

#[allow(dead_code)]
#[path = "../../kernel/src/select/oracle.rs"]
mod oracle;

use byz_aggregate::{Aggregator, CoordinateMedian, Mean, MedianOfMeans};
use oracle::{mixed_rows, sorted_median, FAMILIES};
use proptest::prelude::*;

/// Model dimensions at the 16-lane and 4096-coordinate chunk edges.
const EDGE_DIMENSIONS: [usize; 22] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 4095, 4096, 4097, 9000,
];

fn oracle_median(gradients: &[Vec<f32>]) -> Vec<f32> {
    let rows: Vec<&[f32]> = gradients.iter().map(Vec::as_slice).collect();
    sorted_median(&rows)
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} coordinate {j}: {g} vs {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coordinate_median_matches_full_sort_oracle(
        n in 1usize..=40,
        d in prop::sample::select(EDGE_DIMENSIONS.to_vec()),
        family in 0..FAMILIES,
        seed in any::<u64>(),
    ) {
        let gradients = mixed_rows(n, d, family, seed);
        let what = format!("n={n} d={d} family={family} seed={seed}");
        match CoordinateMedian.aggregate(&gradients) {
            Ok(got) => assert_bits_eq(&got, &oracle_median(&gradients), &what),
            // d = 0 is refused before any median is taken.
            Err(e) => prop_assert_eq!(d, 0, "{}: {}", what, e),
        }
    }

    #[test]
    fn median_of_means_takes_the_oracle_median_of_group_means(
        n in 1usize..=40,
        groups in 1usize..=40,
        family in 0..FAMILIES,
        seed in any::<u64>(),
    ) {
        prop_assume!(groups <= n);
        let gradients = mixed_rows(n, 4097, family, seed);
        let got = MedianOfMeans { num_groups: groups }.aggregate(&gradients).unwrap();
        // Contiguous, nearly equal groups.
        let (base, extra) = (n / groups, n % groups);
        let mut means = Vec::with_capacity(groups);
        let mut start = 0;
        for g in 0..groups {
            let size = base + usize::from(g < extra);
            means.push(Mean.aggregate(&gradients[start..start + size]).unwrap());
            start += size;
        }
        assert_bits_eq(&got, &oracle_median(&means), &format!("n={n} groups={groups}"));
    }
}

#[test]
fn coordinate_median_matches_full_sort_oracle_for_every_n() {
    for n in 1..=40usize {
        for family in 0..FAMILIES {
            let gradients = mixed_rows(n, 4097, family, n as u64 * 977 + u64::from(family));
            let got = CoordinateMedian.aggregate(&gradients).unwrap();
            assert_bits_eq(
                &got,
                &oracle_median(&gradients),
                &format!("n={n} family={family}"),
            );
        }
    }
}
