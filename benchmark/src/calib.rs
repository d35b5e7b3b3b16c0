//! How fast this box is *right now*: a fixed piece of work that shares
//! no code with the repo, timed before and after every measured job.
//!
//! The sandbox this benchmark has to be steady on is a 2-vCPU VM whose
//! speed swings by tens of percent for seconds to minutes at a time: on
//! an otherwise idle box this very loop takes anywhere between 2.7 and
//! 4.8 ms a slice, and the same job runs at 4.7 or at 6.1 rounds/s.
//! Timings of a job are therefore divided by the slowdown estimated from
//! the calibrations around it, which brought the run-to-run spread of
//! `rounds_per_s` from 15 % to 3–7 % when the box was busy (README.md,
//! "Calibration", has the measurements).

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Seconds a slice takes on the box the bounds were set on when nothing
/// disturbs it. Only fixes the unit: timings read "as on a box this
/// fast"; comparisons between commits do not depend on its value.
const REFERENCE_SLICE_S: f64 = 2.9e-3;

/// How much of a slowdown seen at a job's edges the job itself feels,
/// as an exponent. A calibration is two 0.1 s looks at a speed that
/// changes within seconds, while the job averages over 4 s, so it
/// regresses toward the mean: over 51 jobs of two workloads the slope of
/// ln(rounds/s) on ln(slice time) was −0.40 … −0.53 (r = −0.74).
const FELT_SHARE: f64 = 0.5;

/// Floats per array: x and y are 8 KB each, so the loop runs from L1
/// and tracks core speed (clock, SMT sibling, stolen time) and not a
/// neighbour's cache traffic, which a round feels far less than a
/// streaming loop does.
const LEN: usize = 2048;

/// Passes over the arrays per timed slice.
const PASSES_PER_SLICE: usize = 12_800;

/// Timed slices per thread: ≈ 0.1 s a calibration.
const SLICES: usize = 31;

/// Median seconds per slice of the fixed AXPY loop, one thread per core
/// so that both are as busy as a job keeps them. The median of short
/// slices ignores bursts shorter than the calibration and keeps the
/// slowdowns that outlast it, which are the ones a job feels.
pub fn slice_seconds() -> f64 {
    let threads = thread::available_parallelism().map_or(1, usize::from);
    let slices: Vec<f64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let x: Vec<f32> = (0..LEN).map(|i| (i + t) as f32 * 1e-6).collect();
                    let mut y = vec![0.5f32; LEN];
                    (0..SLICES)
                        .map(|slice| {
                            let started = Instant::now();
                            for pass in 0..PASSES_PER_SLICE {
                                let a = 1.0 + (slice * PASSES_PER_SLICE + pass) as f32 * 1e-9;
                                for (y, x) in y.iter_mut().zip(&x) {
                                    *y = a * *x + *y * 0.999;
                                }
                                black_box(&mut y);
                            }
                            started.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    crate::stats::median(&slices)
}

/// The factor by which a job is estimated to have run slower than on
/// the reference box, from the slice times measured before and after it.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    ((before_s + after_s) / 2.0 / REFERENCE_SLICE_S).powf(FELT_SHARE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_takes_a_plausible_time() {
        let slice = slice_seconds();
        assert!(slice > 1e-4 && slice < 1.0, "{slice}");
    }

    #[test]
    fn slowdown_is_one_on_the_reference_box_and_damped_elsewhere() {
        assert_eq!(slowdown(REFERENCE_SLICE_S, REFERENCE_SLICE_S), 1.0);
        let twice = slowdown(2.0 * REFERENCE_SLICE_S, 2.0 * REFERENCE_SLICE_S);
        assert!(twice > 1.0 && twice < 2.0);
        assert!(slowdown(0.5 * REFERENCE_SLICE_S, 0.5 * REFERENCE_SLICE_S) < 1.0);
    }
}
