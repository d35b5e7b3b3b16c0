//! Pool-parallel SGD-with-momentum update kernels.
//!
//! The model update is the last serial stage of a training round: once the
//! per-file votes are folded and aggregated, the PS walks every parameter
//! once (`v = μ·v + g·scale; p -= lr·v`). At d = 1M+ coordinates that walk
//! is worth spreading over the persistent pool, and because the recurrence
//! is purely elementwise, any chunk partition produces bitwise-identical
//! results — each coordinate's arithmetic is a fixed sequential expression
//! independent of which chunk (or thread) evaluates it.
//!
//! Chunk size is a fixed constant derived from nothing but the problem
//! shape, never from the pool size, per the crate-wide determinism
//! contract.

use crate::pool::parallel_chunks;

/// Fixed chunk length for update kernels. Large enough that per-chunk
/// dispatch overhead is negligible, small enough to split d = 1M across
/// any realistic pool.
pub const UPDATE_CHUNK: usize = 16_384;

/// Local copy of the pool's Send wrapper for disjoint raw-pointer writes.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced by chunk closures that each
// write a disjoint sub-range of one live `&mut [T]`, and `T: Send`, so
// moving the pointer to another thread moves no shared access.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared across the pool only to derive those disjoint ranges;
// no two threads ever touch the same element.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// In-place SGD-with-momentum step over flat parameter/velocity vectors:
///
/// ```text
/// v[i] = momentum * v[i] + gradient[i] * scale
/// p[i] -= lr * v[i]
/// ```
///
/// Runs chunk-parallel on the `byz-kernel` pool. Elementwise, so the
/// result is bitwise identical to the scalar loop at any
/// `BYZ_KERNEL_THREADS`.
///
/// # Panics
///
/// Panics if the three slices disagree in length.
pub fn sgd_momentum_step(
    params: &mut [f32],
    velocity: &mut [f32],
    gradient: &[f32],
    scale: f32,
    lr: f32,
    momentum: f32,
) {
    assert_eq!(params.len(), velocity.len(), "params/velocity length");
    assert_eq!(params.len(), gradient.len(), "params/gradient length");
    let p_base = SendPtr(params.as_mut_ptr());
    let v_base = SendPtr(velocity.as_mut_ptr());
    parallel_chunks(gradient.len(), UPDATE_CHUNK, |range| {
        let len = range.end - range.start;
        // SAFETY: parallel_chunks hands out disjoint in-bounds ranges, so
        // each task has exclusive access to its params/velocity windows.
        let (p, v) = unsafe {
            (
                std::slice::from_raw_parts_mut(p_base.get().add(range.start), len),
                std::slice::from_raw_parts_mut(v_base.get().add(range.start), len),
            )
        };
        let g = &gradient[range];
        for ((pi, vi), gi) in p.iter_mut().zip(v.iter_mut()).zip(g) {
            *vi = momentum * *vi + gi * scale;
            *pi -= lr * *vi;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_reference(
        params: &mut [f32],
        velocity: &mut [f32],
        gradient: &[f32],
        scale: f32,
        lr: f32,
        momentum: f32,
    ) {
        for ((p, v), g) in params.iter_mut().zip(velocity.iter_mut()).zip(gradient) {
            *v = momentum * *v + g * scale;
            *p -= lr * *v;
        }
    }

    fn synth(len: usize, salt: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 0.37 + salt).sin() * 2.5)
            .collect()
    }

    #[test]
    fn matches_scalar_loop_bitwise() {
        for &len in &[
            0usize,
            1,
            7,
            UPDATE_CHUNK - 1,
            UPDATE_CHUNK,
            3 * UPDATE_CHUNK + 11,
        ] {
            let grad = synth(len, 0.1);
            let mut p_kernel = synth(len, 1.3);
            let mut v_kernel = synth(len, 2.7);
            let mut p_ref = p_kernel.clone();
            let mut v_ref = v_kernel.clone();
            sgd_momentum_step(&mut p_kernel, &mut v_kernel, &grad, 1.6, 0.05, 0.9);
            scalar_reference(&mut p_ref, &mut v_ref, &grad, 1.6, 0.05, 0.9);
            assert_eq!(bits(&p_kernel), bits(&p_ref), "params len={len}");
            assert_eq!(bits(&v_kernel), bits(&v_ref), "velocity len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "params/gradient length")]
    fn rejects_mismatched_lengths() {
        let mut p = vec![0.0f32; 4];
        let mut v = vec![0.0f32; 4];
        sgd_momentum_step(&mut p, &mut v, &[0.0; 3], 1.0, 0.1, 0.9);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
