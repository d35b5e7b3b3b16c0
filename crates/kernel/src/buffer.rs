//! Thread-local scratch-buffer reuse.
//!
//! GEMM packing panels and per-coordinate aggregation loops need
//! short-lived `f32` buffers on every call. Allocating a fresh `Vec` per
//! op dominates small-op cost; instead each thread keeps a small stack of
//! recycled buffers and [`with_scratch`] hands out a zeroed slice.

use std::cell::RefCell;

/// Maximum number of buffers parked per thread; excess buffers are freed.
const MAX_POOLED: usize = 8;

thread_local! {
    static BUFFERS: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a zero-filled scratch slice of length `len`, recycled
/// from a thread-local pool. Nested calls are fine — each call takes its
/// own buffer. The buffer's contents are discarded after `f` returns.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = BUFFERS
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let result = f(&mut buf);
    BUFFERS.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_zeroed_and_sized() {
        with_scratch(16, |buf| {
            assert_eq!(buf.len(), 16);
            assert!(buf.iter().all(|&v| v == 0.0));
            buf.fill(7.5);
        });
        // A recycled buffer must come back zeroed.
        with_scratch(32, |buf| {
            assert_eq!(buf.len(), 32);
            assert!(buf.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn nested_scratch_buffers_are_distinct() {
        with_scratch(8, |a| {
            a.fill(1.0);
            with_scratch(8, |b| {
                b.fill(2.0);
                assert!(a.iter().all(|&v| v == 1.0));
            });
            assert!(a.iter().all(|&v| v == 1.0));
        });
    }

    #[test]
    fn zero_length_scratch() {
        with_scratch(0, |buf| assert!(buf.is_empty()));
    }
}
