//! A persistent worker pool for data-parallel loops.
//!
//! The pool is created lazily on first use and lives for the rest of the
//! process, so hot paths (a cluster round, a matmul, an aggregation pass)
//! never pay thread-spawn latency. Work arrives as chunk-sized jobs over
//! a crossbeam channel; any idle worker picks the next job up
//! (work-stealing-ish: there is a single shared injector queue, and the
//! submitting thread also drains it while waiting, so the pool can never
//! deadlock even when a pool worker itself submits nested parallel work —
//! nested calls simply run inline).
//!
//! Determinism: [`parallel_chunks`] assigns chunk `c` the index range
//! `[c·chunk, min(len, (c+1)·chunk))`. Which thread executes a chunk is
//! scheduling-dependent, but chunks write disjoint outputs and each chunk
//! is processed sequentially, so the result is independent of both the
//! schedule and the pool size.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

struct Pool {
    sender: Sender<Job>,
    receiver: Receiver<Job>,
    /// Configured parallelism (including the submitting thread); the pool
    /// spawns `threads - 1` workers and the submitter participates.
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads; nested parallel calls run inline.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("BYZ_KERNEL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let (sender, receiver) = unbounded::<Job>();
        for i in 0..threads.saturating_sub(1) {
            let rx = receiver.clone();
            std::thread::Builder::new()
                .name(format!("byz-kernel-{i}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn kernel pool worker");
        }
        Pool {
            sender,
            receiver,
            threads,
        }
    })
}

/// The pool's configured parallelism (≥ 1). Useful for sizing chunk
/// counts in benchmarks and diagnostics.
pub fn num_threads() -> usize {
    global().threads
}

/// Per-call completion latch plus panic propagation.
struct CallState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl CallState {
    fn new(jobs: usize) -> Self {
        CallState {
            remaining: Mutex::new(jobs),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("panic slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Runs `f` over the ranges `[c·chunk, min(len, (c+1)·chunk))` for every
/// chunk index `c`, in parallel on the persistent pool.
///
/// The chunk partition depends only on `(len, chunk)`, so output written
/// through disjoint chunks is bitwise-deterministic regardless of pool
/// size or scheduling. Panics raised inside `f` are propagated to the
/// caller after all chunks have completed.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_chunks<F>(len: usize, chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk);
    let pool = global();
    let run_inline = n_chunks == 1 || pool.threads == 1 || IS_POOL_WORKER.with(|flag| flag.get());
    if run_inline {
        for c in 0..n_chunks {
            f(c * chunk..len.min((c + 1) * chunk));
        }
        return;
    }

    let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
    // SAFETY: every job dispatched below signals `CallState::finish_one`
    // after running (even on panic, via catch_unwind), and this function
    // does not return until `remaining == 0`. The borrowed closure
    // therefore strictly outlives every use of the transmuted reference.
    let f_static: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_ref) };

    let state = Arc::new(CallState::new(n_chunks));
    for c in 0..n_chunks {
        let range = c * chunk..len.min((c + 1) * chunk);
        let state = Arc::clone(&state);
        let job: Job = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f_static(range))) {
                state.record_panic(payload);
            }
            state.finish_one();
        });
        pool.sender.send(job).expect("kernel pool channel closed");
    }

    // Participate: drain the shared queue while waiting. Jobs popped here
    // may belong to other concurrent calls — that still makes progress.
    loop {
        {
            let remaining = state.remaining.lock().expect("latch poisoned");
            if *remaining == 0 {
                break;
            }
        }
        match pool.receiver.try_recv() {
            Ok(job) => job(),
            Err(_) => {
                let remaining = state.remaining.lock().expect("latch poisoned");
                if *remaining == 0 {
                    break;
                }
                // Short timeout so newly queued jobs are picked up even if
                // a notify races with this wait.
                let _unused = state
                    .done
                    .wait_timeout(remaining, Duration::from_micros(200))
                    .expect("latch poisoned");
            }
        }
    }

    let payload = state.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Wrapper making a raw pointer range Sendable for disjoint-chunk writes.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced by chunk closures that each
// write a disjoint sub-range of one live `&mut [T]`, and `T: Send`, so
// moving the pointer to another thread moves no shared access.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared across the pool only to derive those disjoint ranges;
// no two threads ever touch the same element.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access so closures capture the whole wrapper —
    /// edition-2021 precise capture would otherwise grab the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into consecutive `chunk`-sized pieces and runs
/// `f(start_index, piece)` for each piece in parallel. Pieces are
/// disjoint, so each element is written by exactly one task.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    parallel_chunks(len, chunk, |range| {
        // SAFETY: ranges produced by parallel_chunks are disjoint and in
        // bounds, so each task gets exclusive access to its sub-slice.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start), range.end - range.start)
        };
        f(range.start, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        for &(len, chunk) in &[
            (0usize, 3usize),
            (1, 1),
            (10, 3),
            (17, 4),
            (100, 7),
            (64, 64),
        ] {
            let mut hits = vec![0u8; len];
            parallel_chunks_mut(&mut hits, chunk, |_, piece| {
                for h in piece {
                    *h += 1;
                }
            });
            assert!(hits.iter().all(|&h| h == 1), "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn start_indices_match_content() {
        let mut data: Vec<usize> = vec![0; 101];
        parallel_chunks_mut(&mut data, 8, |start, piece| {
            for (off, v) in piece.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        let expect: Vec<usize> = (0..101).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let counter = AtomicUsize::new(0);
        parallel_chunks(16, 1, |_outer| {
            parallel_chunks(8, 2, |inner| {
                counter.fetch_add(inner.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16 * 8);
    }

    #[test]
    fn concurrent_top_level_calls() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut out = vec![0u32; 1000];
                    parallel_chunks_mut(&mut out, 64, |start, piece| {
                        for (off, v) in piece.iter_mut().enumerate() {
                            *v = (start + off) as u32;
                        }
                    });
                    out.iter().map(|&v| v as u64).sum::<u64>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 999 * 1000 / 2);
        }
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_chunks(32, 1, |range| {
                if range.start == 17 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
