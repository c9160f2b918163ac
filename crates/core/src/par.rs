//! Deterministic fork/join fan-out on scoped OS threads.
//!
//! This module is the **only** sanctioned threading seam in `pqgram-core`
//! (enforced by the `core-thread-discipline` rule of `cargo xtask lint`):
//! query and ingest paths fan work out through [`map`] / [`map_chunks`]
//! instead of spawning threads or taking locks themselves. Centralizing the
//! fan-out buys two properties every caller relies on:
//!
//! * **determinism** — inputs are split into at most `threads` contiguous
//!   chunks and the per-chunk results are concatenated *in chunk order*, so
//!   the output is a pure function of the input slice, independent of
//!   thread scheduling. Parallel index construction therefore produces
//!   byte-identical stores to the serial path;
//! * **panic transparency** — a panic on a worker thread is re-raised on
//!   the calling thread (via [`std::panic::resume_unwind`]), never
//!   swallowed or converted into a truncated result.
//!
//! The primitives deliberately stay fork/join-shaped (no work stealing, no
//! shared queues): every parallel site in this workspace is embarrassingly
//! parallel over trees or candidates, where contiguous chunking already
//! balances well and keeps the merge order obvious.

use std::panic::resume_unwind;

/// An effective worker count: at least 1, at most `len` (no idle workers
/// spinning up for empty chunks).
fn worker_count(threads: usize, len: usize) -> usize {
    threads.max(1).min(len.max(1))
}

/// Splits `items` into at most `threads` contiguous chunks, applies `f` to
/// each chunk on its own scoped thread, and returns the per-chunk results
/// **in chunk order**. The first chunk runs on the calling thread, so
/// `threads == 1` spawns nothing and is exactly the serial loop.
///
/// A panic inside `f` is re-raised on the calling thread.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let workers = worker_count(threads, items.len());
    let chunk = items.len().div_ceil(workers).max(1);
    if workers == 1 || items.len() <= chunk {
        return items.chunks(chunk).map(&f).collect();
    }
    let mut chunks = items.chunks(chunk);
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let rest: Vec<&[T]> = chunks.collect();
    let mut out = Vec::with_capacity(rest.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest.iter().map(|part| scope.spawn(|| f(part))).collect();
        out.push(f(first));
        for handle in handles {
            match handle.join() {
                Ok(r) => out.push(r),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    out
}

/// Applies `f` to every item of `items` across at most `threads` scoped
/// threads and collects the results **in input order** — the parallel
/// equivalent of `items.iter().map(f).collect()`.
///
/// A panic inside `f` is re-raised on the calling thread.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for part in map_chunks(items, threads, |part| {
        part.iter().map(&f).collect::<Vec<R>>()
    }) {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 3, 7, 16, 1000, 5000] {
            assert_eq!(map(&items, threads, |&x| x * 3 + 1), expect, "{threads}");
        }
    }

    #[test]
    fn map_chunks_covers_every_item_exactly_once() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 5, 8, 97, 200] {
            let sums = map_chunks(&items, threads, |part| part.iter().sum::<usize>());
            assert!(sums.len() <= threads.max(1), "{threads}");
            assert_eq!(sums.iter().sum::<usize>(), 97 * 96 / 2, "{threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let none: [u32; 0] = [];
        assert!(map(&none, 8, |&x| x).is_empty());
        assert!(map_chunks(&none, 8, |part| part.len()).is_empty());
    }

    #[test]
    fn work_actually_fans_out() {
        // With more items than one chunk holds, at least two distinct
        // threads must participate (the caller plus one worker).
        let items: Vec<u32> = (0..64).collect();
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        map(&items, 4, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "expected concurrent workers, saw peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            map(&items, 4, |&x| {
                assert!(x != 17, "synthetic failure");
                x
            })
        });
        assert!(result.is_err());
    }
}
