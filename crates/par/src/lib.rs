//! # schism-par
//!
//! A scoped work-sharing thread pool for data-parallel loops over index
//! ranges, built entirely on `std::thread::scope` — no external
//! dependencies, honoring the workspace's offline-vendor constraint.
//!
//! The design goal is **determinism before speed**: every operation is
//! specified so its result is bit-identical regardless of the number of
//! worker threads. The multilevel graph partitioner leans on this to keep
//! its "same seed, same partition" contract while coarsening, refinement,
//! and initial-partition seeding all run in parallel.
//!
//! How determinism is achieved:
//!
//! - Work is split into **chunks of consecutive indices** whose boundaries
//!   depend only on `(len, chunk)` — never on the thread count.
//! - Workers *share* work dynamically (an atomic cursor hands out the next
//!   chunk), but each chunk's result is stored in a slot keyed by chunk
//!   index, so scheduling order is invisible to the caller.
//! - [`Pool::scope_chunks`] returns the slots **in chunk order**, so a
//!   caller that folds them in that order (an ordered reduce) gets a stable
//!   result even from a non-commutative combine.
//! - [`Pool::scope_chunks_with`] adds reusable per-worker scratch buffers
//!   (allocated once per worker, not once per chunk) without weakening the
//!   contract: results must stay pure functions of the chunk range.
//!
//! The one rule callers must follow: the per-chunk closure must be a pure
//! function of the chunk's input range (plus captured immutable state). If
//! it needs randomness, derive a seed from the chunk index — never pull
//! from a shared RNG inside a worker.
//!
//! ```
//! use schism_par::Pool;
//!
//! // A non-commutative fold (string concatenation) over 1000 items comes
//! // out identical on 1 thread and 4 threads, because the chunk results
//! // arrive in chunk order regardless of which worker ran which chunk.
//! let render = |pool: &Pool| {
//!     pool.scope_chunks(1000, 64, |range| {
//!         range.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
//!     })
//!     .into_iter()
//!     .fold(String::new(), |acc, part| acc + &part + ";")
//! };
//! assert_eq!(render(&Pool::new(1)), render(&Pool::new(4)));
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads the host reports (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a thread-count knob: `requested > 0` wins, otherwise the
/// `SCHISM_THREADS` environment variable (if set to a positive integer),
/// otherwise [`available_parallelism`].
///
/// This is the single resolution point every `threads` config field in the
/// workspace funnels through, so `SCHISM_THREADS=4 cargo test` exercises
/// the whole stack at 4 threads without touching any call site.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("SCHISM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_parallelism()
}

/// A work-sharing pool of `threads` workers.
///
/// The pool is just a thread budget: each parallel call spawns scoped
/// workers (`std::thread::scope`), so borrows of caller state flow into the
/// closures without `Arc` or `'static` bounds, and no worker outlives the
/// call. A pool of 1 runs everything inline on the caller's thread with
/// zero spawn overhead — the sequential and parallel paths execute the
/// same chunk decomposition, which is what makes them bit-compatible.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with the given thread budget (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// This pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits the budget between an outer loop of `ways` independent tasks
    /// and the work inside each task: returns `(outer_pool, inner_pool)`
    /// with `outer.threads * inner.threads <= max(threads, ways)`. Used by
    /// the partitioner to run its `ncuts` independent attempts concurrently
    /// while each attempt still parallelizes its own coarsening.
    pub fn split(&self, ways: usize) -> (Pool, Pool) {
        let outer = self.threads.min(ways.max(1));
        let inner = (self.threads / outer.max(1)).max(1);
        (Pool::new(outer), Pool::new(inner))
    }

    /// Runs two independent closures and returns both results: `b` on a
    /// scoped worker while `a` runs on the caller's thread, or `a` then `b`
    /// inline on a pool of 1. For a pair of tasks whose result types differ;
    /// homogeneous fan-outs use [`Pool::scope_chunks`].
    pub fn join<A, B, FA, FB>(&self, a: FA, b: FB) -> (A, B)
    where
        B: Send,
        FA: FnOnce() -> A,
        FB: FnOnce() -> B + Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        std::thread::scope(|s| {
            let worker = s.spawn(b);
            let ra = a();
            let rb = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (ra, rb)
        })
    }

    /// Maps `f` over `0..len` in chunks of `chunk` consecutive indices and
    /// returns the per-chunk results **in chunk order**.
    ///
    /// Chunk boundaries depend only on `(len, chunk)`; workers pull chunks
    /// from a shared atomic cursor (work sharing), and each result lands in
    /// the slot of its chunk index, so the output is independent of both
    /// the thread count and the scheduling order. `f` must be a pure
    /// function of its range for the determinism contract to hold.
    pub fn scope_chunks<T, F>(&self, len: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        self.scope_chunks_with(len, chunk, || (), |(), range| f(range))
    }

    /// [`Pool::scope_chunks`] with reusable **per-worker scratch state**:
    /// `scratch()` is called once per worker (once total on the sequential
    /// path), and the same `&mut S` is handed to every chunk that worker
    /// pulls. Use it for working buffers a per-chunk closure would
    /// otherwise re-allocate (hash maps, member lists) — the streaming
    /// graph builder's edge-emission pass leans on this.
    ///
    /// The determinism contract tightens accordingly: the chunk result must
    /// be a pure function of the chunk's *range* (plus captured immutable
    /// state). Scratch is scratch — any information it carries from one
    /// chunk into the next worker-local chunk must not be observable in the
    /// output, because which chunks share a scratch depends on scheduling.
    pub fn scope_chunks_with<S, T, I, F>(
        &self,
        len: usize,
        chunk: usize,
        scratch: I,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>) -> T + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = len.div_ceil(chunk);
        let bounds = |i: usize| i * chunk..((i + 1) * chunk).min(len);
        if self.threads <= 1 || n_chunks <= 1 {
            let mut s = scratch();
            return (0..n_chunks).map(|i| f(&mut s, bounds(i))).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n_chunks) {
                s.spawn(|| {
                    let mut state = scratch();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        let out = f(&mut state, bounds(i));
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every chunk slot")
            })
            .collect()
    }

    /// **Sharded reduce**: folds chunk partials that were pre-split into
    /// `S` shards, one independent ordered fold per shard, with distinct
    /// shards folding **in parallel**.
    ///
    /// `parts` is the per-chunk output of a sharding map (each inner `Vec`
    /// must have the same length `S`; typically each chunk hash-partitions
    /// its items into `S` buckets). Shard `s` of the result is
    /// `fold(... fold(init(s), parts[0][s]) ..., parts[n-1][s])` — the
    /// partials of shard `s` folded in chunk order. Because the folds of
    /// different shards never touch the same data, they run concurrently
    /// without locks, which is what turns the single-map ordered reduce of
    /// a big fan-in into `S` parallel small ones.
    ///
    /// Determinism: each output shard is an ordered fold, so the result is
    /// bit-identical for every thread count. Whether it is also identical
    /// across *shard counts* is up to the caller's sharding function — a
    /// hash-partition by key with a commutative `fold` (the graph builder's
    /// pass-1 stats merge) is, because every key's contributions meet in
    /// chunk order inside exactly one shard.
    pub fn reduce_shards<P, A, I, F>(&self, parts: Vec<Vec<P>>, init: I, fold: F) -> Vec<A>
    where
        P: Send,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(A, P) -> A + Sync,
    {
        let Some(first) = parts.first() else {
            return Vec::new();
        };
        let shards = first.len();
        // Transpose chunk-major -> shard-major (cheap: moves, no clones).
        let mut per_shard: Vec<Vec<P>> = (0..shards)
            .map(|_| Vec::with_capacity(parts.len()))
            .collect();
        for chunk in parts {
            assert_eq!(
                chunk.len(),
                shards,
                "every chunk partial must carry the same shard count"
            );
            for (s, p) in chunk.into_iter().enumerate() {
                per_shard[s].push(p);
            }
        }
        self.map_each(per_shard, |s, chunk_parts| {
            chunk_parts.into_iter().fold(init(s), &fold)
        })
    }

    /// Maps `f` over `items`, one item per task, handing each task its
    /// index and its item **by value** (so a task can consume or free it);
    /// the results come back in item order, independent of scheduling.
    pub fn map_each<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.scope_chunks(slots.len(), 1, |range| {
            let item = slots[range.start]
                .lock()
                .expect("item slot poisoned")
                .take()
                .expect("each item is taken once");
            f(range.start, item)
        })
    }
}

/// A chunk size that amortizes scheduling overhead for `len` items across
/// `threads` workers: aims for ~4 chunks per worker (dynamic sharing can
/// still rebalance skew), floored so tiny inputs become a single chunk.
pub fn chunk_size(len: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * 4;
    (len.div_ceil(target_chunks)).max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_chunk_order() {
        let pool = Pool::new(4);
        let got = pool.scope_chunks(10, 3, |r| (r.start, r.end));
        assert_eq!(got, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
    }

    #[test]
    fn join_returns_both_results_in_position() {
        let words = ["left".to_owned(), "right".to_owned()];
        for threads in [1, 2, 4] {
            let got = Pool::new(threads).join(|| words[0].len(), || words[1].clone());
            assert_eq!(got, (4, "right".to_owned()), "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let pool = Pool::new(4);
        let got: Vec<usize> = pool.scope_chunks(0, 8, |r| r.len());
        assert!(got.is_empty());
    }

    #[test]
    fn identical_across_thread_counts() {
        // Sum of hashes — and the hash of the *ordered* concatenation, which
        // is sensitive to any reordering.
        let run = |threads: usize| {
            let pool = Pool::new(threads);
            pool.scope_chunks(10_000, 97, |r| {
                r.map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
                    .fold(0u64, u64::wrapping_add)
            })
            .into_iter()
            .fold(0u64, |acc, s| acc.rotate_left(7) ^ s)
        };
        let base = run(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(run(t), base, "thread count {t} changed the reduction");
        }
    }

    #[test]
    fn work_sharing_covers_skewed_chunks() {
        // One chunk is 1000x more expensive; all chunks must still complete
        // and land in order.
        let pool = Pool::new(4);
        let got = pool.scope_chunks(64, 1, |r| {
            let mut x = r.start as u64;
            let iters = if r.start == 0 { 100_000 } else { 100 };
            for _ in 0..iters {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (r.start, x)
        });
        assert_eq!(got.len(), 64);
        for (i, &(start, _)) in got.iter().enumerate() {
            assert_eq!(start, i);
        }
    }

    #[test]
    fn scratch_is_per_worker_and_invisible_in_output() {
        use std::sync::atomic::AtomicUsize;
        let run = |threads: usize| {
            let inits = AtomicUsize::new(0);
            let got = Pool::new(threads).scope_chunks_with(
                1_000,
                37,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |buf, r| {
                    // Reuse the buffer across chunks; result depends only on
                    // the range.
                    buf.clear();
                    buf.extend(r.map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15)));
                    buf.iter().fold(0u64, |a, &x| a.rotate_left(5) ^ x)
                },
            );
            (got, inits.load(Ordering::Relaxed))
        };
        let (base, seq_inits) = run(1);
        assert_eq!(seq_inits, 1, "sequential path builds one scratch");
        for t in [2, 4, 8] {
            let (got, inits) = run(t);
            assert_eq!(got, base, "threads={t} changed chunk results");
            assert!(
                inits >= 1 && inits <= t,
                "one scratch per worker, got {inits}"
            );
        }
    }

    #[test]
    fn reduce_shards_folds_each_shard_in_chunk_order() {
        // Chunk c contributes the string "c" to every shard; the fold is
        // concatenation (non-commutative), so chunk order must be preserved
        // per shard at every thread count.
        let run = |threads: usize| {
            let pool = Pool::new(threads);
            let parts: Vec<Vec<String>> = (0..7)
                .map(|c| (0..3).map(|s| format!("{c}:{s} ")).collect())
                .collect();
            pool.reduce_shards(parts, |s| format!("[{s}] "), |acc, p| acc + &p)
        };
        let base = run(1);
        assert_eq!(base[0], "[0] 0:0 1:0 2:0 3:0 4:0 5:0 6:0 ");
        assert_eq!(base[2], "[2] 0:2 1:2 2:2 3:2 4:2 5:2 6:2 ");
        for t in [2, 3, 8] {
            assert_eq!(run(t), base, "thread count {t} changed a shard fold");
        }
    }

    #[test]
    fn reduce_shards_handles_empty_input() {
        let pool = Pool::new(4);
        let got: Vec<u64> = pool.reduce_shards(Vec::<Vec<u64>>::new(), |_| 0, |a, b| a + b);
        assert!(got.is_empty());
    }

    #[test]
    fn hash_sharded_sums_are_shard_count_independent() {
        // A commutative fold over hash-partitioned items: the union of the
        // shard results must be the same total for every shard count, which
        // is the property the graph builder's pass-1 merge leans on.
        let items: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let total = |shards: usize, threads: usize| -> u64 {
            let pool = Pool::new(threads);
            let parts = pool.scope_chunks(items.len(), 117, |r| {
                let mut buckets = vec![0u64; shards];
                for i in r {
                    let x = items[i];
                    let s = (x % shards as u64) as usize;
                    buckets[s] = buckets[s].wrapping_add(x);
                }
                buckets
            });
            pool.reduce_shards(parts, |_| 0u64, |a, b| a.wrapping_add(b))
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        };
        let base = total(1, 1);
        for shards in [2, 3, 16] {
            for threads in [1, 4] {
                assert_eq!(total(shards, threads), base);
            }
        }
    }

    #[test]
    fn split_budgets_multiply_within_bound() {
        let (o, i) = Pool::new(4).split(2);
        assert_eq!((o.threads(), i.threads()), (2, 2));
        let (o, i) = Pool::new(1).split(8);
        assert_eq!((o.threads(), i.threads()), (1, 1));
        let (o, i) = Pool::new(8).split(3);
        assert_eq!((o.threads(), i.threads()), (3, 2));
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(100, 4), 1024); // floored
        assert!(chunk_size(1_000_000, 4) >= 1024);
        assert!(chunk_size(1_000_000, 4) <= 1_000_000);
    }
}
