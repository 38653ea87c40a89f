//! Deterministic parallel executor for embarrassingly parallel sweeps.
//!
//! Every hot path in the evaluation — exact l-hop curves, chaos traces,
//! directional connectivity, index shards — is a map over independent
//! items (BFS sources, failure epochs) whose results are merged. This
//! module runs such maps on **scoped threads** with three guarantees:
//!
//! 1. **Determinism independent of thread count.** Items are grouped into
//!    *fixed-size* chunks (the chunk size does not depend on `threads`)
//!    and chunk results are merged in chunk-index order. Identical
//!    chunking + identical merge order means bit-identical output for any
//!    `threads`, including 1 — floating-point reductions associate the
//!    same way no matter how many workers ran.
//! 2. **Panic propagation.** A panicking chunk does not poison the merge:
//!    every helper is joined, and the panicking participant's own payload
//!    is resumed on the calling thread via [`std::panic::resume_unwind`].
//! 3. **`threads = 0` means auto.** Resolved to
//!    [`std::thread::available_parallelism`], not a sequential fallback.
//!
//! # Execution
//!
//! One map call opens a [`std::thread::scope`], starts `threads − 1`
//! helpers, and has the caller and the helpers claim chunks off one
//! atomic counter until it runs out, so a slow chunk does not stall the
//! others (no static striping). The scope joins every helper before the
//! map returns, which is what lets the items and the closure be plain
//! borrows: a caller hands in its graph by reference, with no clone and
//! no `'static` bound. Helpers start with cold thread-local scratch (the
//! [`crate::traverse`] and [`crate::msbfs`] arenas); a map call costs
//! tens of microseconds of thread start-up, which the sweeps above
//! amortize over milliseconds of BFS.
//!
//! A map issued *from a helper* runs inline on that helper, so nested
//! fan-out never multiplies the thread count.
#![expect(
    clippy::disallowed_methods,
    reason = "R13: the executor is the one place that creates threads"
)]

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default chunk size for source-level fan-out. Small enough to load
/// balance thousands of BFS sources, large enough to amortize the
/// per-chunk scratch of heavier kernels (Brandes). Equals
/// [`crate::msbfs::LANES`] so a chunk of BFS sources is exactly one
/// msbfs lane batch.
pub const DEFAULT_CHUNK: usize = 64;

thread_local! {
    /// True on helper threads. Maps issued from a helper run inline.
    static IN_HELPER: Cell<bool> = const { Cell::new(false) };
}

/// Adaptive chunk size for *chunk-invariant* maps:
/// `max(1, ceil(items / (threads * 4)))`.
///
/// Larger inputs get proportionally larger chunks (fewer counter
/// round-trips, less merge bookkeeping) while still leaving ~4 chunks
/// per worker for load balancing; small inputs get chunk 1 so even a
/// dozen heavy items (chaos epochs, evolution steps) fan out instead of
/// collapsing into one chunk. The chosen size is recorded in the
/// `par.chunk_size` histogram.
///
/// **Determinism caveat:** the result depends on `threads`, so this is
/// only safe for [`map_auto`]-style calls whose output is independent of
/// the chunk boundaries (per-item results, flattened in order; or exact
/// integer merges). Chunk-*sensitive* consumers — [`map_chunks`] /
/// [`map_reduce`] float merges — must keep a fixed chunk size or their
/// output would vary with the thread count.
pub fn adaptive_chunk(items: usize, threads: usize) -> usize {
    let workers = resolve_threads(threads).max(1);
    let chunk = items.div_ceil(workers * 4).max(1);
    let () = crate::histogram!("par.chunk_size", chunk as u64);
    chunk
}

/// Map each item of `items` through `f` in parallel with
/// [`adaptive_chunk`] sizing, returning per-item results in input order.
/// The output is bit-identical for every `threads` value even though the
/// chunk size adapts to it.
///
/// # Panics
///
/// Re-raises worker panics.
pub fn map_auto<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk = adaptive_chunk(items.len(), threads);
    map_chunks(items, chunk, threads, |chunk: &[T]| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Resolve a user-facing thread count: `0` means "use all hardware
/// threads" ([`std::thread::available_parallelism`]), anything else is
/// taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Map fixed-size chunks of `items` through `f` in parallel, returning
/// the per-chunk results in chunk-index order.
///
/// The chunking (and therefore the result) is identical for every value
/// of `threads`; see the module docs for the determinism contract. A
/// panic in any worker is re-raised on the calling thread.
///
/// # Panics
///
/// Panics if `chunk_size == 0`, and re-raises worker panics.
pub fn map_chunks<T, R, F>(items: &[T], chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let participants = if IN_HELPER.with(Cell::get) {
        1
    } else {
        resolve_threads(threads).min(n_chunks).max(1)
    };
    let () = crate::counter!("par.jobs");
    let () = crate::counter!("par.chunks", n_chunks as u64);
    if participants <= 1 {
        let () = crate::histogram!("par.chunks_per_worker", n_chunks as u64);
        return items.chunks(chunk_size).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            // One fetch per *chunk*, so the stronger ordering costs
            // nothing measurable; SeqCst keeps the executor inside the
            // workspace-wide "Relaxed only in obs.rs" rule (R11).
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n_chunks {
                break;
            }
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            local.push((i, f(&items[lo..hi])));
        }
        // One sample per participant: the spread is the load imbalance.
        let () = crate::histogram!("par.chunks_per_worker", local.len() as u64);
        local
    };
    let mut pairs = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants)
            .map(|_| {
                scope.spawn(|| {
                    IN_HELPER.with(|flag| flag.set(true));
                    claim()
                })
            })
            .collect();
        // The caller claims too. If its own chunk panics, the scope
        // joins the helpers and re-raises the caller's payload.
        let mut pairs = claim();
        let mut panic_payload = None;
        // Join explicitly: an implicit join would replace a helper's
        // payload with a generic "a scoped thread panicked".
        for helper in helpers {
            match helper.join() {
                Ok(local) => pairs.extend(local),
                Err(payload) => panic_payload = panic_payload.or(Some(payload)),
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    assert_eq!(pairs.len(), n_chunks, "a chunk result went missing");
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Map chunks through `f` in parallel, then fold the per-chunk results
/// into `init` **in chunk-index order** with `merge`.
///
/// This is the blessed way to reduce floating-point partials from a
/// parallel sweep: because the fold order is the chunk order (never the
/// completion order), the reduction associates identically for every
/// `threads` value and the result is bit-stable. The determinism lint
/// (R10) rejects ad-hoc `+=` merges of parallel float results outside
/// this module precisely so that all such merges funnel through here.
///
/// # Panics
///
/// Panics if `chunk_size == 0`, and re-raises worker panics.
pub fn map_reduce<T, R, A, F, M>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    f: F,
    init: A,
    merge: M,
) -> A
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
    M: FnMut(A, R) -> A,
{
    map_chunks(items, chunk_size, threads, f)
        .into_iter()
        .fold(init, merge)
}

/// Sum a float slice with a sequential left fold — a fixed association
/// order regardless of how the slice was produced. Pairs with
/// [`map_reduce`] as the other R10-blessed reduction primitive: use it
/// wherever a mean/total of per-item parallel results is taken.
pub fn sum_f64(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0f64, |acc, &x| acc + x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph::from_edges, NodeId, NodeSet};

    #[test]
    fn resolve_zero_is_hardware_threads() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn adaptive_chunk_scales_with_input_and_floors_at_one() {
        // Small inputs get chunk 1 so a handful of heavy items still
        // fans out (chaos epochs, evolution steps).
        assert_eq!(adaptive_chunk(0, 1), 1);
        assert_eq!(adaptive_chunk(12, 4), 1);
        // Large inputs: ceil(items / (threads * 4)).
        assert_eq!(adaptive_chunk(8000, 4), 8000 / 16);
        assert_eq!(adaptive_chunk(10_000, 2), 10_000 / 8);
        assert_eq!(adaptive_chunk(100, 4), 100usize.div_ceil(16));
        // threads = 0 resolves to hardware parallelism, still >= 1.
        assert!(adaptive_chunk(1_000_000, 0) >= 1);
    }

    #[test]
    fn map_auto_is_thread_count_invariant() {
        // The adaptive chunk size differs per thread count, but per-item
        // output flattened in order is chunk-invariant, so results stay
        // bit-identical.
        let items: Vec<f64> = (0..9000).map(|i| 1.0 / (i as f64 + 0.7)).collect();
        let base: Vec<u64> = map_auto(&items, 1, |&x| (x * 3.0).to_bits());
        for threads in [0, 2, 4, 7] {
            let got: Vec<u64> = map_auto(&items, threads, |&x| (x * 3.0).to_bits());
            assert_eq!(got, base, "threads = {threads}");
        }
        assert_eq!(base.len(), items.len());
    }

    #[test]
    fn map_auto_preserves_order_for_all_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 4, 7] {
            let got = map_auto(&items, threads, |&x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_results_arrive_in_chunk_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let sums = map_chunks(&items, 9, threads, |c| c.iter().sum::<usize>());
            assert_eq!(sums.len(), 100usize.div_ceil(9));
            assert_eq!(sums[0], (0..9).sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
        }
    }

    #[test]
    fn float_merge_is_bit_identical_across_thread_counts() {
        // Sums that are sensitive to association order: identical
        // chunking + ordered merge must make them bit-identical.
        let items: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 0.1)).collect();
        let reduce = |threads: usize| -> f64 {
            map_chunks(&items, DEFAULT_CHUNK, threads, |c| c.iter().sum::<f64>())
                .into_iter()
                .sum()
        };
        let base = reduce(1);
        for threads in [2, 4, 7] {
            assert_eq!(base.to_bits(), reduce(threads).to_bits());
        }
    }

    #[test]
    fn map_reduce_matches_sequential_fold() {
        let items: Vec<f64> = (0..3000).map(|i| 1.0 / (i as f64 + 0.3)).collect();
        let expect = map_chunks(&items, DEFAULT_CHUNK, 1, sum_f64)
            .into_iter()
            .fold(0.0f64, |a, x| a + x);
        for threads in [1, 2, 4, 7] {
            let got = map_reduce(&items, DEFAULT_CHUNK, threads, sum_f64, 0.0f64, |a, x| {
                a + x
            });
            assert_eq!(got.to_bits(), expect.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_vector_accumulator() {
        // Vector-valued accumulators (the per-vertex merge shape).
        let items: Vec<usize> = (0..200).collect();
        let hist = map_reduce(
            &items,
            16,
            4,
            |chunk| {
                let mut h = [0usize; 4];
                for &i in chunk {
                    h[i % 4] += 1;
                }
                h
            },
            [0usize; 4],
            |mut acc, h| {
                for (a, b) in acc.iter_mut().zip(h) {
                    *a += b;
                }
                acc
            },
        );
        assert_eq!(hist, [50, 50, 50, 50]);
    }

    #[test]
    fn sum_f64_is_left_fold() {
        let xs = [1e16, 1.0, -1e16, 1.0];
        // Left association: ((1e16 + 1) - 1e16) + 1 == 1.0 exactly.
        assert_eq!(sum_f64(&xs).to_bits(), 1.0f64.to_bits());
        assert_eq!(sum_f64(&[]), 0.0);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        assert!(map_auto(&items, 4, |&x| x).is_empty());
        assert!(map_chunks(&items, 8, 4, |c| c.len()).is_empty());
    }

    #[test]
    fn maps_borrow_stack_locals() {
        // Items, graph and broker set all live on this stack frame: the
        // closure borrows them, nothing is cloned or moved.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)];
        let g = from_edges(6, edges.map(|(a, b)| (NodeId(a), NodeId(b))));
        let brokers = NodeSet::from_iter_with_capacity(6, [NodeId(1), NodeId(4)]);
        let sources = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(5)];
        // Dominated degree: neighbours joined to `s` by a broker endpoint.
        let dominated_degree = |&s: &NodeId| {
            let edges = g.neighbors(s).iter();
            edges
                .filter(|&&v| brokers.contains(s) || brokers.contains(v))
                .count()
        };
        assert_eq!(sources.map(|s| dominated_degree(&s)), [1, 2, 1, 1, 1]);
        for threads in [1, 2, 4] {
            let got = map_auto(&sources, threads, dominated_degree);
            assert_eq!(got, [1, 2, 1, 1, 1], "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        // The caller receives the panicking chunk's own payload, not the
        // scope's generic "a scoped thread panicked". The caller holds
        // each of its items until item 33 has panicked, so a helper
        // raises it unless the caller happened to claim item 33 itself.
        use std::sync::atomic::AtomicBool;
        let items: Vec<u32> = (0..64).collect();
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            let reached = AtomicBool::new(false);
            let payload = std::panic::catch_unwind(|| {
                map_auto(&items, threads, |&x| {
                    if x == 33 {
                        reached.store(true, Ordering::SeqCst);
                        panic!("boom on {x}");
                    }
                    if std::thread::current().id() == caller {
                        for _ in 0..1_000_000 {
                            if reached.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    x
                })
            })
            .expect_err("panic swallowed by the executor");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("boom on 33"), "threads = {threads}");
        }
    }

    #[test]
    fn maps_complete_after_a_worker_panic() {
        // A panicking map leaves nothing behind: later maps still
        // complete and stay correct.
        let items: Vec<u32> = (0..64).collect();
        for _ in 0..3 {
            let result = std::panic::catch_unwind(|| {
                map_chunks(&items, 4, 4, |c| {
                    assert!(c[0] != 32, "boom");
                    c.len()
                })
            });
            assert!(result.is_err());
            let ok = map_chunks(&items, 4, 4, |c| c.iter().sum::<u32>());
            assert_eq!(ok.iter().sum::<u32>(), (0..64).sum::<u32>());
        }
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        // A map issued from a helper runs inline instead of starting
        // helpers of its own; results stay identical.
        let outer: Vec<u32> = (0..8).collect();
        let got = map_chunks(&outer, 1, 4, |c| {
            let inner: Vec<u32> = (0..100).collect();
            let sums = map_chunks(&inner, 10, 4, |ic| ic.iter().sum::<u32>());
            c[0] as usize + sums.len()
        });
        let expect: Vec<usize> = (0..8).map(|i| i + 10).collect();
        assert_eq!(got, expect);
    }
}
