#ifndef WHYNOT_COMMON_PARALLEL_H_
#define WHYNOT_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <functional>

namespace whynot::par {

/// The thread pool behind the engine's one pooled path: the chunked
/// odometer shard of ParallelFilterSpace (explain/search_core.h). Every
/// other engine path is serial at every thread count.
///
/// Contract:
///  * The pool is global and lazily started — no thread is ever spawned
///    until the first ParallelFor call that actually splits work, so
///    single-threaded programs pay nothing.
///  * `WHYNOT_THREADS` (environment) fixes the thread count; unset or 0
///    means the hardware concurrency. SetNumThreads overrides at runtime
///    (used by tests and benchmarks to sweep thread counts in-process).
///    Both are clamped to [1, 256].
///  * With 1 thread ParallelFor runs the body inline on the calling
///    thread — byte-identical behavior to a build without this layer.
///  * With more threads, work is split into index *blocks*; the caller
///    must make results a pure function of the index (write into
///    index-addressed slots, then reduce serially in index order), so
///    outputs never depend on the thread count or the scheduling order.
///    See tests/parallel_determinism_test.
///  * A nested call from inside a pool worker runs inline (no pool
///    re-entry, no deadlock). Concurrent top-level calls from different
///    application threads serialize on the pool's single job slot — safe,
///    though the two regions do not overlap.

/// Current thread-count setting (>= 1). First call reads WHYNOT_THREADS.
int NumThreads();

/// Overrides the thread count, clamped to [1, 256] like WHYNOT_THREADS
/// (n <= 0 re-reads WHYNOT_THREADS / hardware). Joins and respawns pool
/// workers as needed; must not be called while a parallel region is
/// executing.
void SetNumThreads(int n);

/// Runs fn(begin, end) over a partition of [0, n). Serial (one inline call
/// fn(0, n)) when the pool has 1 thread or n <= grain; otherwise splits
/// into blocks of at least `grain` indices executed across the pool, with
/// the calling thread participating. Returns when all blocks finished.
///
/// Cooperative stop: `stop` (may be null) is polled once per block, at
/// dispatch — a block that starts after the flag is set is skipped
/// entirely, and the serial inline path checks once up front. Because
/// whole index ranges may then never run, a caller must *discard* the
/// region's partial output on stop (the execution-control abandon path);
/// a deterministic merge must not observe which blocks ran. Block bodies
/// that want a faster reaction set the flag themselves (it is the same
/// flag they poll).
void ParallelFor(size_t n, size_t grain, const std::atomic<bool>* stop,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace whynot::par

#endif  // WHYNOT_COMMON_PARALLEL_H_
