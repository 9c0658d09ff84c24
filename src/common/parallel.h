// Persistent thread-pool parallel-for for the CPU hot paths (GEMM main
// loops, batched attention, per-span KV writes and prefill attention), plus
// the shard-partitioned execution substrate for tensor parallelism.
//
// Design notes:
//  - The global pool is created lazily on the first parallel_for and lives
//    for the process; workers sleep on a condition variable between regions.
//  - The caller thread participates in the region, so `num_threads() == 1`
//    (or a single chunk) degenerates to a plain inline call with zero
//    synchronization.
//  - NO-NESTING RULE: regions do not nest. A parallel_for issued from inside
//    a worker chunk runs the body inline on that worker — it must never try
//    to re-enter a pool, because the pool's threads are already committed to
//    the enclosing region and re-entry would deadlock on the region lock.
//    The same rule covers shard-local pools: a shard body may issue
//    parallel_for (it runs on that shard's private pool), but a region
//    issued from inside one of the shard pool's worker chunks again runs
//    inline. parallel_for enforces this by checking in_parallel_region()
//    before dispatch; ThreadPool::run carries a Debug QS_DCHECK as a
//    regression guard for any future caller that bypasses parallel_for.
//    The model's forward exploits inline nesting — fanning out across a
//    step's spans (KV writes) serializes each span's inner loops, while a
//    single-span step still parallelizes inside the kernels.
//  - Exceptions thrown by the body (e.g. QS_CHECK) are captured and rethrown
//    on the calling thread after the region drains, so QS_CHECK keeps its
//    crash-over-corruption contract under parallel execution.
//
// Thread count resolution order (first match wins, clamped to >= 1):
//  1. set_num_threads(n) — programmatic override, resizes the pool.
//  2. QSERVE_NUM_THREADS environment variable, read once at pool creation.
//  3. std::thread::hardware_concurrency().
//
// Tensor-parallel sharding (run_sharded): the global thread budget T =
// num_threads() is partitioned into n_shards disjoint shard-local pools of
// max(1, T / n_shards) threads each. run_sharded(n, fn) executes fn(0..n-1)
// concurrently — shard 0 on the caller, shards 1..n-1 on persistent leader
// threads — and while a shard body runs, parallel_for on that thread (and
// num_threads()) resolve to the shard's private pool. The shard count is
// the caller's argument: a model's comes from its TpConfig
// (model/quantized_model.h), never from a process-wide default.
#pragma once

#include <cstdint>
#include <functional>

namespace qserve {

// Body of a parallel region: processes the half-open index range [lo, hi).
using ParallelRangeFn = std::function<void(int64_t lo, int64_t hi)>;

// Body of a sharded region: executes shard `shard` of [0, n_shards).
using ShardFn = std::function<void(int shard)>;

// Total threads participating in a region issued from this thread (pool
// workers + caller), >= 1. Inside a run_sharded shard body this is the
// shard-local pool's size, not the global budget.
int num_threads();

// Override the global thread count (resizes the pool). n <= 0 resets to the
// env/hardware default. Must not be called from inside a parallel region or
// a shard body.
void set_num_threads(int n);

// Partition [begin, end) into contiguous chunks of at least `grain` indices
// (the final chunk may be smaller) and invoke fn on each chunk, spread over
// the pool this thread resolves to. Every index is covered exactly once; fn
// must be safe to call concurrently on disjoint ranges. Empty ranges are a
// no-op. grain < 1 is treated as 1.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const ParallelRangeFn& fn);

// True while executing inside a parallel_for worker chunk (nested regions
// run inline). Exposed for tests and for code that must avoid re-entry.
bool in_parallel_region();

// Run fn(0), ..., fn(n_shards - 1) concurrently, one shard per thread: the
// caller runs shard 0, persistent leader threads run the rest. While a shard
// body executes, parallel_for/num_threads() on that thread resolve to the
// shard's private pool of max(1, num_threads() / n_shards) threads, so the
// shards compute on disjoint partitions of the global thread budget.
//
// Nesting follows the no-nesting rule above: a run_sharded issued from
// inside a parallel region or another shard body runs every shard inline on
// the caller, sequentially in shard order — it never deadlocks. n_shards == 1
// also runs inline (on the caller's normal pool, zero synchronization).
//
// If shard_seconds is non-null it must point at n_shards doubles; each
// shard's wall time is written there (imbalance telemetry). If any shard
// throws, the exception from the lowest-numbered throwing shard is rethrown
// after every shard has finished.
void run_sharded(int n_shards, const ShardFn& fn,
                 double* shard_seconds = nullptr);

// The shard index this thread is executing (-1 outside run_sharded).
int current_shard();

}  // namespace qserve
