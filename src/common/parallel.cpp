#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace qserve {
namespace {

thread_local bool tl_in_region = false;
thread_local int tl_shard = -1;  // shard index inside run_sharded, else -1

class ThreadPool;
// The pool parallel_for on this thread dispatches to; null means the global
// pool. Shard leader threads point this at their shard-local pool for the
// duration of the shard body.
thread_local ThreadPool* tl_pool = nullptr;

int default_thread_count() {
  if (const char* env = std::getenv("QSERVE_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// One in-flight region, owned by the caller's stack frame. Participants claim
// chunks with fetch_add on `next`; `entered`/`exited` (guarded by the pool
// mutex) let the caller wait until every participant has left before the
// frame is destroyed.
struct Region {
  const ParallelRangeFn* fn = nullptr;
  int64_t end = 0, grain = 1;
  std::atomic<int64_t> next{0};
  int entered = 0, exited = 0;  // pool workers only, guarded by pool mu_
  std::exception_ptr error;     // first exception, guarded by error_mu
  std::mutex error_mu;

  // Claim and run chunks until the range is exhausted.
  void work() {
    tl_in_region = true;
    for (;;) {
      const int64_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const int64_t hi = std::min(lo + grain, end);
      try {
        (*fn)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
    }
    tl_in_region = false;
  }
};

// Instantiable pool: the process-wide instance() resolves its size from
// set_num_threads / QSERVE_NUM_THREADS / hardware, while shard-local pools
// are constructed with a fixed size by the ShardGroup.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked: workers must
    return *pool;                                // outlive static dtors
  }

  ThreadPool() = default;
  explicit ThreadPool(int n) : override_(std::max(n, 1)) {}

  ~ThreadPool() { resize(0); }

  int threads() {
    std::lock_guard<std::mutex> lk(mu_);
    return threads_unlocked();
  }

  void resize(int n) {
    QS_CHECK_MSG(!tl_in_region,
                 "set_num_threads called inside a parallel region");
    // run_mu_ guarantees no region is in flight while workers are retired.
    std::lock_guard<std::mutex> serial(run_mu_);
    std::vector<std::thread> old;
    {
      std::lock_guard<std::mutex> lk(mu_);
      override_ = n > 0 ? n : 0;
      if (!workers_.empty()) {
        shutdown_ = true;
        ++epoch_;
        wake_.notify_all();
        old.swap(workers_);
      }
    }
    for (auto& t : old) t.join();
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = false;
    // Workers respawn lazily on the next run().
  }

  void run(int64_t begin, int64_t end, int64_t grain,
           const ParallelRangeFn& fn) {
    // No-nesting rule: parallel_for inlines nested regions before reaching
    // the pool; anything that lands here from inside a worker chunk is a
    // bug that would deadlock on run_mu_ below.
    QS_DCHECK_MSG(!tl_in_region,
                  "ThreadPool::run re-entered from inside a parallel region "
                  "(nested regions must run inline)");
    std::lock_guard<std::mutex> serial(run_mu_);
    Region region;
    region.fn = &fn;
    region.end = end;
    region.grain = grain;
    region.next.store(begin, std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lk(mu_);
      const int want = threads_unlocked() - 1;
      while (static_cast<int>(workers_.size()) < want)
        workers_.emplace_back([this] { worker_loop(); });
      current_ = &region;
      ++epoch_;
      wake_.notify_all();
    }

    region.work();  // the caller is a full participant

    // The caller's loop only returns once every chunk is claimed; wait for
    // workers still holding one, and bar late arrivals from entering.
    {
      std::unique_lock<std::mutex> lk(mu_);
      current_ = nullptr;
      done_.wait(lk, [&] { return region.entered == region.exited; });
    }
    if (region.error) std::rethrow_exception(region.error);
  }

 private:
  int threads_unlocked() {
    if (override_ > 0) return override_;
    if (default_ == 0) default_ = default_thread_count();
    return default_;
  }

  void worker_loop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] { return epoch_ != seen; });
      seen = epoch_;
      if (shutdown_) return;
      Region* region = current_;
      if (region == nullptr) continue;
      ++region->entered;
      lk.unlock();
      region->work();
      lk.lock();
      ++region->exited;
      done_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes whole regions (and pool resizing)
  std::mutex mu_;      // guards everything below
  std::condition_variable wake_, done_;
  std::vector<std::thread> workers_;
  Region* current_ = nullptr;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
  int override_ = 0;
  int default_ = 0;  // resolved lazily from env/hardware
};

// One sharded job in flight, owned by ShardGroup::run's stack frame.
struct ShardJob {
  const ShardFn* fn = nullptr;
  int n_shards = 0;
  std::exception_ptr* errors = nullptr;  // one slot per shard
  double* seconds = nullptr;             // one slot per shard
  int done = 0;                          // leader shards only, guarded by mu_
};

// Persistent leader threads + shard-local pools. Leaders sleep between jobs;
// shard-local pools are (re)sized to max(1, global_threads / n_shards) at
// the start of each run, so the shards always partition the current budget.
class ShardGroup {
 public:
  static ShardGroup& instance() {
    static ShardGroup* group = new ShardGroup();  // leaked, like the pool
    return *group;
  }

  void run(int n_shards, const ShardFn& fn, double* shard_seconds) {
    std::lock_guard<std::mutex> serial(run_mu_);
    const int total = ThreadPool::instance().threads();
    const int per_shard = std::max(1, total / n_shards);
    {
      std::lock_guard<std::mutex> lk(mu_);
      while (static_cast<int>(pools_.size()) < n_shards)
        pools_.emplace_back(std::make_unique<ThreadPool>(per_shard));
    }
    if (per_shard != pool_threads_) {
      // Safe outside mu_: run_mu_ means no shard body is using a pool.
      for (auto& p : pools_) p->resize(per_shard);
      pool_threads_ = per_shard;
    }

    std::vector<std::exception_ptr> errors(static_cast<size_t>(n_shards));
    std::vector<double> seconds(static_cast<size_t>(n_shards), 0.0);
    ShardJob job;
    job.fn = &fn;
    job.n_shards = n_shards;
    job.errors = errors.data();
    job.seconds = seconds.data();

    {
      std::lock_guard<std::mutex> lk(mu_);
      while (static_cast<int>(leaders_.size()) < n_shards - 1) {
        const int idx = static_cast<int>(leaders_.size());
        leaders_.emplace_back([this, idx] { leader_loop(idx); });
      }
      current_ = &job;
      ++epoch_;
      wake_.notify_all();
    }

    exec_shard(0, job);  // the caller is shard 0

    {
      std::unique_lock<std::mutex> lk(mu_);
      done_.wait(lk, [&] { return job.done == n_shards - 1; });
      current_ = nullptr;
    }
    if (shard_seconds != nullptr)
      std::copy(seconds.begin(), seconds.end(), shard_seconds);
    for (int s = 0; s < n_shards; ++s)  // deterministic: lowest shard first
      if (errors[static_cast<size_t>(s)])
        std::rethrow_exception(errors[static_cast<size_t>(s)]);
  }

 private:
  ShardGroup() = default;

  void exec_shard(int shard, ShardJob& job) {
    ThreadPool* prev_pool = tl_pool;
    const int prev_shard = tl_shard;
    tl_pool = pools_[static_cast<size_t>(shard)].get();
    tl_shard = shard;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (*job.fn)(shard);
    } catch (...) {
      job.errors[shard] = std::current_exception();
    }
    job.seconds[shard] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    tl_pool = prev_pool;
    tl_shard = prev_shard;
  }

  void leader_loop(int idx) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] { return epoch_ != seen; });
      seen = epoch_;
      ShardJob* job = current_;
      if (job == nullptr || idx + 1 >= job->n_shards) continue;
      lk.unlock();
      exec_shard(idx + 1, *job);
      lk.lock();
      ++job->done;
      done_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes whole sharded jobs
  std::mutex mu_;      // guards everything below
  std::condition_variable wake_, done_;
  std::vector<std::thread> leaders_;  // leaders_[i] runs shard i + 1
  std::vector<std::unique_ptr<ThreadPool>> pools_;  // pools_[s] = shard s
  ShardJob* current_ = nullptr;
  uint64_t epoch_ = 0;
  int pool_threads_ = 0;
};

}  // namespace

int num_threads() {
  ThreadPool* pool = tl_pool;
  return pool != nullptr ? pool->threads() : ThreadPool::instance().threads();
}

void set_num_threads(int n) {
  QS_CHECK_MSG(tl_shard < 0, "set_num_threads called inside run_sharded");
  ThreadPool::instance().resize(n);
}

bool in_parallel_region() { return tl_in_region; }

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const ParallelRangeFn& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  // Single chunk, single thread, or nested region: run inline. The nested
  // call must not clear tl_in_region on return; the others never set it.
  if (tl_in_region || end - begin <= grain || num_threads() == 1) {
    fn(begin, end);
    return;
  }
  ThreadPool* pool = tl_pool;
  (pool != nullptr ? *pool : ThreadPool::instance()).run(begin, end, grain, fn);
}

int current_shard() { return tl_shard; }

void run_sharded(int n_shards, const ShardFn& fn, double* shard_seconds) {
  QS_CHECK(n_shards >= 1);
  // Nested (or trivial) sharding runs inline, sequentially, in shard order:
  // the enclosing region/shard already owns this thread's pool, so handing
  // shards to leader threads would contend for it (see the no-nesting rule
  // in the header). Exceptions propagate from the lowest throwing shard
  // because execution is ordered.
  if (n_shards == 1 || tl_in_region || tl_shard >= 0) {
    const int prev_shard = tl_shard;
    for (int s = 0; s < n_shards; ++s) {
      tl_shard = s;  // shard bodies always see their own index
      const auto t0 = std::chrono::steady_clock::now();
      try {
        fn(s);
      } catch (...) {
        tl_shard = prev_shard;
        throw;
      }
      if (shard_seconds != nullptr)
        shard_seconds[s] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    }
    tl_shard = prev_shard;
    return;
  }
  ShardGroup::instance().run(n_shards, fn, shard_seconds);
}

}  // namespace qserve
