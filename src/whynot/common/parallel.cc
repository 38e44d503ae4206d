#include "whynot/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace whynot::par {

namespace {

/// Set for the lifetime of a pool worker thread (and for the caller while
/// it drains blocks); nested parallel calls on such a thread run inline
/// instead of re-entering the pool.
thread_local bool t_in_worker = false;

/// The one clamp both the environment and SetNumThreads go through.
int ClampThreads(int n) { return std::clamp(n, 1, 256); }

/// Workers spawned beyond the caller; a job is one ParallelFor invocation.
/// All job bookkeeping is mutex-protected (the blocks themselves run
/// outside the lock): block grains are coarse by construction, so lock
/// traffic is a handful of acquisitions per block, and the mutex gives the
/// release/acquire ordering TSAN and the deterministic-merge callers rely
/// on (worker writes to result slots happen-before the caller's reduce).
class ThreadPool {
 public:
  static ThreadPool& Get() {
    static ThreadPool* pool = new ThreadPool();  // leaked: outlives statics
    return *pool;
  }

  int num_threads() {
    // Hot path: the settled value is one relaxed atomic load.
    int n = published_threads_.load(std::memory_order_relaxed);
    if (n > 0) return n;
    std::lock_guard<std::mutex> lock(config_mutex_);
    EnsureConfiguredLocked();
    return num_threads_;
  }

  void set_num_threads(int n) {
    std::lock_guard<std::mutex> lock(config_mutex_);
    if (n <= 0) {
      configured_ = false;  // re-read env / hardware on next use
      published_threads_.store(0, std::memory_order_relaxed);
      StopWorkersLocked();
      return;
    }
    n = ClampThreads(n);
    configured_ = true;
    published_threads_.store(n, std::memory_order_relaxed);
    if (n == num_threads_) return;
    StopWorkersLocked();
    num_threads_ = n;
  }

  void Run(size_t nblocks, const std::function<void(size_t block)>& fn) {
    // One job at a time: the job state below is single-slot. Concurrent
    // top-level callers (two application threads each running a search)
    // serialize here — correct, just not overlapped.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
      std::lock_guard<std::mutex> lock(config_mutex_);
      EnsureConfiguredLocked();
      // Workers are spawned on first real use, not at configuration time.
      while (static_cast<int>(workers_.size()) < num_threads_ - 1) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    std::unique_lock<std::mutex> job_lock(job_mutex_);
    job_fn_ = &fn;
    job_next_ = 0;
    job_done_ = 0;
    job_blocks_ = nblocks;
    ++job_epoch_;
    job_cv_.notify_all();
    job_lock.unlock();

    // The caller participates. It counts as inside the region while
    // draining blocks, so a nested ParallelFor from a block body runs
    // inline instead of re-entering the single-job state.
    t_in_worker = true;
    RunBlocks();
    t_in_worker = false;

    job_lock.lock();
    done_cv_.wait(job_lock, [this] { return job_done_ == job_blocks_; });
    job_fn_ = nullptr;
  }

 private:
  ThreadPool() = default;

  void EnsureConfiguredLocked() {
    if (configured_) return;
    int n = 0;
    if (const char* env = std::getenv("WHYNOT_THREADS")) {
      n = std::atoi(env);
    }
    if (n <= 0) {
      n = static_cast<int>(std::thread::hardware_concurrency());
    }
    num_threads_ = ClampThreads(n);
    configured_ = true;
    published_threads_.store(num_threads_, std::memory_order_relaxed);
  }

  void StopWorkersLocked() {
    if (workers_.empty()) return;
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      shutdown_epoch_ = job_epoch_ + 1;
      ++job_epoch_;
      job_cv_.notify_all();
    }
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      shutdown_epoch_ = 0;
    }
  }

  void RunBlocks() {
    while (true) {
      size_t block;
      {
        std::lock_guard<std::mutex> lock(job_mutex_);
        if (job_fn_ == nullptr || job_next_ >= job_blocks_) return;
        block = job_next_++;
      }
      (*job_fn_)(block);
      {
        std::lock_guard<std::mutex> lock(job_mutex_);
        if (++job_done_ == job_blocks_) done_cv_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    t_in_worker = true;
    uint64_t seen_epoch = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(job_mutex_);
        job_cv_.wait(lock, [&] { return job_epoch_ != seen_epoch; });
        seen_epoch = job_epoch_;
        if (seen_epoch == shutdown_epoch_) return;
      }
      RunBlocks();
    }
  }

  std::mutex run_mutex_;  // serializes top-level Run calls
  std::mutex config_mutex_;
  bool configured_ = false;
  int num_threads_ = 1;
  std::atomic<int> published_threads_{0};  // 0 until configured
  std::vector<std::thread> workers_;

  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* job_fn_ = nullptr;
  size_t job_next_ = 0;
  size_t job_done_ = 0;
  size_t job_blocks_ = 0;
  uint64_t job_epoch_ = 0;
  uint64_t shutdown_epoch_ = 0;
};

}  // namespace

int NumThreads() { return ThreadPool::Get().num_threads(); }

void SetNumThreads(int n) { ThreadPool::Get().set_num_threads(n); }

void ParallelFor(size_t n, size_t grain, const std::atomic<bool>* stop,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
  if (grain == 0) grain = 1;
  int threads = NumThreads();
  if (threads <= 1 || n <= grain || t_in_worker) {
    fn(0, n);
    return;
  }
  // At least `grain` indices per block, at most 4 blocks per thread (keeps
  // dynamic stealing useful on skewed workloads without flooding the job
  // queue with tiny blocks).
  size_t max_blocks = static_cast<size_t>(threads) * 4;
  size_t nblocks = std::min(max_blocks, (n + grain - 1) / grain);
  size_t block_size = (n + nblocks - 1) / nblocks;
  nblocks = (n + block_size - 1) / block_size;
  if (nblocks <= 1) {
    fn(0, n);
    return;
  }
  ThreadPool::Get().Run(nblocks, [&](size_t block) {
    // Cooperative stop: blocks dispatched after the flag rises are
    // skipped; already-running blocks finish (their output is discarded
    // by the caller on the abandon path).
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    size_t begin = block * block_size;
    fn(begin, std::min(n, begin + block_size));
  });
}

}  // namespace whynot::par
