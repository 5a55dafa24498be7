#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace prc::parallel {
namespace {

thread_local bool t_in_parallel_region = false;

std::size_t initial_thread_count() {
  // PRC_THREADS seeds the default for processes that never call
  // set_thread_count(); 0 means "hardware".  Anything unparsable falls back
  // to the serial default so a stray variable cannot change results.
  if (const char* env = std::getenv("PRC_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      return parsed == 0 ? hardware_threads()
                         : static_cast<std::size_t>(parsed);
    }
  }
  return 1;
}

std::atomic<std::size_t>& configured_threads() {
  static std::atomic<std::size_t> count{initial_thread_count()};
  return count;
}

/// One in-flight parallel_for: a fixed block count claimed via an atomic
/// cursor (contiguous blocks, no per-item stealing — cache-friendly and
/// cheap) and a completion count the caller waits on.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t items = 0;
  std::size_t blocks = 0;
  // Block cursors: monotonic seq_cst counters; the caller's final read
  // of `completed` happens inside the done_cv_ predicate under the pool
  // mutex, so no cross-thread decision rests on a relaxed load.
  std::atomic<std::size_t> next{0};       // lint:allow atomic
  std::atomic<std::size_t> completed{0};  // lint:allow atomic
  std::mutex error_mutex;
  std::exception_ptr error PRC_GUARDED_BY(error_mutex);

  void run_block(std::size_t block) noexcept {
    const std::size_t begin = block * items / blocks;
    const std::size_t end = (block + 1) * items / blocks;
    if (begin < end) {
      try {
        (*body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }
};

/// Fixed pool of (size - 1) workers; the caller of run() is the size-th
/// lane.  One job runs at a time; concurrent callers from threads outside
/// the pool serialize on run_mutex_ (nested calls from inside a region
/// never reach the pool — parallel_for inlines them).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t size) {
    workers_.reserve(size > 0 ? size - 1 : 0);
    for (std::size_t i = 0; i + 1 < size; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  std::size_t size() const noexcept { return workers_.size() + 1; }

  void run(Job& job) {
    std::lock_guard<std::mutex> serialize(run_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    // The caller is a full participant: claim blocks until the cursor runs
    // dry, then wait for the stragglers.
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t block = job.next.fetch_add(1);
      if (block >= job.blocks) break;
      job.run_block(block);
      job.completed.fetch_add(1);
    }
    t_in_parallel_region = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Retract the job before waiting so no further worker can enter it,
      // then wait for every worker that DID enter to step back out.  Waiting
      // on completed alone is not enough: a worker that loaded job_ but has
      // not yet touched the cursor would race our caller destroying the
      // stack-allocated Job.
      job_ = nullptr;
      // Explicit wait loop (not a predicate lambda): thread-safety
      // analysis cannot carry the held capability into a lambda body.
      while (job.completed.load() != job.blocks || workers_in_job_ != 0) {
        done_cv_.wait(lock);
      }
    }
  }

 private:
  void worker_loop() {
    t_in_parallel_region = true;
    std::uint64_t seen_generation = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        // Explicit wait loop: see run() above.
        while (!stop_ && (job_ == nullptr || generation_ == seen_generation)) {
          wake_cv_.wait(lock);
        }
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
        ++workers_in_job_;
      }
      for (;;) {
        const std::size_t block = job->next.fetch_add(1);
        if (block >= job->blocks) break;
        job->run_block(block);
        job->completed.fetch_add(1);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --workers_in_job_;
      }
      // The caller waits for completed == blocks AND workers_in_job_ == 0;
      // our exit may satisfy either half, so always notify.
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  // Serializes whole run() submissions (one job in flight at a time);
  // guards no data — the job handoff itself happens under mutex_.
  std::mutex run_mutex_;  // lint:allow atomic
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  Job* job_ PRC_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ PRC_GUARDED_BY(mutex_) = 0;
  std::size_t workers_in_job_ PRC_GUARDED_BY(mutex_) = 0;
  bool stop_ PRC_GUARDED_BY(mutex_) = false;
};

std::mutex& pool_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// The shared pool, rebuilt when the configured size changed since the
/// last parallel call.  Guarded by pool_mutex(); the unique_ptr is static
/// so workers join cleanly at process exit.
ThreadPool& shared_pool() {
  static std::unique_ptr<ThreadPool> pool;
  const std::size_t want = thread_count();
  if (!pool || pool->size() != want) {
    pool = std::make_unique<ThreadPool>(want);
  }
  return *pool;
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t thread_count() noexcept {
  const std::size_t count = configured_threads().load(std::memory_order_relaxed);
  return count == 0 ? 1 : count;
}

void set_thread_count(std::size_t count) {
  configured_threads().store(count == 0 ? hardware_threads() : count,
                             std::memory_order_relaxed);
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  PRC_CHECK(body != nullptr) << "parallel_for: null body";
  if (n == 0) return;
  const std::size_t threads = thread_count();
  if (threads == 1 || n == 1 || t_in_parallel_region) {
    body(0, n);
    return;
  }
  Job job;
  job.body = &body;
  job.items = n;
  // A few blocks per lane evens out skew without per-item dispatch cost;
  // never more blocks than items.
  constexpr std::size_t kBlocksPerThread = 4;
  job.blocks = std::min(n, threads * kBlocksPerThread);
  std::lock_guard<std::mutex> lock(pool_mutex());
  shared_pool().run(job);
  // Workers are all out of the job once run() returns, but the compiler
  // cannot see that: read the slot under its own mutex.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> error_lock(job.error_mutex);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace prc::parallel
