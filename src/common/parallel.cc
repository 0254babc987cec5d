#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace metaai::par {
namespace {

thread_local bool t_in_parallel_region = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreads() {
  static const int cached = [] {
    const char* env = std::getenv("METAAI_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    const int value = std::atoi(env);
    return value > 0 ? std::min(value, kMaxThreads) : 0;
  }();
  return cached;
}

std::atomic<int> g_thread_count_override{0};

// One fan-out: `fn` applied to [0, n) split into `chunks` contiguous
// ranges. Chunk 0 runs on the calling thread; chunks 1.. are posted to
// the pool. The first exception of each chunk is kept so the caller can
// rethrow the lowest-numbered one deterministically.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunks = 0;
  std::vector<std::exception_ptr> errors;
  std::size_t remaining = 0;  // chunks not yet finished; guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

void RunChunk(Job& job, std::size_t chunk) {
  const std::size_t begin = chunk * job.n / job.chunks;
  const std::size_t end = (chunk + 1) * job.n / job.chunks;
  const bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  try {
    for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
  } catch (...) {
    job.errors[chunk] = std::current_exception();
  }
  t_in_parallel_region = was_in_region;
}

/// Lazily-created process-wide pool. The worker count grows on demand up
/// to kMaxThreads and is never shrunk; workers idle on a condition
/// variable between jobs.
class Pool {
 public:
  static Pool& Instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void Run(Job& job) {
    EnsureWorkers(job.chunks - 1);
    job.remaining = job.chunks;  // published to workers by the queue lock
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t c = 1; c < job.chunks; ++c) {
        queue_.push_back({&job, c});
      }
    }
    work_cv_.notify_all();
    RunChunk(job, 0);
    Finish(job);
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&] { return job.remaining == 0; });
  }

 private:
  struct Task {
    Job* job;
    std::size_t chunk;
  };

  void EnsureWorkers(std::size_t needed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t target =
        std::min<std::size_t>(needed, static_cast<std::size_t>(kMaxThreads));
    while (workers_.size() < target) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      Task task{};
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left to drain
        task = queue_.front();
        queue_.pop_front();
      }
      RunChunk(*task.job, task.chunk);
      Finish(*task.job);
    }
  }

  // The decrement happens under done_mutex: the waiter in Run may return
  // (and destroy the stack-allocated Job) as soon as it sees zero, so no
  // worker may touch the Job after the final decrement unless it holds
  // the mutex the waiter must reacquire first.
  static void Finish(Job& job) {
    const std::lock_guard<std::mutex> lock(job.done_mutex);
    if (--job.remaining == 0) job.done_cv.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace

int DefaultThreadCount() {
  const int override = g_thread_count_override.load(std::memory_order_relaxed);
  if (override > 0) return std::min(override, kMaxThreads);
  if (const int env = EnvThreads(); env > 0) return env;
  return HardwareThreads();
}

int SetDefaultThreadCount(int n) {
  Check(n <= kMaxThreads, "thread count exceeds par::kMaxThreads");
  return g_thread_count_override.exchange(n > 0 ? n : 0,
                                          std::memory_order_relaxed);
}

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int num_threads) {
  if (n == 0) return;
  const int resolved =
      num_threads > 0 ? std::min(num_threads, kMaxThreads)
                      : DefaultThreadCount();
  const std::size_t chunks =
      std::min<std::size_t>(static_cast<std::size_t>(resolved), n);
  // Serial path: thread count 1 (exact legacy execution) and nested use
  // (re-entering the fixed-size pool from a worker could deadlock).
  if (chunks <= 1 || InParallelRegion()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  job.chunks = chunks;
  job.errors.resize(chunks);
  Pool::Instance().Run(job);
  for (const std::exception_ptr& error : job.errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::vector<Rng> ForkRngs(Rng& base, std::size_t n) {
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(base.Fork());
  return rngs;
}

}  // namespace metaai::par
