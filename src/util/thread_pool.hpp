#pragma once
// Minimal persistent thread pool for data-parallel frame work.
//
// The only primitive is parallel_for(n, fn): run fn(i) for every i in
// [0, n) across the workers plus the calling thread, and return when all
// are done. Indices are claimed from a shared atomic counter, so the
// *assignment* of indices to threads is nondeterministic — callers get
// deterministic results by making fn(i) a pure function of the inputs that
// writes only to slot i (see WatchmenSession::run_frames, whose per-player
// set computation is exactly that shape; tests/determinism_test.cpp pins
// down bit-identical session results for pool sizes 1, 2 and 8).
//
// A pool of size 1 never spawns a thread and runs everything inline, so
// sequential behaviour is the true zero-overhead baseline.
//
// Locking discipline (checked by clang -Wthread-safety, DESIGN.md §5g):
// mu_ guards the job descriptor and the lifecycle flags; next_ is the only
// lock-free hand-off (a claim ticket, not shared data). Waits are explicit
// while-loops rather than predicate lambdas so the analysis can see the
// guarded reads happen under the CvLock.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace watchmen::util {

class ThreadPool {
 public:
  /// `threads` = total worker count including the caller; 0 picks
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    size_ = threads;
    // The calling thread participates in parallel_for, so spawn one fewer.
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  std::size_t size() const { return size_; }

  /// Runs fn(i) for all i in [0, n); blocks until every call returned.
  /// fn must be safe to invoke concurrently from different threads.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) EXCLUDES(mu_) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      MutexLock lock(mu_);
      job_fn_ = &fn;
      job_n_ = n;
      next_.store(0, std::memory_order_relaxed);
      pending_ = n;
      ++generation_;
    }
    wake_.notify_all();
    drain();  // caller works too
    CvLock lock(mu_);
    while (pending_ != 0 || active_ != 0) done_.wait(lock);
    job_fn_ = nullptr;
  }

 private:
  void drain() EXCLUDES(mu_) {
    // Claim indices until the job is exhausted. parallel_for returns (and
    // invalidates fn) only once no drain holds the job: a worker that took
    // fn just as the last index finished must not outlive the job, or its
    // next claim would land on the following job's counter and run this
    // job's dead fn.
    const std::function<void(std::size_t)>* fn;
    std::size_t n;
    {
      MutexLock lock(mu_);
      fn = job_fn_;
      n = job_n_;
      if (fn == nullptr) return;
      ++active_;
    }
    std::size_t finished = 0;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
      ++finished;
    }
    MutexLock lock(mu_);
    pending_ -= finished;
    --active_;
    if (pending_ == 0 && active_ == 0) done_.notify_all();
  }

  void worker_loop() EXCLUDES(mu_) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        CvLock lock(mu_);
        while (!stop_ && generation_ == seen) wake_.wait(lock);
        if (stop_) return;
        seen = generation_;
      }
      drain();
    }
  }

  std::vector<std::thread> workers_;
  std::size_t size_ = 1;
  Mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_fn_ GUARDED_BY(mu_) = nullptr;
  std::size_t job_n_ GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> next_{0};  ///< lock-free index claim ticket
  std::size_t pending_ GUARDED_BY(mu_) = 0;
  std::size_t active_ GUARDED_BY(mu_) = 0;  ///< drains holding job_fn_
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace watchmen::util
