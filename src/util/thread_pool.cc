#include "util/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace dynvote {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  DYNVOTE_CHECK_MSG(task != nullptr, "null task submitted to ThreadPool");
  {
    MutexLock lock(mutex_);
    DYNVOTE_CHECK_MSG(!shutting_down_, "Submit on a shut-down ThreadPool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr pending;
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) all_done_.Wait(mutex_);
    pending = std::exchange(first_exception_, nullptr);
  }
  if (pending) std::rethrow_exception(pending);
}

void ThreadPool::Shutdown() {
  bool uncollected = false;
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) all_done_.Wait(mutex_);
    if (shutting_down_) return;  // second Shutdown(): workers already joined
    shutting_down_ = true;
    if (first_exception_ != nullptr) {
      uncollected = true;
      first_exception_ = nullptr;
    }
  }
  work_available_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // Log after the critical section (and the joins): stream logging
  // under a lock serializes every producer behind the I/O
  // (lock-hygiene).
  if (uncollected) {
    DYNVOTE_LOG(Warning)
        << "ThreadPool shut down with an uncollected task exception";
  }
}

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Status ValidateWorkerCount(int jobs) {
  if (jobs >= 0 && jobs <= kMaxWorkerThreads) return Status::OK();
  std::string message = "jobs must be in [0, ";
  message += std::to_string(kMaxWorkerThreads);
  message += "] (0 = all cores)";
  return Status::InvalidArgument(message);
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    body(0, n);
    return;
  }
  // A few chunks per worker so one slow chunk does not leave the rest of
  // the pool idle at the join; sizes differ by at most one item, so no
  // chunk is twice another.
  const std::size_t chunks =
      std::min(n, static_cast<std::size_t>(pool->num_threads()) * 4);
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::size_t begin = n * k / chunks;
    const std::size_t end = n * (k + 1) / chunks;
    pool->Submit([&body, begin, end] { body(begin, end); });
  }
  pool->Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      MutexLock lock(mutex_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace dynvote
