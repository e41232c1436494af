// A fixed-size worker pool for embarrassingly parallel simulation work
// (independent replications, parameter sweeps). Deliberately minimal: no
// futures, no work stealing, no task priorities — callers submit plain
// closures and Wait() for the queue to drain. Determinism is the callers'
// responsibility and is achieved by writing results into pre-assigned
// slots, never by relying on completion order.

#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace dynvote {

/// The most worker threads any input (a --jobs flag, a network file's
/// `experiment jobs=`) may ask for. Larger values are rejected where they
/// are read: past a few thousand threads std::thread's constructor throws
/// and the process terminates, and no run here gains past the core count.
inline constexpr int kMaxWorkerThreads = 1024;

/// OK iff `jobs` is a worker count an input may ask for: 0 (one per
/// hardware thread) through kMaxWorkerThreads.
Status ValidateWorkerCount(int jobs);

/// A fixed set of worker threads consuming a FIFO task queue.
///
/// Threading: Submit() and Wait() may be called from any thread, though
/// the intended pattern is one coordinator thread submitting and waiting.
/// A task may Submit() further tasks. If a task throws, the first
/// exception (in completion order) is captured and rethrown from the
/// next Wait(); the remaining tasks still run to completion.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Equivalent to Shutdown(); a pending captured exception that no
  /// Wait() collected is dropped with a warning.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (the queue is unbounded). It is a
  /// fatal error to Submit() after Shutdown().
  void Submit(std::function<void()> task) DYNVOTE_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished running, then
  /// rethrows the first exception any task threw since the last Wait()
  /// (if any). The pool stays usable after a rethrow: the exception slot
  /// is cleared and further Submit()/Wait() cycles behave normally.
  void Wait() DYNVOTE_EXCLUDES(mutex_);

  /// Drains the queue, joins all workers, and marks the pool shut down.
  /// Idempotent: calling Shutdown() again (or destroying the pool after
  /// an explicit Shutdown()) is a no-op. Never throws — an uncollected
  /// task exception is logged and dropped.
  void Shutdown() DYNVOTE_EXCLUDES(mutex_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The hardware concurrency, with a floor of 1 (the standard permits
  /// hardware_concurrency() == 0 when unknown).
  static int DefaultThreads();

 private:
  void WorkerLoop() DYNVOTE_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ DYNVOTE_GUARDED_BY(mutex_);
  std::size_t in_flight_ DYNVOTE_GUARDED_BY(mutex_) = 0;  // queued + running
  bool shutting_down_ DYNVOTE_GUARDED_BY(mutex_) = false;
  /// First exception thrown by a task since the last Wait(); later ones
  /// are dropped (their tasks still complete).
  std::exception_ptr first_exception_ DYNVOTE_GUARDED_BY(mutex_);
  /// Written by the constructor, joined+cleared by Shutdown(); otherwise
  /// read-only, so it needs no guard (coordinator-confined).
  // dynvote-lint: allow(guarded-by)
  std::vector<std::thread> workers_;
};

/// Runs body(begin, end) over contiguous ranges that cover [0, n): the
/// whole range inline on the caller's thread without a pool or for
/// n == 1, otherwise up to four near-equal chunks per worker, joined
/// before returning.
/// Bodies must be independent and write only their own pre-assigned
/// slots, so results never depend on completion order or chunking. A
/// body's exception is rethrown here (ThreadPool::Wait).
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace dynvote
