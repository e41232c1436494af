// Page-level output plumbing for trace recording. BinaryTraceSink
// (binary_trace.h) fills fixed-size in-memory pages of btrace records and
// hands each completed page to a TracePageSink. Two destinations write
// pages to a std::ostream — StreamPageSink as btrace bytes, JsonlPageSink
// rendered as dynvote-trace-v1 JSONL lines — and AsyncTraceSink is a
// decorator that queues completed pages to a dedicated writer thread so
// file I/O (and JSONL rendering) overlaps simulation. The queue is
// bounded: when the writer falls behind, the producer blocks
// (back-pressure) instead of buffering unbounded memory, and drained
// page buffers are recycled back to the producer so the steady state
// runs allocation-free (double buffering).
//
// Error contract, mirroring ThreadPool: a writer-thread exception is
// captured and rethrown at the next Flush(); a destructor that never saw
// that Flush() logs and drops it. Stream-level failures (ENOSPC) are not
// exceptions — they surface as sticky ok()/error() state the CLI checks
// after every traced run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "obs/binary_trace.h"
#include "util/thread_annotations.h"

namespace dynvote {

/// Destination for completed trace pages (opaque byte blocks).
/// Single-producer: WritePage/Flush are called from the one thread that
/// owns the serializing sink.
class TracePageSink {
 public:
  virtual ~TracePageSink() = default;

  /// Consumes *page's bytes and leaves *page empty — possibly swapping
  /// in a recycled buffer whose capacity the caller should reuse. May
  /// block (back-pressure). After a failure, pages are accepted and
  /// dropped so producers never wedge on a dead writer.
  virtual void WritePage(std::string* page) = 0;

  /// WritePage for a page that holds `events` trace events. They count
  /// toward events_written() only once the page has reached the
  /// destination: a page that failed, or still waits in a queue, is not
  /// credited.
  virtual void WriteEventPage(std::string* page, std::uint64_t events) {
    WritePage(page);
    if (ok()) events_written_ += events;
  }

  /// Events whose page reached the destination. Complete once Flush()
  /// returns; a value below the events offered, with ok() false, is how
  /// much of a failed trace landed.
  virtual std::uint64_t events_written() const { return events_written_; }

  /// Blocks until every accepted page reached the underlying stream,
  /// then flushes it. Rethrows a captured writer-thread exception, if
  /// any (the slot is cleared, like ThreadPool::Wait).
  virtual void Flush() = 0;

  /// False once any page failed to reach the destination.
  virtual bool ok() const = 0;

  /// First failure message ("" while ok()). By value: the async
  /// implementation reads it under its lock.
  virtual std::string error() const = 0;

 private:
  std::uint64_t events_written_ = 0;
};

/// Synchronous TracePageSink writing straight to a borrowed std::ostream.
class StreamPageSink final : public TracePageSink {
 public:
  explicit StreamPageSink(std::ostream* out) : out_(out) {}

  void WritePage(std::string* page) override;
  void Flush() override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ostream* out_;
  std::string error_;
  std::uint64_t bytes_written_ = 0;
};

/// Synchronous TracePageSink rendering btrace pages as dynvote-trace-v1
/// JSONL lines (no header) into a borrowed std::ostream. Each page must
/// hold whole records; the string table and the same-instant state carry
/// from one page to the next, so a run's pages — or per-replication
/// bodies fed in replication order — render exactly as `trace-convert`
/// renders the concatenated btrace file.
class JsonlPageSink final : public TracePageSink {
 public:
  explicit JsonlPageSink(std::ostream* out) : out_(out) {}

  void WritePage(std::string* page) override;
  void Flush() override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  std::ostream* out_;
  std::string error_;
  BinaryRecordDecoder decoder_;
  TraceEvent event_;   // decode target, reused
  std::string lines_;  // rendered lines awaiting the stream, reused
};

/// Decorator that moves another TracePageSink's writes onto a dedicated
/// writer thread. WritePage() enqueues the page (blocking while
/// `max_queued_pages` are already pending) and swaps a drained buffer
/// back to the producer; the writer thread forwards pages to the inner
/// sink in order, each with its event count, so events_written() is the
/// inner sink's credit for pages it actually wrote. Flush() drains the
/// queue, flushes the inner sink and rethrows any captured writer
/// exception. The destructor drains and joins; an uncollected exception
/// is logged and dropped.
class AsyncTraceSink final : public TracePageSink {
 public:
  explicit AsyncTraceSink(TracePageSink* inner,
                          std::size_t max_queued_pages = 4);
  ~AsyncTraceSink() override;

  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;

  void WritePage(std::string* page) override DYNVOTE_EXCLUDES(mutex_) {
    WriteEventPage(page, 0);
  }
  void WriteEventPage(std::string* page, std::uint64_t events) override
      DYNVOTE_EXCLUDES(mutex_);
  std::uint64_t events_written() const override DYNVOTE_EXCLUDES(mutex_);
  void Flush() override DYNVOTE_EXCLUDES(mutex_);
  bool ok() const override DYNVOTE_EXCLUDES(mutex_);
  std::string error() const override DYNVOTE_EXCLUDES(mutex_);

  /// Pages accepted over the sink's lifetime (including any dropped
  /// after a failure).
  std::uint64_t pages_accepted() const DYNVOTE_EXCLUDES(mutex_);

 private:
  /// A queued page and the number of trace events it holds.
  struct QueuedPage {
    std::string bytes;
    std::uint64_t events = 0;
  };

  void WriterLoop() DYNVOTE_EXCLUDES(mutex_);
  /// Hands one page to the inner sink and records the inner sink's
  /// outcome. Called by the one thread that owns inner_ at the time.
  void WriteInner(QueuedPage* page) DYNVOTE_EXCLUDES(mutex_);

  // Touched only by the writer thread, and by Flush() once the queue is
  // provably empty and the writer is idle — thread-confined, not
  // lock-guarded (proof: tier-1 TSan job runs the obs thread tests).
  // dynvote-lint: allow(guarded-by)
  TracePageSink* inner_;
  const std::size_t max_queued_pages_;

  mutable Mutex mutex_;
  CondVar page_ready_;    // signals the writer: work or shutdown
  CondVar page_drained_;  // signals producers: queue space / all done
  std::deque<QueuedPage> queue_ DYNVOTE_GUARDED_BY(mutex_);
  std::vector<std::string> recycled_ DYNVOTE_GUARDED_BY(mutex_);
  bool writer_busy_ DYNVOTE_GUARDED_BY(mutex_) = false;
  bool shutting_down_ DYNVOTE_GUARDED_BY(mutex_) = false;
  std::string error_ DYNVOTE_GUARDED_BY(mutex_);
  /// First exception the writer thread threw since the last Flush().
  std::exception_ptr writer_exception_ DYNVOTE_GUARDED_BY(mutex_);
  std::uint64_t pages_accepted_ DYNVOTE_GUARDED_BY(mutex_) = 0;
  /// inner_->events_written() as of the last page the inner sink took.
  std::uint64_t inner_events_written_ DYNVOTE_GUARDED_BY(mutex_) = 0;

  // Started last in the constructor, joined in the destructor, never
  // reassigned in between — confined to the owner thread, not
  // lock-guarded.
  // dynvote-lint: allow(guarded-by)
  std::thread writer_;
};

}  // namespace dynvote
