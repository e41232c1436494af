#include "obs/async_writer.h"

#include <ostream>
#include <utility>

#include "util/logging.h"

namespace dynvote {

void StreamPageSink::WritePage(std::string* page) {
  if (error_.empty()) {
    out_->write(page->data(), static_cast<std::streamsize>(page->size()));
    if (out_->good()) {
      bytes_written_ += page->size();
    } else {
      error_ = "trace page write failed (disk full or unwritable path?)";
    }
  }
  page->clear();  // capacity retained for the producer to refill
}

void StreamPageSink::Flush() {
  if (!error_.empty()) return;
  out_->flush();
  if (!out_->good()) {
    error_ = "trace stream flush failed (disk full or unwritable path?)";
  }
}

void JsonlPageSink::WritePage(std::string* page) {
  // Render through a bounded buffer, so a page — or a whole replication
  // body — never exists as JSONL in memory all at once.
  constexpr std::size_t kDrainBytes = 64 * 1024;
  std::string_view records = *page;
  while (error_.empty()) {
    auto more = decoder_.NextEvent(&records, &event_);
    if (!more.ok()) {
      error_ = "trace page decode failed: " + more.status().ToString();
      break;
    }
    if (*more) {
      AppendTraceEventJson(event_, &lines_);
      lines_.push_back('\n');
      if (lines_.size() < kDrainBytes) continue;
    }
    out_->write(lines_.data(), static_cast<std::streamsize>(lines_.size()));
    lines_.clear();
    if (!out_->good()) {
      error_ = "trace page write failed (disk full or unwritable path?)";
    }
    if (!*more) break;
  }
  lines_.clear();
  page->clear();  // capacity retained for the producer to refill
}

void JsonlPageSink::Flush() {
  if (!error_.empty()) return;
  out_->flush();
  if (!out_->good()) {
    error_ = "trace stream flush failed (disk full or unwritable path?)";
  }
}

AsyncTraceSink::AsyncTraceSink(TracePageSink* inner,
                               std::size_t max_queued_pages)
    : inner_(inner),
      max_queued_pages_(max_queued_pages == 0 ? 1 : max_queued_pages) {
  writer_ = std::thread([this] { WriterLoop(); });
}

AsyncTraceSink::~AsyncTraceSink() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  page_ready_.NotifyAll();
  writer_.join();  // the writer drains the queue before exiting
  std::exception_ptr uncollected;
  {
    MutexLock lock(mutex_);
    uncollected = std::exchange(writer_exception_, nullptr);
  }
  if (uncollected) {
    DYNVOTE_LOG(Warning)
        << "AsyncTraceSink destroyed with an uncollected writer "
           "exception; call Flush() to observe writer failures";
  }
}

void AsyncTraceSink::WriteEventPage(std::string* page, std::uint64_t events) {
  std::string recycled;
  {
    MutexLock lock(mutex_);
    ++pages_accepted_;
    // Back-pressure: never queue more than max_queued_pages_ — but once
    // the writer has failed there is nothing left to wait for, so drop
    // instead of blocking on a queue that may never drain.
    while (queue_.size() >= max_queued_pages_ && error_.empty() &&
           writer_exception_ == nullptr) {
      page_drained_.Wait(mutex_);
    }
    if (error_.empty() && writer_exception_ == nullptr) {
      if (!recycled_.empty()) {
        recycled = std::move(recycled_.back());
        recycled_.pop_back();
      }
      queue_.push_back(QueuedPage{std::move(*page), events});
    }
  }
  page_ready_.NotifyOne();
  // Hand a drained buffer (with its capacity) back to the producer.
  recycled.clear();
  *page = std::move(recycled);
}

std::uint64_t AsyncTraceSink::events_written() const {
  MutexLock lock(mutex_);
  return inner_events_written_;
}

void AsyncTraceSink::WriteInner(QueuedPage* page) {
  inner_->WriteEventPage(&page->bytes, page->events);
  // Read the sink's state before taking the lock: no virtual dispatch
  // inside the critical section (lock-hygiene).
  const std::uint64_t written = inner_->events_written();
  std::string err = inner_->ok() ? std::string() : inner_->error();
  MutexLock lock(mutex_);
  inner_events_written_ = written;
  if (error_.empty()) error_ = std::move(err);
}

void AsyncTraceSink::Flush() {
  std::exception_ptr pending;
  std::deque<QueuedPage> stolen;
  {
    MutexLock lock(mutex_);
    // Idle-writer fast path: steal the queued pages and write them
    // inline below instead of paying a wake-and-wait round trip. The
    // writer only touches inner_ while writer_busy_, and with the queue
    // emptied it stays parked, so the producer owns inner_ here.
    if (!writer_busy_ && writer_exception_ == nullptr && error_.empty()) {
      stolen.swap(queue_);
    }
    while (!queue_.empty() || writer_busy_) {
      page_drained_.Wait(mutex_);
    }
    pending = std::exchange(writer_exception_, nullptr);
  }
  if (pending) std::rethrow_exception(pending);
  // The queue is empty, the writer is idle, and the producer (our
  // caller) is here — nobody else can touch inner_ right now.
  for (QueuedPage& page : stolen) WriteInner(&page);
  inner_->Flush();
  if (!inner_->ok()) {
    // Read the sink's error before taking the lock: no virtual
    // dispatch inside the critical section (lock-hygiene).
    std::string err = inner_->error();
    MutexLock lock(mutex_);
    if (error_.empty()) error_ = std::move(err);
  }
  if (!stolen.empty()) {
    MutexLock lock(mutex_);
    while (!stolen.empty() && recycled_.size() < max_queued_pages_) {
      stolen.back().bytes.clear();
      recycled_.push_back(std::move(stolen.back().bytes));
      stolen.pop_back();
    }
  }
}

bool AsyncTraceSink::ok() const {
  MutexLock lock(mutex_);
  return error_.empty();
}

std::string AsyncTraceSink::error() const {
  MutexLock lock(mutex_);
  return error_;
}

std::uint64_t AsyncTraceSink::pages_accepted() const {
  MutexLock lock(mutex_);
  return pages_accepted_;
}

void AsyncTraceSink::WriterLoop() {
  QueuedPage page;
  for (;;) {
    {
      MutexLock lock(mutex_);
      writer_busy_ = false;
      page_drained_.NotifyAll();
      while (queue_.empty() && !shutting_down_) {
        page_ready_.Wait(mutex_);
      }
      if (queue_.empty()) return;  // shutting down and fully drained
      page = std::move(queue_.front());
      queue_.pop_front();
      writer_busy_ = true;
    }
    try {
      WriteInner(&page);
    } catch (...) {
      MutexLock lock(mutex_);
      if (writer_exception_ == nullptr) {
        writer_exception_ = std::current_exception();
      }
    }
    {
      MutexLock lock(mutex_);
      // Keep a bounded pool of drained buffers for producer reuse.
      if (recycled_.size() < max_queued_pages_) {
        page.bytes.clear();
        recycled_.push_back(std::move(page.bytes));
      }
    }
    page = QueuedPage();
  }
}

}  // namespace dynvote
