// AsyncTraceSink: pages reach the inner sink in order, back-pressure
// bounds the queue without deadlock, stream failures surface as sticky
// error state, writer-thread exceptions rethrow at Flush(), and the
// destructor drains cleanly. Thread interactions are exercised under
// TSan by the thread-sanitize CI job (AsyncTraceSink* filter).

#include "obs/async_writer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dynvote {
namespace {

std::string Page(const std::string& contents) { return contents; }

/// Records every page it receives; optionally dawdles to force the
/// producer into the back-pressure wait.
class RecordingPageSink : public TracePageSink {
 public:
  explicit RecordingPageSink(std::chrono::milliseconds delay =
                                 std::chrono::milliseconds(0))
      : delay_(delay) {}

  void WritePage(std::string* page) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    pages_.push_back(*page);
    page->clear();
  }
  void Flush() override { ++flushes_; }
  bool ok() const override { return true; }
  std::string error() const override { return ""; }

  // Safe to read after AsyncTraceSink::Flush(): the drain wait under the
  // sink's mutex orders the writer thread's stores before these loads.
  const std::vector<std::string>& pages() const { return pages_; }
  int flushes() const { return flushes_; }

 private:
  std::chrono::milliseconds delay_;
  std::vector<std::string> pages_;
  int flushes_ = 0;
};

/// Writes `capacity` pages, then fails every later one (a disk filling
/// up between pages).
class FillingPageSink : public TracePageSink {
 public:
  explicit FillingPageSink(int capacity) : capacity_(capacity) {}

  void WritePage(std::string* page) override {
    if (written_ < capacity_) {
      ++written_;
    } else {
      error_ = "disk full";
    }
    page->clear();
  }
  void Flush() override {}
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  int capacity_;
  int written_ = 0;
  std::string error_;
};

class ThrowingPageSink : public TracePageSink {
 public:
  void WritePage(std::string* page) override {
    page->clear();
    throw std::runtime_error("writer boom");
  }
  void Flush() override {}
  bool ok() const override { return true; }
  std::string error() const override { return ""; }
};

TEST(AsyncTraceSinkTest, DeliversPagesInOrder) {
  RecordingPageSink inner;
  AsyncTraceSink sink(&inner);
  for (int i = 0; i < 50; ++i) {
    std::string page = Page("page-" + std::to_string(i));
    sink.WritePage(&page);
    EXPECT_TRUE(page.empty());  // consumed (or recycled-empty) buffer back
  }
  sink.Flush();
  ASSERT_EQ(inner.pages().size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(inner.pages()[i], "page-" + std::to_string(i));
  }
  EXPECT_EQ(inner.flushes(), 1);
  EXPECT_EQ(sink.pages_accepted(), 50u);
  EXPECT_TRUE(sink.ok());
}

TEST(AsyncTraceSinkTest, BackPressureBlocksInsteadOfBuffering) {
  // A slow writer with a 2-page bound: the producer must finish all
  // pages (no drops) without the queue absorbing them all at once. The
  // assertion is completion + order; TSan checks the synchronization.
  RecordingPageSink inner(std::chrono::milliseconds(2));
  AsyncTraceSink sink(&inner, /*max_queued_pages=*/2);
  for (int i = 0; i < 20; ++i) {
    std::string page = Page(std::to_string(i));
    sink.WritePage(&page);
  }
  sink.Flush();
  ASSERT_EQ(inner.pages().size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(inner.pages()[i], std::to_string(i));
  }
}

TEST(AsyncTraceSinkTest, StreamFailureSurfacesAndDropsWithoutWedging) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  StreamPageSink inner(&out);
  AsyncTraceSink sink(&inner, /*max_queued_pages=*/2);
  // Far more pages than the queue bound: after the failure registers the
  // producer must drop rather than block on a queue that never drains.
  for (int i = 0; i < 100; ++i) {
    std::string page = Page("x");
    sink.WritePage(&page);
  }
  sink.Flush();
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.error().empty());
  EXPECT_EQ(sink.pages_accepted(), 100u);
}

TEST(AsyncTraceSinkTest, CreditsEventsOnlyForPagesTheInnerSinkWrote) {
  // Queueing a page is not writing it: the event count follows each page
  // to the inner sink, which credits it only if the page landed.
  FillingPageSink inner(/*capacity=*/2);
  AsyncTraceSink sink(&inner);
  for (int i = 0; i < 5; ++i) {
    std::string page = Page("events");
    sink.WriteEventPage(&page, /*events=*/10);
  }
  sink.Flush();
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.error(), "disk full");
  EXPECT_EQ(sink.events_written(), 20u);
  EXPECT_EQ(inner.events_written(), 20u);
}

TEST(AsyncTraceSinkTest, WriterExceptionRethrownAtFlush) {
  ThrowingPageSink inner;
  AsyncTraceSink sink(&inner);
  std::string page = Page("boom");
  sink.WritePage(&page);
  EXPECT_THROW(sink.Flush(), std::runtime_error);
  // The exception slot is cleared by the rethrow, like ThreadPool::Wait.
  sink.Flush();
}

TEST(AsyncTraceSinkTest, DestructorDrainsWithoutFlush) {
  RecordingPageSink inner;
  {
    AsyncTraceSink sink(&inner);
    for (int i = 0; i < 10; ++i) {
      std::string page = Page(std::to_string(i));
      sink.WritePage(&page);
    }
    // No Flush: the destructor must still deliver everything queued.
  }
  EXPECT_EQ(inner.pages().size(), 10u);
}

TEST(AsyncTraceSinkTest, DestructorSwallowsUncollectedException) {
  ThrowingPageSink inner;
  {
    AsyncTraceSink sink(&inner);
    std::string page = Page("boom");
    sink.WritePage(&page);
    // Destroyed without Flush(): the captured exception is logged and
    // dropped, never rethrown from a destructor.
  }
}

TEST(AsyncTraceSinkTest, RecyclesBufferCapacityToProducer) {
  RecordingPageSink inner;
  AsyncTraceSink sink(&inner);
  bool saw_recycled_capacity = false;
  for (int i = 0; i < 200; ++i) {
    std::string page(4096, 'x');
    sink.WritePage(&page);
    ASSERT_TRUE(page.empty());
    if (page.capacity() >= 4096) saw_recycled_capacity = true;
  }
  sink.Flush();
  EXPECT_EQ(inner.pages().size(), 200u);
  // Double buffering: at least sometimes the producer gets a drained
  // buffer back instead of a fresh empty string.
  EXPECT_TRUE(saw_recycled_capacity);
}

TEST(StreamPageSinkTest, WritesBytesAndCounts) {
  std::ostringstream out;
  StreamPageSink sink(&out);
  std::string page = Page("hello ");
  sink.WritePage(&page);
  page = Page("world");
  sink.WritePage(&page);
  sink.Flush();
  EXPECT_TRUE(sink.ok());
  EXPECT_EQ(out.str(), "hello world");
  EXPECT_EQ(sink.bytes_written(), 11u);
}

TEST(StreamPageSinkTest, FailedStreamSetsStickyError) {
  std::ostringstream out;
  out.setstate(std::ios::failbit);
  StreamPageSink sink(&out);
  std::string page = Page("doomed");
  sink.WritePage(&page);
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.bytes_written(), 0u);
  EXPECT_TRUE(page.empty());  // still consumed, producers never wedge
}

}  // namespace
}  // namespace dynvote
