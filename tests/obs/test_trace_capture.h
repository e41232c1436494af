// Test-side trace capture: records through the one in-process trace
// encoding — a BinaryTraceSink over a StreamPageSink into memory — and
// decodes the recorded events back for assertions.

#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "obs/async_writer.h"
#include "obs/binary_trace.h"

namespace dynvote {
namespace testing_util {

class TraceCapture {
 public:
  TraceCapture() : pages_(&bytes_), sink_(&pages_) {}

  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// The sink to attach through ObsContext::sink.
  BinaryTraceSink* sink() { return &sink_; }

  /// Flushes the sink and decodes every event recorded so far, oldest
  /// first. The decoder's string table dies on return, so a returned
  /// event's `op` must not be read; `protocol` and the masks are copies.
  std::vector<TraceEvent> Events() {
    sink_.Flush();
    EXPECT_TRUE(sink_.ok()) << sink_.error();
    const std::string records = bytes_.str();
    std::string_view rest = records;
    BinaryRecordDecoder decoder;
    std::vector<TraceEvent> events;
    TraceEvent event;
    for (;;) {
      auto more = decoder.NextEvent(&rest, &event);
      EXPECT_TRUE(more.ok()) << more.status();
      if (!more.ok() || !*more) break;
      event.op = "";
      events.push_back(event);
    }
    return events;
  }

 private:
  std::ostringstream bytes_;
  StreamPageSink pages_;
  BinaryTraceSink sink_;
};

}  // namespace testing_util
}  // namespace dynvote
