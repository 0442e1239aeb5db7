/// \file test_trace.cpp
/// \brief TraceSession: span/instant/counter collection, Chrome and JSONL
///        export, and the inactive-session fast path.  Compiles against
///        the NBCLOS_OBS=OFF stubs; value assertions skip there.
#include "nbclos/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nbclos/util/thread_pool.hpp"

namespace nbclos::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ObsTrace, InactiveSessionRecordsNothing) {
  // stop() keeps the events of earlier sessions (a run writes them out
  // after stopping), so compare against the count on entry.
  TraceSession::stop();
  EXPECT_FALSE(TraceSession::active());
  const std::size_t before = TraceSession::event_count();
  {
    ScopedSpan span("test.span.inactive", "test");
    span.arg("x", 1.0);
  }
  trace_instant("test.instant.inactive", "test");
  trace_counter("test.counter.inactive", 3.0);
  EXPECT_EQ(TraceSession::event_count(), before);
}

TEST(ObsTrace, CollectsSpansInstantsAndCounters) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  TraceSession::start();
  EXPECT_TRUE(TraceSession::active());
  {
    ScopedSpan span("test.span", "test");
    span.arg("load", 0.9);
    span.arg("cycles", 100.0);
  }
  trace_instant("test.instant", "test", "lo", 1.0, "hi", 2.0);
  trace_counter("test.series", 42.0, "depth");
  TraceSession::stop();
  EXPECT_EQ(TraceSession::event_count(), 3U);

  std::ostringstream chrome;
  TraceSession::write_chrome(chrome);
  const std::string text = chrome.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.span\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\""), std::string::npos);
  EXPECT_NE(text.find("\"load\":0.9"), std::string::npos);
  EXPECT_NE(text.find("\"depth\":42"), std::string::npos);
}

TEST(ObsTrace, JsonlEmitsOneObjectPerLineSortedByTimestamp) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  TraceSession::start();
  trace_instant("test.first", "test");
  trace_instant("test.second", "test");
  TraceSession::stop();

  std::ostringstream out;
  TraceSession::write_jsonl(out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2U);
  double last_ts = -1.0;
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\""), std::string::npos);
    EXPECT_NE(line.find("\"ph\":\"i\""), std::string::npos);
    const auto ts_pos = line.find("\"ts\":");
    ASSERT_NE(ts_pos, std::string::npos);
    const double ts = std::stod(line.substr(ts_pos + 5));
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST(ObsTrace, StartClearsThePreviousSession) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  TraceSession::start();
  trace_instant("test.stale", "test");
  TraceSession::stop();
  EXPECT_EQ(TraceSession::event_count(), 1U);
  TraceSession::start();
  TraceSession::stop();
  EXPECT_EQ(TraceSession::event_count(), 0U);
}

TEST(ObsTrace, WorkerThreadsGetDistinctTids) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  TraceSession::start();
  ThreadPool pool(4);
  // Rendezvous so all four chunks are in flight at once — four distinct
  // workers must record, no matter how fast any one of them is.
  std::atomic<int> arrived{0};
  pool.parallel_chunks(0, 4, [&arrived](std::size_t, std::size_t,
                                        std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
    ScopedSpan span("test.worker", "test");
  });
  pool.wait_idle();
  TraceSession::stop();
  EXPECT_EQ(TraceSession::event_count(), 4U);

  std::ostringstream out;
  TraceSession::write_jsonl(out);
  std::vector<std::string> tids;
  for (const auto& line : lines_of(out.str())) {
    const auto pos = line.find("\"tid\":");
    ASSERT_NE(pos, std::string::npos);
    const auto end = line.find_first_of(",}", pos);
    const auto tid = line.substr(pos, end - pos);
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
      tids.push_back(tid);
    }
  }
  EXPECT_GE(tids.size(), 2U) << "worker spans collapsed onto one tid";
}

}  // namespace
}  // namespace nbclos::obs
