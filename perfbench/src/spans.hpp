/// \file spans.hpp
/// \brief In-memory span recorder for the benchmark harness.
///
/// Every call the harness makes into a library layer is wrapped in a
/// `SpanRecorder::Scope`.  The scope always measures its own duration
/// (the harness needs the time for its metrics either way); only when
/// recording is on does it also keep a span — name, start, end, parent
/// span and the iteration id shared by all spans of one workload pass.
/// Spans stay in memory and are written out once, when the benchmark
/// ends.  Recording lives entirely in the harness: it does not depend on
/// the library's own NBCLOS_OBS instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "flow.serial.run"
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint32_t iteration = 0;
};

class SpanRecorder {
 public:
  /// Times one call; records it as a span when recording is on.  Scopes
  /// nest strictly (the harness is single-threaded), so the innermost
  /// open scope is the parent of the next one.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close the span (idempotent); returns its duration in seconds.
    double stop();

   private:
    SpanRecorder* recorder_;
    std::chrono::steady_clock::time_point start_;
    int index_ = -1;  ///< recorded span, -1 when not recording
    double elapsed_ = -1.0;
  };

  void set_recording(bool on) { recording_ = on; }
  /// Start a new workload pass: later spans carry `iteration`.
  void set_iteration(std::uint32_t iteration) { iteration_ = iteration; }

  /// Self time per layer (the name up to its first '.') over the spans of
  /// one iteration that sit under a root span named "bench.pass": each span's
  /// duration minus the time its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint32_t iteration) const;

  /// All spans as one JSON document.
  void write_json(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  bool recording_ = false;
  std::uint32_t iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open recorded spans
};

}  // namespace perfbench
