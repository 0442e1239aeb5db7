/// \file harness.hpp
/// \brief What a workload pass reports into: metric samples, correctness
///        checks, and the span recorder.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Shards of every sharded engine and threads of the verifier pool: the
/// 4 cores of the machine the benchmark was sized on.
inline constexpr std::uint32_t kParallelism = 4;

/// One value per pass for every metric a workload reports; the benchmark
/// prints each metric's median.
class Metrics {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };

  void add(const std::string& name, std::string_view unit, double value);
  [[nodiscard]] bool has(const std::string& name) const {
    return series_.count(name) != 0;
  }
  [[nodiscard]] double median(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Series>& series() const {
    return series_;
  }

 private:
  std::map<std::string, Series> series_;
};

/// Operation-level correctness bookkeeping.  Every engine run and every
/// verifier call is one operation; it fails when any of its checks fails.
class Checks {
 public:
  /// Counts one operation when it goes out of scope.
  class Op {
   public:
    Op(Checks& checks, std::string name)
        : checks_(&checks), name_(std::move(name)) {}
    ~Op();
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

    void expect(bool ok, std::string_view what);

   private:
    Checks* checks_;
    std::string name_;
    bool failed_ = false;
  };

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything one pass writes to.
struct Context {
  SpanRecorder& spans;
  Metrics& metrics;
  Checks& checks;
};

/// Totals of one pass; the harness derives setup_s, wall_s and
/// throughput from them.
struct PassTotals {
  double wall_s = 0.0;   ///< the whole pass, setup and checks included
  double setup_s = 0.0;  ///< topology, routes, engines / thread pool
  double run_s = 0.0;    ///< the timed engine runs or verifier calls
  double work = 0.0;     ///< terminal-cycles, or permutations scored
};

/// A workload: its inputs are generated from the seed at construction;
/// pass() repeats the same work every time it is called.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass, timed as the root span "bench.pass": set up, run every engine
  /// or verifier call once, check.  With `diagnostics` set, the pass then
  /// adds the traced run's 1-shard and 1-thread reruns, outside the
  /// "bench.pass" span and outside wall_s.
  virtual PassTotals pass(Context& cx, bool diagnostics) = 0;
};

/// nullptr for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

/// Names of every workload, in the order they are documented.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
