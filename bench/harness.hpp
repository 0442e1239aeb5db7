/// \file harness.hpp
/// \brief What every JSON bench shares: flag parsing, best-of-N timing,
///        and the one document format, `nbclos-bench-v1`.
///
/// A bench fills a Report and returns `report.write(std::cout)` from
/// main.  The document is
///
///   {"schema": "nbclos-bench-v1", "experiment": <id>,
///    "params":   {<name>: <number | string | bool>},
///    "metrics":  {<name>: {"value": <number>, "unit": <string>,
///                          "gate": <bool>}},
///    "verdicts": {<name>: <bool>},
///    "budgets":  {<name>: {"value": <number>, "limit": <number>}},
///    "manifest": <obs::RunInfo>}
///
/// Names are flat dotted paths (`radix8.route_cache.routes_per_sec`);
/// curves and sweep points flatten to one name per point.  Gated metrics
/// are higher-is-better throughputs that tools/check_bench_regression.py
/// compares against a committed baseline; verdicts and budgets are the
/// bench's correctness checks.  write() emits the whole document first
/// and only then reports a false verdict or an exceeded budget through
/// its return value, so a failing run still prints its evidence.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "nbclos/obs/run_info.hpp"
#include "nbclos/util/check.hpp"
#include "nbclos/util/json.hpp"
#include "nbclos/util/parse.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::bench {

/// The flags the benches accept; each bench reads the ones it uses.
struct Args {
  bool quick = false;                     ///< --quick: CI smoke budgets
  bool json = false;                      ///< --json: document, not tables
  bool csv = false;                       ///< --csv: CSV after each table
  std::optional<std::uint64_t> cycles;    ///< --cycles N: measured window
  std::optional<std::uint32_t> threads;   ///< --threads N: worker cap
};

/// Parse argv.  An unknown flag, a missing value or a bad count (sign,
/// junk, overflow) prints `error: <flag>: ...` and exits 1.
inline Args parse_args(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&] {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return std::string(argv[++i]);
      };
      if (flag == "--quick") {
        args.quick = true;
      } else if (flag == "--json") {
        args.json = true;
      } else if (flag == "--csv") {
        args.csv = true;
      } else if (flag == "--cycles") {
        args.cycles = parse_count<std::uint64_t>(value(), flag);
      } else if (flag == "--threads") {
        args.threads = parse_count<std::uint32_t>(
            value(), flag, static_cast<std::uint32_t>(ThreadPool::kMaxThreads));
      } else {
        throw std::invalid_argument("unknown flag '" + flag + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
  return args;
}

/// Wall-clock seconds since construction.
class Timer {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// One untimed warm-up call, then the minimum wall time over `reps`
/// timed calls.  The benched work is deterministic, so every call
/// computes the same result and only the timing varies.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

class Report {
 public:
  static constexpr const char* kSchema = "nbclos-bench-v1";

  /// Captures the build manifest and starts the whole-run wall clock.
  explicit Report(std::string experiment)
      : experiment_(std::move(experiment)),
        manifest_(obs::RunInfo::current()) {}

  /// Run facts (seed, threads, shards) the bench fills in.
  obs::RunInfo& manifest() { return manifest_; }

  /// A workload size or label.
  template <typename T>
  void param(const std::string& name, const T& value) {
    Param stored;
    if constexpr (std::is_same_v<T, bool>) {
      stored = value;
    } else if constexpr (std::is_integral_v<T>) {
      stored = static_cast<std::uint64_t>(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      stored = static_cast<double>(value);
    } else {
      stored = std::string(value);
    }
    insert(params_, name, std::move(stored));
  }

  /// A measured value; `gate` marks a higher-is-better throughput for
  /// the baseline comparison.
  template <typename T>
  void metric(const std::string& name, T value, std::string unit,
              bool gate = false) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    insert(metrics_, name,
           Metric{static_cast<double>(value), std::move(unit), gate});
  }

  /// A named pass/fail check.
  void verdict(const std::string& name, bool ok) {
    insert(verdicts_, name, ok);
  }

  /// A value that must not exceed `limit`.
  void budget(const std::string& name, double value, double limit) {
    insert(budgets_, name, Budget{value, limit});
  }

  /// Sample wall time and peak RSS, write the document, then name every
  /// false verdict and exceeded budget on stderr.  Returns 1 if there
  /// was any, else 0.
  int write(std::ostream& out) {
    manifest_.wall_seconds = wall_.seconds();
    manifest_.peak_rss_kb = obs::peak_rss_kb();  // after everything ran
    JsonWriter json(out);
    json.begin_object();
    json.member("schema", kSchema);
    json.member("experiment", experiment_);
    json.key("params").begin_object();
    for (const auto& [name, value] : params_) {
      json.key(name);
      std::visit([&](const auto& v) { json.value(v); }, value);
    }
    json.end_object();
    json.key("metrics").begin_object();
    for (const auto& [name, m] : metrics_) {
      json.key(name).begin_object();
      json.member("value", m.value);
      json.member("unit", m.unit);
      json.member("gate", m.gate);
      json.end_object();
    }
    json.end_object();
    json.key("verdicts").begin_object();
    for (const auto& [name, ok] : verdicts_) json.member(name, ok);
    json.end_object();
    json.key("budgets").begin_object();
    for (const auto& [name, b] : budgets_) {
      json.key(name).begin_object();
      json.member("value", b.value);
      json.member("limit", b.limit);
      json.end_object();
    }
    json.end_object();
    json.key("manifest");
    manifest_.write_json(json);
    json.end_object();
    out << "\n";

    int failures = 0;
    for (const auto& [name, ok] : verdicts_) {
      if (ok) continue;
      std::cerr << experiment_ << ": verdict " << name << " is false\n";
      ++failures;
    }
    for (const auto& [name, b] : budgets_) {
      if (b.value <= b.limit) continue;
      std::cerr << experiment_ << ": budget " << name << " = " << b.value
                << " exceeds " << b.limit << "\n";
      ++failures;
    }
    return failures > 0 ? 1 : 0;
  }

 private:
  using Param = std::variant<bool, std::uint64_t, double, std::string>;
  struct Metric {
    double value;
    std::string unit;
    bool gate;
  };
  struct Budget {
    double value;
    double limit;
  };

  template <typename V>
  static void insert(std::map<std::string, V>& section,
                     const std::string& name, V value) {
    const bool fresh = section.emplace(name, std::move(value)).second;
    NBCLOS_REQUIRE(fresh, "duplicate bench report name '" + name + "'");
  }

  std::string experiment_;
  obs::RunInfo manifest_;
  Timer wall_;
  std::map<std::string, Param> params_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, bool> verdicts_;
  std::map<std::string, Budget> budgets_;
};

}  // namespace nbclos::bench
