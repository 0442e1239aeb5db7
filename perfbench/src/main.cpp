/// \file main.cpp
/// \brief perfbench: the repository benchmark.  Runs one workload in a
///        closed loop of passes for a fixed time and prints every metric
///        by name with its unit, the build/run manifest, and one JSON
///        result line.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// --trace 0 measures the end-to-end metrics (medians over passes).
/// --trace 1 alternates untraced and traced passes: the traced passes
/// record spans around every layer call and give the per-layer metrics,
/// the first traced pass adds the 1-shard / 1-thread diagnostic reruns,
/// and obs.trace_overhead_ratio is traced over untraced pass wall time.
/// Exit status: 0 when every check passed, 1 when one failed, 2 on a
/// usage error.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/util/json.hpp"

namespace perfbench {

void Metrics::add(const std::string& name, std::string_view unit,
                  double value) {
  auto& series = series_[name];
  series.unit = unit;
  series.values.push_back(value);
}

double Metrics::median(const std::string& name) const {
  auto values = series_.at(name).values;
  std::sort(values.begin(), values.end());
  const auto mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Checks::Op::expect(bool ok, std::string_view what) {
  if (ok) return;
  failed_ = true;
  std::cerr << "check failed: " << name_ << ": " << what << "\n";
}

Checks::Op::~Op() {
  ++checks_->attempted_;
  if (failed_) ++checks_->failed_;
}

namespace {

/// Fewest passes a run makes, however long they take: enough for a
/// median.
constexpr std::uint32_t kMinPasses = 3;

/// Per-layer metrics every workload reports, so all workloads print the
/// same set.  A layer that a workload bypasses reads 0 there: that is
/// the prediction for it (see README.md).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"topology.build_s", "s"},
      {"topology.self_s", "s"},
      {"routing.build_s", "s"},
      {"routing.bytes", "bytes"},
      {"routing.self_s", "s"},
      {"flow.construct_s", "s"},
      {"flow.serial.run_s", "s"},
      {"flow.sharded.run_s", "s"},
      {"flow.sharded1.run_s", "s"},
      {"flow.serial.ns_per_traversal", "ns"},
      {"flow.sharded.ns_per_traversal", "ns"},
      {"flow.link_traversals", "count"},
      {"flow.stall_cycles", "count"},
      {"flow.transmit_success_ratio", "ratio"},
      {"flow.peak_live_packets", "count"},
      {"flow.arena_bytes", "bytes"},
      {"flow.cross_shard_flits", "count"},
      {"flow.cross_shard_credits", "count"},
      {"flow.mailbox_peak", "count"},
      {"flow.sharded_speedup", "ratio"},
      {"flow.self_s", "s"},
      {"sim.construct_s", "s"},
      {"sim.serial.run_s", "s"},
      {"sim.sharded.run_s", "s"},
      {"sim.sharded1.run_s", "s"},
      {"sim.serial.ns_per_traversal", "ns"},
      {"sim.sharded.ns_per_traversal", "ns"},
      {"sim.link_traversals", "count"},
      {"sim.arena_bytes", "bytes"},
      {"sim.cross_shard_flits", "count"},
      {"sim.mailbox_peak", "count"},
      {"sim.sharded_speedup", "ratio"},
      {"sim.self_s", "s"},
      {"analysis.random.run_s", "s"},
      {"analysis.random.perms", "count"},
      {"analysis.random.us_per_perm", "us"},
      {"analysis.random.thread_speedup", "ratio"},
      {"analysis.worst_case.run_s", "s"},
      {"analysis.worst_case.evals", "count"},
      {"analysis.worst_case.ns_per_eval", "ns"},
      {"analysis.worst_case.thread_speedup", "ratio"},
      {"analysis.adversarial.run_s", "s"},
      {"analysis.adversarial.evals", "count"},
      {"analysis.adversarial.ns_per_eval", "ns"},
      {"analysis.adversarial.thread_speedup", "ratio"},
      {"analysis.self_s", "s"},
      {"bench.self_s", "s"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "error: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
            << "workloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    usage(std::string(flag) + " needs a non-negative integer, got '" +
          std::string(text) + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto seconds = parse_u64(flag, value);
      if (seconds < 1 || seconds > 600) usage("--seconds must be 1..600");
      args.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

void add_pass_metrics(Metrics& metrics, const PassTotals& totals) {
  metrics.add("setup_s", "s", totals.setup_s);
  metrics.add("wall_s", "s", totals.wall_s);
  metrics.add("throughput", "1/s", totals.work / totals.run_s);
}

struct Reported {
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

int run(const Args& args) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  auto workload = make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  const double inputs_s = elapsed();

  SpanRecorder spans;
  Checks checks;
  Metrics plain;   // untraced passes: the end-to-end metrics
  Metrics traced;  // traced passes: the per-layer metrics
  Context plain_cx{spans, plain, checks};
  Context traced_cx{spans, traced, checks};
  std::vector<std::uint32_t> traced_iterations;

  // Closed loop: the next pass starts when the previous one ends, and a
  // pass is only started when the longest pass so far would still finish
  // inside the budget.
  std::uint32_t passes = 0;
  double longest_s = 0.0;
  const std::uint32_t passes_per_round = args.trace ? 2 : 1;
  while (passes < kMinPasses * passes_per_round ||
         elapsed() + passes_per_round * longest_s <= args.seconds) {
    spans.set_iteration(passes);
    spans.set_recording(false);
    const auto totals = workload->pass(plain_cx, false);
    add_pass_metrics(plain, totals);
    longest_s = std::max(longest_s, totals.wall_s);
    ++passes;
    if (args.trace) {
      spans.set_iteration(passes);
      spans.set_recording(true);
      const auto traced_totals =
          workload->pass(traced_cx, traced_iterations.empty());
      add_pass_metrics(traced, traced_totals);
      traced_iterations.push_back(passes);
      longest_s = std::max(longest_s, traced_totals.wall_s);
      ++passes;
    }
  }

  std::map<std::string, Reported> report;
  const auto take = [&](const Metrics& metrics, const std::string& name) {
    const auto& series = metrics.series().at(name);
    report[name] = {series.unit, metrics.median(name), series.values.size()};
  };
  for (const auto& [name, series] : plain.series()) take(plain, name);
  report["peak_rss_mb"] = {
      "MB", static_cast<double>(nbclos::obs::peak_rss_kb()) / 1024.0, 1};
  report["failed_ratio"] = {"ratio",
                            static_cast<double>(checks.failed()) /
                                static_cast<double>(checks.attempted()),
                            1};
  if (args.trace) {
    for (const auto iteration : traced_iterations) {
      for (const auto& [layer, secs] : spans.self_seconds(iteration)) {
        traced.add(layer + ".self_s", "s", secs);
      }
    }
    for (const auto& [name, unit] : layer_metrics()) {
      if (traced.has(name)) {
        take(traced, name);
      } else {
        report[name] = {unit, 0.0, 0};
      }
    }
    report["obs.trace_overhead_ratio"] = {
        "ratio", traced.median("wall_s") / plain.median("wall_s"),
        traced.series().at("wall_s").values.size()};
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      spans.write_json(out);
      if (!out) {
        std::cerr << "error: cannot write " << args.trace_out << "\n";
        return 1;
      }
    }
  }

  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " passes=" << passes << " inputs_s=" << inputs_s
            << " elapsed_s=" << elapsed() << "\n";
  std::cout << std::setprecision(6);
  for (const auto& [name, entry] : report) {
    std::cout << "  " << std::left << std::setw(38) << name << std::right
              << std::setw(14) << entry.value << " " << entry.unit << "  (n="
              << entry.samples << ")\n";
  }
  std::cout << "  attempted " << checks.attempted() << " operations, failed "
            << checks.failed() << "\n";

  auto manifest = nbclos::obs::RunInfo::current();
  manifest.seed = args.seed;
  manifest.threads = kParallelism;
  manifest.shards = kParallelism;
  manifest.wall_seconds = elapsed();
  manifest.peak_rss_kb = nbclos::obs::peak_rss_kb();
  std::cout << "manifest ";
  {
    nbclos::JsonWriter json(std::cout, 0);
    manifest.write_json(json);
  }
  std::cout << "\n";

  // Last line: the machine-readable result.
  nbclos::JsonWriter json(std::cout, 0);
  json.begin_object();
  json.member("correct", checks.failed() == 0);
  json.member("attempted", checks.attempted());
  json.member("failed", checks.failed());
  json.key("metrics").begin_object();
  for (const auto& [name, entry] : report) {
    json.key(name).begin_object();
    json.member("value", entry.value);
    json.member("unit", entry.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << std::endl;
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
