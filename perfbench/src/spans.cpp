#include "spans.hpp"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <utility>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(&recorder), start_(std::chrono::steady_clock::now()) {
  if (!recorder.recording_) return;
  Span span;
  span.name = std::move(name);
  span.start_s = std::chrono::duration<double>(start_ - recorder.origin_).count();
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.iteration = recorder.iteration_;
  index_ = static_cast<int>(recorder.spans_.size());
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
}

double SpanRecorder::Scope::stop() {
  if (elapsed_ >= 0.0) return elapsed_;
  const auto end = std::chrono::steady_clock::now();
  elapsed_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    if (recorder_->open_.back() != index_) {
      // A harness bug, never input-dependent: the span tree would be wrong.
      std::cerr << "perfbench: span scopes must close innermost first\n";
      std::abort();
    }
    recorder_->spans_[static_cast<std::size_t>(index_)].end_s =
        std::chrono::duration<double>(end - recorder_->origin_).count();
    recorder_->open_.pop_back();
  }
  return elapsed_;
}

std::map<std::string, double> SpanRecorder::self_seconds(
    std::uint32_t iteration) const {
  // A parent is always recorded before its children, so one forward
  // sweep resolves every span's root.
  std::vector<std::size_t> root(spans_.size());
  std::vector<double> child_time(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const auto parent = static_cast<std::size_t>(span.parent);
    root[i] = span.parent < 0 ? i : root[parent];
    if (span.parent >= 0) child_time[parent] += span.end_s - span.start_s;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.iteration != iteration || spans_[root[i]].name != "bench.pass") {
      continue;
    }
    const auto layer = span.name.substr(0, span.name.find('.'));
    self[layer] += span.end_s - span.start_s - child_time[i];
  }
  return self;
}

void SpanRecorder::write_json(std::ostream& out) const {
  out << "{\"spans\": [";
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << span.name << "\", \"start_s\": " << span.start_s
        << ", \"end_s\": " << span.end_s << ", \"parent\": " << span.parent
        << ", \"iteration\": " << span.iteration << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
