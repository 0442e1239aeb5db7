/// \file sweep_order.hpp
/// \brief Ascending sweep order without a full sort per cycle.
///
/// Every cycle engine visits its active channels in ascending id order,
/// the order of a full channel scan that the bit-identity contract rests
/// on.  Between sweeps a list only gains a short tail, and compaction
/// keeps the survivors in order, so a sweep sorts just the tail and
/// merges it into the prefix.  Mailbox batches arrive as runs that each
/// producer wrote in its own ascending sweep, so merging the runs gives
/// the sorted batch without sorting it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nbclos/util/check.hpp"

namespace nbclos {

/// Set of active ids in [0, n), visited in ascending order: the sorted
/// prefix the last sweep kept, plus the ids pushed since.
class SweepList {
 public:
  /// Empty the set and size it (flags and both buffers) for ids [0, n).
  void reset(std::size_t n) {
    listed_.assign(n, 0);
    items_.clear();
    items_.reserve(n);
    scratch_.reserve(n);
    sorted_ = 0;
  }
  /// Add `id` for the next sweep (no-op when it is listed already).
  void push(std::uint32_t id) {
    if (listed_[id] != 0) return;
    listed_[id] = 1;
    items_.push_back(id);
  }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (items_.capacity() + scratch_.capacity()) * sizeof(std::uint32_t) +
           listed_.capacity();
  }

  /// Visit every id in ascending order; `keep(id)` false removes it
  /// (`keep` must not push).  The sorted tail merges into the prefix
  /// through a scratch buffer that persists, so no sweep allocates.
  template <typename Keep>
  void sweep(Keep&& keep) {
    const std::size_t n = items_.size();
    const auto mid = items_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    NBCLOS_DEBUG_CHECK(std::is_sorted(items_.begin(), mid),
                       "sweep list prefix lost its order");
    std::size_t kept = 0;
    const auto visit = [&](std::uint32_t id, std::vector<std::uint32_t>& to) {
      if (keep(id)) {
        to[kept++] = id;
      } else {
        listed_[id] = 0;
      }
    };
    if (sorted_ == n) {
      for (std::size_t i = 0; i < n; ++i) visit(items_[i], items_);
    } else {
      std::sort(mid, items_.end());
      scratch_.resize(n);
      for (std::size_t i = 0, j = sorted_; i < sorted_ || j < n;) {
        const bool left = j == n || (i < sorted_ && items_[i] < items_[j]);
        visit(left ? items_[i++] : items_[j++], scratch_);
      }
    }
    NBCLOS_DEBUG_CHECK(items_.size() == n, "sweep list grew in its sweep");
    if (sorted_ != n) items_.swap(scratch_);
    items_.resize(kept);
    sorted_ = kept;
  }

 private:
  std::vector<std::uint8_t> listed_;  ///< membership flag per id
  std::vector<std::uint32_t> items_;
  std::vector<std::uint32_t> scratch_;
  std::size_t sorted_ = 0;  ///< items_[0, sorted_) is ascending
};

/// Merge runs, each ascending under `less`, into `out` (replaced); equal
/// elements keep run order.  Run counts are shard counts, so a linear
/// scan of the run heads picks each next element.  Consumes `runs`.
template <typename T, typename Less>
void merge_runs(std::span<std::span<const T>> runs, std::vector<T>& out,
                Less less) {
  out.clear();
  const auto live_end = std::remove_if(
      runs.begin(), runs.end(), [](auto run) { return run.empty(); });
  auto live = static_cast<std::size_t>(live_end - runs.begin());
  while (live > 1) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < live; ++r) {
      if (less(runs[r].front(), runs[best].front())) best = r;
    }
    out.push_back(runs[best].front());
    runs[best] = runs[best].subspan(1);
    if (runs[best].empty()) {  // drop it, keeping the others in order
      const auto at = runs.begin() + static_cast<std::ptrdiff_t>(best);
      std::move(at + 1, runs.begin() + static_cast<std::ptrdiff_t>(live), at);
      --live;
    }
  }
  if (live == 1) out.insert(out.end(), runs[0].begin(), runs[0].end());
}

}  // namespace nbclos
