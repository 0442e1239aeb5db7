/// FlatStore<std::uint32_t>, the route tables' store (its tests keep the
/// suite name U32Store), and the mmap-backed ChannelRouteCache: the
/// file-backed arena must behave exactly like the heap vector it
/// replaces — same contents, same growth semantics — and a cache built
/// under NBCLOS_MMAP_CACHE must answer identically to a heap-built one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/mmap_arena.hpp"

namespace nbclos {
namespace {

/// Restores (or clears) NBCLOS_MMAP_CACHE when the test scope ends, so
/// one test's spill setting never leaks into the rest of the binary.
class ScopedMmapEnv {
 public:
  explicit ScopedMmapEnv(const char* value) {
    const char* old = std::getenv("NBCLOS_MMAP_CACHE");
    if (old != nullptr) saved_ = old;
    ::setenv("NBCLOS_MMAP_CACHE", value, 1);
  }
  ~ScopedMmapEnv() {
    if (saved_.has_value()) {
      ::setenv("NBCLOS_MMAP_CACHE", saved_->c_str(), 1);
    } else {
      ::unsetenv("NBCLOS_MMAP_CACHE");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(U32Store, HeapStoreMirrorsVector) {
  FlatStore<std::uint32_t> store;
  EXPECT_FALSE(store.file_backed());
  EXPECT_EQ(store.size(), 0U);
  for (std::uint32_t i = 0; i < 100; ++i) store.push_back(i * 7);
  ASSERT_EQ(store.size(), 100U);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(store[i], i * 7);
  store.reserve(500);
  EXPECT_GE(store.capacity(), 500U);
  EXPECT_EQ(store.size(), 100U);
  store.shrink_to_fit();
  EXPECT_EQ(store.size(), 100U);
  EXPECT_EQ(store[99], 99U * 7);
}

TEST(U32Store, FileBackedStoreGrowsPastInitialCapacity) {
  FlatStore<std::uint32_t> store("/tmp");
#ifndef __linux__
  GTEST_SKIP() << "mmap backing is Linux-only";
#endif
  ASSERT_TRUE(store.file_backed());
  // Push well past the 1024-entry initial mapping to force mremap growth.
  constexpr std::uint32_t kCount = 5000;
  for (std::uint32_t i = 0; i < kCount; ++i) store.push_back(i ^ 0xA5A5A5A5U);
  ASSERT_TRUE(store.file_backed());
  ASSERT_EQ(store.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(store[i], i ^ 0xA5A5A5A5U) << i;
  }
  store.shrink_to_fit();
  EXPECT_EQ(store.size(), kCount);
  EXPECT_GE(store.capacity(), store.size());
  EXPECT_EQ(store[kCount - 1], (kCount - 1) ^ 0xA5A5A5A5U);
}

TEST(U32Store, ReserveOnFileBackedStorePreallocates) {
  FlatStore<std::uint32_t> store("/tmp");
#ifndef __linux__
  GTEST_SKIP() << "mmap backing is Linux-only";
#endif
  store.reserve(10000);
  EXPECT_GE(store.capacity(), 10000U);
  for (std::uint32_t i = 0; i < 10000; ++i) store.push_back(i);
  EXPECT_EQ(store.size(), 10000U);
  EXPECT_EQ(store[9999], 9999U);
}

TEST(U32Store, CopyCollapsesToHeapAndMovePreservesBacking) {
  FlatStore<std::uint32_t> store("/tmp");
  for (std::uint32_t i = 0; i < 2000; ++i) store.push_back(i + 1);
  const bool was_file_backed = store.file_backed();

  const FlatStore<std::uint32_t> copy(store);
  EXPECT_FALSE(copy.file_backed());
  ASSERT_EQ(copy.size(), 2000U);
  EXPECT_EQ(copy[0], 1U);
  EXPECT_EQ(copy[1999], 2000U);

  FlatStore<std::uint32_t> assigned;
  assigned.push_back(99);
  assigned = store;
  EXPECT_FALSE(assigned.file_backed());
  ASSERT_EQ(assigned.size(), 2000U);
  EXPECT_EQ(assigned[1234], 1235U);

  FlatStore<std::uint32_t> moved(std::move(store));
  EXPECT_EQ(moved.file_backed(), was_file_backed);
  ASSERT_EQ(moved.size(), 2000U);
  EXPECT_EQ(moved[1999], 2000U);
}

TEST(U32Store, MmapCacheDirParsesTheEnvironment) {
  {
    ScopedMmapEnv env("0");
    EXPECT_FALSE(FlatStore<std::uint32_t>::mmap_cache_dir().has_value());
  }
  {
    ScopedMmapEnv env("1");
    const auto dir = FlatStore<std::uint32_t>::mmap_cache_dir();
    ASSERT_TRUE(dir.has_value());
    EXPECT_EQ(*dir, "/tmp");
  }
  {
    ScopedMmapEnv env("/var/tmp");
    const auto dir = FlatStore<std::uint32_t>::mmap_cache_dir();
    ASSERT_TRUE(dir.has_value());
    EXPECT_EQ(*dir, "/var/tmp");
  }
}

TEST(ChannelRouteCache, MmapBackedCacheRoundTripsAgainstHeap) {
  const FoldedClos ft(FtreeParams{3, 9, 5});
  const Network net = build_network(ft);
  const YuanNonblockingRouting yuan(ft);
  const auto heap_cache = routing::ChannelRouteCache::materialize(net, yuan);
  EXPECT_FALSE(heap_cache.mmap_backed());

  ScopedMmapEnv env("1");
  const auto mmap_cache = routing::ChannelRouteCache::materialize(net, yuan);
#ifdef __linux__
  EXPECT_TRUE(mmap_cache.mmap_backed());
#endif
  ASSERT_EQ(mmap_cache.terminal_count(), heap_cache.terminal_count());
  ASSERT_EQ(mmap_cache.entry_count(), heap_cache.entry_count());
  EXPECT_GT(mmap_cache.bytes(), 0U);
  const auto T = heap_cache.terminal_count();
  for (std::uint32_t s = 0; s < T; ++s) {
    for (std::uint32_t d = 0; d < T; ++d) {
      const auto expect = heap_cache.channels(s, d);
      const auto got = mmap_cache.channels(s, d);
      ASSERT_EQ(got.size(), expect.size()) << s << "->" << d;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(got[i], expect[i]) << s << "->" << d << " hop " << i;
      }
      // Dense next-hop lookups agree along the whole path.
      for (const auto c : expect) {
        EXPECT_EQ(mmap_cache.next_channel_from(net.channel_src(c), s, d),
                  heap_cache.next_channel_from(net.channel_src(c), s, d));
      }
    }
  }
}

}  // namespace
}  // namespace nbclos
