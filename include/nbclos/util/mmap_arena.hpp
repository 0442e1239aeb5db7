/// \file mmap_arena.hpp
/// \brief Growable flat array of trivially-copyable elements with an
///        optional file-backed (mmap) arena, so tables that exceed RAM
///        can spill to disk.
///
/// `FlatStore<T>` is the storage primitive behind `ChannelRouteCache`
/// and the flow-level flit/packet arenas: by default it is a thin
/// wrapper over `std::vector<T>`, but when constructed with a backing
/// directory (Linux only) the array lives in an unlinked temporary file
/// mapped with `MAP_SHARED`.  The kernel then pages cold regions of a
/// giant table out to disk under memory pressure instead of OOM-killing
/// the process, while the hot working set stays in the page cache at
/// normal speed.  The file is unlinked immediately after creation, so
/// it vanishes with the process and never needs cleanup.
///
/// The backing directory typically comes from the `NBCLOS_MMAP_CACHE`
/// environment variable (see `mmap_cache_dir()`): unset/empty/"0" means
/// heap, "1" means the default temp directory, anything else is used as
/// the directory itself.  On non-Linux platforms, or when the backing
/// file cannot be created, the store silently falls back to the heap —
/// the contents and the API behave identically either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef __linux__
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "nbclos/util/check.hpp"

namespace nbclos {

namespace detail {

/// Backing directory requested via NBCLOS_MMAP_CACHE, if any.
[[nodiscard]] inline std::optional<std::string> mmap_cache_dir_from_env() {
  const char* env = std::getenv("NBCLOS_MMAP_CACHE");
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  const std::string value(env);
  if (value == "0") return std::nullopt;
  if (value == "1") return std::string("/tmp");
  return value;
}

}  // namespace detail

template <typename T>
class FlatStore {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatStore spills raw bytes; T must be trivially copyable");

 public:
  /// Heap-backed store (the default, and the non-Linux behavior).
  FlatStore() = default;

  /// File-backed store with its unlinked temp file in `backing_dir`;
  /// falls back to the heap when the file cannot be created.
  explicit FlatStore(const std::string& backing_dir) {
#ifdef __linux__
    std::string path = backing_dir + "/nbclos-arena-XXXXXX";
    const int fd = ::mkstemp(path.data());
    if (fd >= 0) {
      ::unlink(path.c_str());
      fd_ = fd;
    }
#else
    (void)backing_dir;
#endif
  }

  /// Store that spills iff NBCLOS_MMAP_CACHE asks for it.  The helper
  /// keeps call sites one-liners: `FlatStore<T>::from_env()`.
  [[nodiscard]] static FlatStore from_env() {
    const auto dir = mmap_cache_dir();
    return dir ? FlatStore(*dir) : FlatStore();
  }

  ~FlatStore() { release(); }

  FlatStore(FlatStore&& other) noexcept { steal(other); }
  FlatStore& operator=(FlatStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  /// Deep copy lands on the heap regardless of the source's backing —
  /// copies are for tests and snapshots, not for giant tables.
  FlatStore(const FlatStore& other) {
    heap_.assign(other.data(), other.data() + other.size());
  }
  FlatStore& operator=(const FlatStore& other) {
    if (this != &other) {
      release();
      heap_.assign(other.data(), other.data() + other.size());
    }
    return *this;
  }

  /// Backing directory requested via NBCLOS_MMAP_CACHE, if any.
  [[nodiscard]] static std::optional<std::string> mmap_cache_dir() {
    return detail::mmap_cache_dir_from_env();
  }

  [[nodiscard]] bool file_backed() const noexcept {
#ifdef __linux__
    return fd_ >= 0;
#else
    return false;
#endif
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return file_backed() ? map_size_ : heap_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return file_backed() ? map_capacity_ : heap_.capacity();
  }
  [[nodiscard]] const T* data() const noexcept {
    return file_backed() ? map_ : heap_.data();
  }
  [[nodiscard]] T* data() noexcept { return file_backed() ? map_ : heap_.data(); }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    NBCLOS_DEBUG_CHECK(i < size(), "FlatStore index out of range");
    return data()[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    NBCLOS_DEBUG_CHECK(i < size(), "FlatStore index out of range");
    return data()[i];
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return capacity() * sizeof(T);
  }
  /// Bytes living in the backing file rather than the heap (0 when
  /// heap-backed) — the quantity manifests report as "spill".
  [[nodiscard]] std::size_t spill_bytes() const noexcept {
    return file_backed() ? bytes() : 0;
  }

  void reserve(std::size_t n) {
    if (!file_backed()) {
      heap_.reserve(n);
      return;
    }
    if (n > map_capacity_) grow_to(n);
  }

  void push_back(const T& value) {
    if (!file_backed()) {
      heap_.push_back(value);
      return;
    }
    if (map_size_ == map_capacity_) {
      grow_to(map_capacity_ == 0 ? kInitialCapacity : map_capacity_ * 2);
    }
    map_[map_size_++] = value;
  }

  /// Grow (value-filling new slots) or shrink the logical size.  Growth
  /// beyond capacity doubles, matching push_back's amortization.
  void resize(std::size_t n, const T& fill = T{}) {
    if (!file_backed()) {
      heap_.resize(n, fill);
      return;
    }
    if (n > map_capacity_) {
      std::size_t target = map_capacity_ == 0 ? kInitialCapacity : map_capacity_;
      while (target < n) target *= 2;
      grow_to(target);
      if (!file_backed()) {  // grow fell back to the heap
        heap_.resize(n, fill);
        return;
      }
    }
    for (std::size_t i = map_size_; i < n; ++i) map_[i] = fill;
    map_size_ = n;
  }

  void shrink_to_fit() {
    if (!file_backed()) {
      heap_.shrink_to_fit();
      return;
    }
#ifdef __linux__
    if (map_capacity_ > map_size_) resize_mapping(map_size_);
#endif
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  void grow_to(std::size_t n) {
#ifdef __linux__
    resize_mapping(n);
#else
    (void)n;
#endif
  }

#ifdef __linux__
  /// Grow or shrink both the backing file and the mapping.  On any
  /// failure the store falls back to the heap, preserving its contents.
  void resize_mapping(std::size_t new_capacity) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::size_t new_bytes = new_capacity * sizeof(T);
    new_bytes = (new_bytes + page - 1) / page * page;
    if (new_bytes == 0) new_bytes = page;
    new_capacity = new_bytes / sizeof(T);
    if (::ftruncate(fd_, static_cast<off_t>(new_bytes)) != 0) {
      fall_back_to_heap();
      return;
    }
    void* mapped;
    if (map_ == nullptr) {
      mapped = ::mmap(nullptr, new_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd_, 0);
    } else {
      mapped = ::mremap(map_, map_bytes_, new_bytes, MREMAP_MAYMOVE);
    }
    if (mapped == MAP_FAILED) {
      fall_back_to_heap();
      return;
    }
    map_ = static_cast<T*>(mapped);
    map_bytes_ = new_bytes;
    map_capacity_ = new_capacity;
    if (map_size_ > map_capacity_) map_size_ = map_capacity_;
  }

  void fall_back_to_heap() {
    heap_.assign(map_, map_ + map_size_);
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    ::close(fd_);
    map_ = nullptr;
    map_bytes_ = 0;
    map_size_ = 0;
    map_capacity_ = 0;
    fd_ = -1;
  }
#endif

  void release() {
#ifdef __linux__
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    if (fd_ >= 0) ::close(fd_);
    map_ = nullptr;
    fd_ = -1;
    map_bytes_ = 0;
    map_size_ = 0;
    map_capacity_ = 0;
#endif
    heap_.clear();
  }

  void steal(FlatStore& other) {
    heap_ = std::move(other.heap_);
    other.heap_.clear();
#ifdef __linux__
    fd_ = std::exchange(other.fd_, -1);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    map_size_ = std::exchange(other.map_size_, 0);
    map_capacity_ = std::exchange(other.map_capacity_, 0);
#endif
  }

  std::vector<T> heap_;
#ifdef __linux__
  int fd_ = -1;
  T* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t map_size_ = 0;
  std::size_t map_capacity_ = 0;
#endif
};

}  // namespace nbclos
