/// \file packet_ring.hpp
/// \brief The per-channel packet FIFO both packet engines queue into.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "nbclos/sim/packet.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::sim {

/// A lazily grown power-of-two FIFO ring.  It allocates nothing until its
/// first push, starts at min(16, bit_ceil(depth_limit)) slots and doubles
/// (relinearizing, so FIFO order is untouched) when a push finds it full.
/// Memory thus follows the queue's high-water occupancy: a switch queue
/// the engine caps at queue_capacity never grows past
/// bit_ceil(queue_capacity), and one that never holds a packet costs only
/// this object.
class PacketRing {
 public:
  static constexpr std::uint32_t kUncapped = ~std::uint32_t{0};

  /// `depth_limit`: the most packets the engine ever queues here (a
  /// switch's queue_capacity), or kUncapped for a terminal NIC queue.  It
  /// only sizes the first allocation; the ring never enforces it.
  explicit PacketRing(std::uint32_t depth_limit)
      : first_capacity_(std::bit_ceil(std::min(depth_limit, 16U))) {}

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  /// Allocated slots (0 before the first push).
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  void push(const Packet& packet) {
    if (size_ == capacity_) grow();
    slots_[(head_ + size_) & (capacity_ - 1)] = packet;
    ++size_;
  }

  [[nodiscard]] Packet pop() {
    NBCLOS_ASSERT(size_ > 0);
    const Packet packet = slots_[head_];
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return packet;
  }

  /// Drop every queued packet; the storage is kept.
  void clear() noexcept { head_ = size_ = 0; }

 private:
  void grow() {
    NBCLOS_REQUIRE(capacity_ <= (std::uint32_t{1} << 30),
                   "packet ring cannot grow past 2^31 slots");
    const std::uint32_t bigger =
        capacity_ == 0 ? first_capacity_ : 2 * capacity_;
    auto slots = std::make_unique<Packet[]>(bigger);
    for (std::uint32_t i = 0; i < size_; ++i) {
      slots[i] = slots_[(head_ + i) & (capacity_ - 1)];
    }
    slots_ = std::move(slots);
    capacity_ = bigger;
    head_ = 0;
  }

  std::unique_ptr<Packet[]> slots_;
  std::uint32_t capacity_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t first_capacity_;
};

}  // namespace nbclos::sim
