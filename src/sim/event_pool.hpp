// Slab allocator for pending events.
//
// The old engine kept callbacks in an `unordered_map<EventId,
// function>`, paying a hash insert + erase (and an allocation) per
// event. The pool replaces that with a slab of slots recycled through a
// free list: schedule is an O(1) slot pop, cancel/fire an O(1) slot
// release, and the arena stops growing once it covers the peak pending
// set. An EventId packs (generation << 32 | slot index); the generation
// bumps on every release, so a stale id — cancel after fire, double
// cancel — decodes to a dead handle instead of hitting a recycled slot.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace impress::sim {

/// Simulated time in seconds since engine start.
using SimTime = double;

/// Handle for cancelling a scheduled event (slot index + generation,
/// packed by the EventPool).
using EventId = std::uint64_t;

class EventPool {
 public:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Claim a slot for an event's callback; returns its EventId.
  EventId acquire(std::function<void()> fn) {
    std::uint32_t index = 0;
    if (free_.empty()) {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      index = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[index];
    slot.fn = std::move(fn);
    slot.live = true;
    return pack(slot.generation, index);
  }

  /// False once `id` has fired or been cancelled, or if it was never
  /// issued.
  [[nodiscard]] bool is_live(EventId id) const noexcept {
    const std::uint32_t index = slot_index(id);
    return index < slots_.size() && slots_[index].live &&
           slots_[index].generation == generation(id);
  }

  /// Release `id`'s slot, returning its callback. The caller must have
  /// verified liveness (is_live). The generation bump retires every
  /// outstanding handle to this slot.
  std::function<void()> release(EventId id) {
    Slot& slot = slots_[slot_index(id)];
    std::function<void()> fn = std::move(slot.fn);
    slot.fn = nullptr;
    slot.live = false;
    ++slot.generation;
    free_.push_back(slot_index(id));
    return fn;
  }

  /// Slots currently allocated to live events.
  [[nodiscard]] std::size_t live_count() const noexcept {
    return slots_.size() - free_.size();
  }

 private:
  static constexpr std::uint64_t kIndexMask = 0xffffffffu;

  // Indices are stored +1 so EventId 0 is never issued (it predates the
  // pool as the engine's implicit "no such event" value).
  [[nodiscard]] static EventId pack(std::uint32_t gen,
                                    std::uint32_t index) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }
  [[nodiscard]] static std::uint32_t slot_index(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & kIndexMask) - 1;
  }
  [[nodiscard]] static std::uint32_t generation(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace impress::sim
