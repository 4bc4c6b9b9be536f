// Discrete-event simulation engine.
//
// The paper's campaigns take 27.7 h (CONT-V) and 38.3 h (IM-RP) of wall
// time on the Amarel node. We replay them against a virtual clock: tasks
// carry duration models, the engine advances time event-by-event, and the
// science functions (surrogate ProteinMPNN/AlphaFold) execute instantly at
// their completion events. This keeps the *middleware* logic — scheduling,
// asynchronous submission, decision-making — identical to a real-time run
// while making the whole evaluation reproducible in milliseconds.
//
// Determinism contract: events at equal timestamps fire in insertion
// order (a monotonically increasing sequence number breaks ties), so a
// campaign is a pure function of its seed.
//
// Hot-path structure: callbacks live in a slab EventPool (O(1)
// schedule/cancel, no per-event hashing — sim/event_pool.hpp); the queue
// is a binary heap of (time, seq, id) triples; and the engine dequeues
// all events sharing a timestamp in one batch, so a burst of same-time
// completions costs one queue visit. Cancellation is lazy: the heap
// keeps a tombstone that the engine compacts away once tombstones
// outnumber live entries.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_pool.hpp"

namespace impress::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (seconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t`. Times before now() are clamped
  /// to now() (the event fires "immediately", after already-queued events
  /// at the current timestamp).
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` `delay` seconds from now (negative delays clamp to 0).
  EventId schedule_after(SimTime delay, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled. O(1) against the pool; the heap entry stays
  /// behind as a tombstone and is compacted away (cancel churn never
  /// grows the queue unboundedly — see Engine.CancelChurnBoundedMemory).
  bool cancel(EventId id);

  /// Fire the next event; returns false when the queue is empty.
  bool step();

  /// Time of the event step() fires next, or nullopt when none is
  /// pending. Drops cancelled entries at the head as it looks, hence not
  /// const.
  [[nodiscard]] std::optional<SimTime> next_time();

  /// Run until the queue drains (or stop() is called). Returns the number
  /// of events fired.
  std::size_t run();

  /// Run until simulated time would exceed `t_end`; events scheduled at
  /// exactly t_end still fire. Returns events fired.
  std::size_t run_until(SimTime t_end);

  /// Make run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  /// Jump the clock forward to `t` (checkpoint restore). Only legal while
  /// no events are pending — restored work is rescheduled relative to the
  /// warped clock afterwards. Returns false (and leaves the clock
  /// untouched) on an illegal call: live events pending, or `t` behind
  /// now(). Callers must treat false as a checkpoint-restore bug, not a
  /// soft no-op.
  [[nodiscard]] bool warp_to(SimTime t) noexcept;

  [[nodiscard]] bool empty() const noexcept { return pool_.live_count() == 0; }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return pool_.live_count();
  }
  [[nodiscard]] std::uint64_t fired_events() const noexcept { return fired_; }

  /// Queue entries currently held (live events + not-yet-compacted
  /// tombstones + the in-flight batch). Exposed so tests can assert the
  /// tombstone bound under schedule/cancel churn.
  [[nodiscard]] std::size_t scheduler_entries() const noexcept {
    return heap_.size() + (batch_.size() - batch_pos_);
  }

 private:
  /// One queue entry. Ordering is lexicographic on (time, seq): seq is
  /// the engine's global insertion counter, so equal-timestamp events
  /// fire in insertion order.
  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    EventId id = 0;
  };
  /// Heap comparator: the earliest (time, seq) sits at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void pop_heap_top();
  /// Compact the heap when lazily-cancelled tombstones outnumber live
  /// entries (amortized O(1) per cancel: a compaction of k entries
  /// reclaims >= k/2 tombstones, each paid for by one cancel).
  void maybe_compact();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  EventPool pool_;
  std::vector<Entry> heap_;  ///< binary min-heap on (time, seq)
  /// Same-timestamp batch popped from the heap, consumed in (time, seq)
  /// order by step(). Entries cancelled mid-batch are skipped via a pool
  /// liveness check.
  std::vector<Entry> batch_;
  std::size_t batch_pos_ = 0;
};

}  // namespace impress::sim
