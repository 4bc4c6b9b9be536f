// Event profiler, modeled on RADICAL-Pilot's profiler.
//
// Every state transition in the runtime emits a (time, entity, event)
// record. The Fig-5 breakdown (Bootstrap / Exec setup / Running) is
// computed from these records, and tests assert ordering invariants on
// them (e.g. a task never runs before it is scheduled).
//
// Concurrency: record() appends to a per-thread buffer (discovered via a
// thread-local cache keyed on a process-unique profiler id), so executor
// threads never contend on a shared mutex — the only synchronization on
// the hot path is an uncontended per-buffer lock and one relaxed
// fetch_add that assigns the event its global sequence number. Readers
// merge the buffers and sort by sequence number, reconstructing the
// single record order the old global-mutex implementation produced.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace impress::hpc {

struct ProfileEvent {
  double time = 0.0;       ///< seconds (simulated or wall)
  std::string entity;      ///< uid, e.g. "task.000003"
  std::string event;       ///< e.g. "schedule", "exec_start"
  std::string info;        ///< free-form detail
};

/// Well-known event names shared by the executors and the reporters.
namespace events {
inline constexpr std::string_view kBootstrapStart = "bootstrap_start";
inline constexpr std::string_view kBootstrapStop = "bootstrap_stop";
inline constexpr std::string_view kSubmit = "submit";
inline constexpr std::string_view kSchedule = "schedule";
inline constexpr std::string_view kExecSetupStart = "exec_setup_start";
inline constexpr std::string_view kExecStart = "exec_start";
inline constexpr std::string_view kExecStop = "exec_stop";
inline constexpr std::string_view kDone = "done";
inline constexpr std::string_view kFailed = "failed";
inline constexpr std::string_view kCancelled = "cancelled";
// Fault-tolerance events (see docs/fault_tolerance.md).
inline constexpr std::string_view kRetry = "retry";        ///< retry scheduled
inline constexpr std::string_view kTimeout = "timeout";    ///< deadline hit
inline constexpr std::string_view kRequeue = "requeue";    ///< re-routed off a dead pilot
inline constexpr std::string_view kPilotFailed = "pilot_failed";
/// Spot capacity returned: a reclaimed pilot re-entered ACTIVE.
inline constexpr std::string_view kPilotReactivated = "pilot_reactivated";
}  // namespace events

class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void record(double time, std::string_view entity, std::string_view event,
              std::string_view info = {});

  /// All events in global record order (sequence-number merged).
  [[nodiscard]] std::vector<ProfileEvent> events() const;

  /// Events for a single entity, in record order.
  [[nodiscard]] std::vector<ProfileEvent> events_for(std::string_view entity) const;

  /// Time of the first occurrence of `event` for `entity`.
  [[nodiscard]] std::optional<double> time_of(std::string_view entity,
                                              std::string_view event) const;

  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Checkpoint restore: seed the profiler with `events` as the earliest
  /// records (fresh sequence numbers 0..n-1; later record() calls sort
  /// after them). Only meaningful on an empty profiler.
  void preload(const std::vector<ProfileEvent>& events);

 private:
  struct Entry {
    std::uint64_t seq = 0;
    ProfileEvent event;
  };
  struct Buffer {
    std::mutex mutex;  // guards entries (writer vs concurrent reader)
    std::vector<Entry> entries;
  };

  /// This thread's buffer for this profiler, creating and registering it
  /// on first use. Buffers live until the profiler is destroyed.
  [[nodiscard]] Buffer& local_buffer();
  /// Snapshot of all buffers, merged and sorted by sequence number.
  [[nodiscard]] std::vector<Entry> merged() const;

  const std::uint64_t id_;  ///< process-unique; keys the thread-local cache
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex registry_mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Total duration attributed to each phase across all tasks, over an
/// event stream in record order (Profiler::events()):
///   "exec_setup" = sum(exec_start - exec_setup_start)
///   "running"    = sum(exec_stop - exec_start)
///   "bootstrap"  = sum(bootstrap_stop - bootstrap_start)
[[nodiscard]] std::map<std::string, double> phase_durations(
    std::span<const ProfileEvent> stream);

}  // namespace impress::hpc
