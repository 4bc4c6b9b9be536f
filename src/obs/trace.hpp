// The runtime's one event recorder: always-on lifecycle marks plus
// optional structured spans, kept in one mutex-guarded log in record order.
//
// Marks are RADICAL-Pilot's profiler records: every runtime state
// transition (submit, schedule, exec_start, ...; names in hpc/analytics.hpp
// hpc::events) emits one (time, entity, event, info) record. They are
// always recorded — the Fig 4/5 phase breakdown, the Gantt chart and the
// retry/attempt counts in CampaignResult are derived from them — and read
// back in record order by marks().
//
// Spans are the optional trace: RAII intervals [start, end] with a name, a
// category, an optional parent span and string attributes, exported as a
// chrome://tracing / Perfetto-loadable JSON document (obs/export.hpp). Span
// trees carry campaign / pipeline / task / attempt identity, so a fold
// retry shows up as a sibling "attempt" span under its task, inside its
// pipeline-iteration stage span.
//
// Every span call (begin, end, attr) takes the next number from one
// counter under the log's lock: a begin's number is its span's id and open
// ordinal, an end's is the close ordinal, and an ignored call (a second
// close, an attr on an unknown id) still consumes one. Marks take no
// number, so span ids and ordinals do not depend on how many marks were
// recorded. spans(), marks() and size() read the log as it stands.
//
// Determinism contract (pinned by tests/obs/test_golden_trace.cpp and the
// Determinism suite): recording never draws from any rng and never feeds
// back into the traced computation, so enabling spans must not perturb
// campaign results. In simulated mode the span tree (names, nesting, ordinal order) is itself
// a pure function of the seed.
//
// Cost model: with spans disabled (the default) a span call site costs one
// branch and records nothing; a mark costs one appended record. The lock
// is an untracked leaf: it is taken under runtime locks (Pilot::mutex_
// among others) and calls out to nothing while held. It is not
// contended: the benchmark workloads record from one thread, and the
// busiest threaded campaign makes about 10,000 calls a second
// (docs/performance.md §4).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace impress::obs {

/// Identifies one span within one Tracer; 0 means "no span".
using SpanId = std::uint64_t;

/// Well-known span categories (the nesting levels of a campaign trace).
namespace categories {
inline constexpr std::string_view kCampaign = "campaign";
inline constexpr std::string_view kPipeline = "pipeline";
inline constexpr std::string_view kStage = "stage";
inline constexpr std::string_view kTask = "task";
inline constexpr std::string_view kAttempt = "attempt";
inline constexpr std::string_view kPhase = "phase";
inline constexpr std::string_view kWork = "work";
inline constexpr std::string_view kDecision = "decision";
}  // namespace categories

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root
  std::string name;
  std::string category;
  double start = 0.0;
  double end = -1.0;  ///< < start means the span was never closed
  std::uint64_t open_seq = 0;   ///< global ordinal of the begin event
  std::uint64_t close_seq = 0;  ///< 0 when never closed
  std::vector<std::pair<std::string, std::string>> attrs;

  [[nodiscard]] bool closed() const noexcept { return end >= start; }
};

/// One lifecycle mark: a runtime state transition.
struct Mark {
  double time = 0.0;   ///< seconds (simulated or wall)
  std::string entity;  ///< uid, e.g. "task.000003"
  std::string event;   ///< e.g. "schedule", "exec_start" (hpc::events)
  std::string info;    ///< free-form detail
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Whether spans are recorded. Marks are recorded either way.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a lifecycle mark (always on).
  void mark(double time, std::string_view entity, std::string_view event,
            std::string_view info = {});
  /// All marks in record order. Thread-safe snapshot.
  [[nodiscard]] std::vector<Mark> marks() const;

  /// Wire the clock used by ScopedSpan and now(); spans recorded through
  /// the explicit-time overloads never consult it.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

  /// Open a span at `time`; returns its id (0 when disabled, which every
  /// other member accepts and ignores).
  [[nodiscard]] SpanId begin(double time, std::string_view name,
                             std::string_view category, SpanId parent = 0);
  /// Close a span. Closing id 0 (or twice) is a no-op.
  void end(SpanId id, double time);
  /// Attach a key/value attribute to an open-or-closed span.
  void attr(SpanId id, std::string_view key, std::string_view value);
  /// Zero-duration marker span (begin and end at `time`).
  SpanId instant(double time, std::string_view name,
                 std::string_view category, SpanId parent = 0);

  /// All spans, ordered by open ordinal, with their attributes and close
  /// times. Thread-safe snapshot.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Number of spans opened so far.
  [[nodiscard]] std::size_t size() const;
  /// Drop every mark and span, preloaded ones included.
  void clear();

  /// Checkpoint restore: seed the log with the marks and spans recorded
  /// before the cut; later records follow them. Span numbering continues
  /// at `next_seq` (the value checkpointed from the original run, so
  /// post-resume seqs match the uninterrupted run's), and post-resume
  /// end()/attr() calls on a preloaded span id update its record. Spans
  /// and `next_seq` are ignored when spans are disabled. Throws
  /// std::invalid_argument (and keeps nothing) unless the span ids are
  /// strictly increasing and below `next_seq`, as a tracer records them.
  /// Call once, on a tracer that has recorded nothing, before any
  /// concurrent use.
  void preload(std::vector<Mark> marks, std::vector<SpanRecord> spans,
               std::uint64_t next_seq);
  /// Next seq the tracer will assign (checkpointed alongside spans()).
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

 private:
  /// The record of span `id`, or nullptr when no span has that id. Call
  /// with mutex_ held.
  [[nodiscard]] SpanRecord* find(SpanId id);

  const bool enabled_;
  std::function<double()> clock_;
  /// Seqs double as span ids (a begin's seq is its span's id); starts at 1
  /// so id 0 stays "no span". Taken under mutex_, so spans_ is ordered by
  /// id and open ordinal.
  std::atomic<std::uint64_t> next_seq_{1};
  mutable std::mutex mutex_;  // guards marks_ and spans_
  std::vector<Mark> marks_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction using the tracer's clock, closes on
/// destruction. Null/disabled tracer => fully inert object.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category,
             SpanId parent = 0);
  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        id_(std::exchange(other.id_, 0)),
        ambient_(std::exchange(other.ambient_, false)) {}
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      close();
      tracer_ = std::exchange(other.tracer_, nullptr);
      id_ = std::exchange(other.id_, 0);
      ambient_ = std::exchange(other.ambient_, false);
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  [[nodiscard]] SpanId id() const noexcept { return id_; }
  void attr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr && id_ != 0) tracer_->attr(id_, key, value);
  }
  /// Close early (idempotent).
  void close();

 private:
  friend ScopedSpan ambient_span(std::string_view, std::string_view);
  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  bool ambient_ = false;  ///< pushed onto the ambient parent stack
};

/// Ambient trace context: the executor installs (tracer, parent span)
/// around a task's work function so library code deep inside the call —
/// the mpnn sampler, the fold surrogate — can open child
/// spans without any tracer plumbing through their APIs. Purely
/// thread-local; costs one pointer push/pop when tracing is enabled and a
/// single branch when it is not.
class AmbientContext {
 public:
  AmbientContext(Tracer* tracer, SpanId parent) noexcept;
  ~AmbientContext();
  AmbientContext(const AmbientContext&) = delete;
  AmbientContext& operator=(const AmbientContext&) = delete;

 private:
  bool pushed_ = false;
};

/// The innermost ambient tracer/parent for this thread (nullptr/0 when no
/// enabled context is installed).
[[nodiscard]] Tracer* ambient_tracer() noexcept;
[[nodiscard]] SpanId ambient_parent() noexcept;

/// RAII child span under the current ambient context (inert without one).
/// While alive it *is* the ambient parent, so nested calls nest naturally.
[[nodiscard]] ScopedSpan ambient_span(
    std::string_view name, std::string_view category = categories::kWork);

}  // namespace impress::obs
