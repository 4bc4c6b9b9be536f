// Post-mortem analytics over the runtime's lifecycle marks and campaign
// traces — the numbers behind "middleware overhead" discussions
// (RADICAL-Analytics style): the Fig-5 phase breakdown, per-task
// wait/setup/run decomposition, concurrency profiles, aggregate overhead
// ratios, retry roll-ups, and the GPU-batching accounting replayed from a
// traced campaign's span timestamps.
//
// The marks are grouped by entity once, by tabulate(); every mark reader
// takes the TaskTable it returns.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hpc/node.hpp"
#include "obs/trace.hpp"

namespace impress::hpc {

/// Well-known lifecycle mark names (obs::Mark::event) shared by the
/// runtime and the readers below.
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

/// One attempt that ran: a kExecStart with the marks of its own attempt,
/// the entity's latest kSchedule and kExecSetupStart since its previous
/// kExecStart, and its next kExecStop. A time is -1 when its mark is
/// absent.
struct TaskRun {
  double schedule = -1.0;
  double setup = -1.0;
  double start = -1.0;
  double stop = -1.0;  ///< -1 while the attempt is still running
};

/// One entity's lifecycle, folded from its marks. A time is -1 when its
/// mark is absent.
struct TaskRow {
  std::string uid;
  double schedule = -1.0;         ///< first kSchedule
  double setup = -1.0;            ///< first kExecSetupStart
  double start = -1.0;            ///< first kExecStart
  double last_stop = -1.0;        ///< last kExecStop (the final attempt's)
  int attempts = 0;               ///< kSubmit count; > 1 means retried
  std::vector<double> retries{};  ///< times the retry policy fired
  std::vector<TaskRun> runs{};    ///< one per kExecStart, in mark order
};

/// The mark log folded once: what every reader below takes.
struct TaskTable {
  std::vector<TaskRow> rows;  ///< one per entity, in uid order
  /// Phase sums in seconds: each *_start paired with the same entity's
  /// next matching *_stop, added in mark order.
  double bootstrap_s = 0.0;
  double exec_setup_s = 0.0;
  double running_s = 0.0;
  double latest = 0.0;  ///< latest mark time (0 without marks)
  std::size_t timeouts = 0;        ///< kTimeout marks
  std::size_t requeues = 0;        ///< kRequeue marks
  std::size_t pilot_failures = 0;  ///< kPilotFailed marks
};

/// Group `marks` (in record order, as obs::Tracer::marks() returns them)
/// by entity in one pass.
[[nodiscard]] TaskTable tabulate(std::span<const obs::Mark> marks);

/// Total duration attributed to each phase across all tasks:
///   "exec_setup" = sum(exec_start - exec_setup_start)
///   "running"    = sum(exec_stop - exec_start)
///   "bootstrap"  = sum(bootstrap_stop - bootstrap_start)
[[nodiscard]] std::map<std::string, double> phase_durations(
    const TaskTable& table);

/// One task's timing decomposition (all in seconds), within one attempt.
struct TaskTiming {
  std::string uid;
  double wait = 0.0;   ///< schedule -> exec_setup_start (queue time)
  double setup = 0.0;  ///< exec_setup_start -> exec_start
  double run = 0.0;    ///< exec_start -> exec_stop
};

/// Decompose each task's last run (TaskRow::runs.back(), the final attempt
/// that reached exec_start), in uid order. Tasks whose last run misses any
/// of the four marks are skipped.
[[nodiscard]] std::vector<TaskTiming> task_timings(const TaskTable& table);

struct TimingSummary {
  std::size_t tasks = 0;
  double mean_wait = 0.0;
  double p95_wait = 0.0;
  double mean_setup = 0.0;
  double mean_run = 0.0;
  /// Middleware overhead: (wait + setup) / (wait + setup + run) over the
  /// aggregate, in [0,1].
  double overhead_fraction = 0.0;
};

[[nodiscard]] TimingSummary summarize_timings(const TaskTable& table);

/// Average number of concurrently *running* tasks per time bin over
/// [0, t_end] (t_end <= 0 uses the latest exec_stop): every attempt counts
/// from its exec_start to its exec_stop, or to t_end while still running.
/// The empirical concurrency profile behind the utilization figures.
[[nodiscard]] std::vector<double> concurrency_series(const TaskTable& table,
                                                     std::size_t bins,
                                                     double t_end = 0.0);

/// Peak of the concurrency profile (exact, not binned) over the attempts
/// that reached exec_stop.
[[nodiscard]] std::size_t peak_concurrency(const TaskTable& table);

/// Fault-tolerance roll-up: how much of the campaign's work was
/// first-attempt vs recovery.
struct RetrySummary {
  std::size_t retries = 0;        ///< failed attempts resubmitted (kRetry)
  std::size_t timeouts = 0;       ///< attempt-deadline evictions (kTimeout)
  std::size_t requeues = 0;       ///< tasks re-routed off a pilot (kRequeue)
  std::size_t pilot_failures = 0; ///< pilot outages (kPilotFailed)
  std::size_t tasks_retried = 0;  ///< distinct tasks with more than 1 attempt
  int max_attempts = 0;           ///< largest attempt count observed
};

[[nodiscard]] RetrySummary summarize_retries(const TaskTable& table);

/// Attempts per task uid: the number of kSubmit marks recorded for it
/// (>= 1 for anything submitted; > 1 means the retry policy fired).
[[nodiscard]] std::map<std::string, int> attempt_counts(const TaskTable& table);

/// Roll-up of a memoization cache's behaviour over a run. Campaigns keep
/// no fold memo, so core::CampaignResult::fold_cache, the one user, is
/// always zero; it stays until the perfbench harness stops reading it.
struct CacheSummary {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;  ///< resident entries at sampling time
  /// Inserts that lost a duplicate-key race: two threads missed the same
  /// key, both computed, the second computation was discarded in favour
  /// of the incumbent. Needed for conservation: every miss either sits
  /// resident, was evicted, or was a duplicate discard —
  /// misses == entries + evictions + duplicate_discards.
  std::size_t duplicate_discards = 0;

  [[nodiscard]] std::size_t lookups() const noexcept { return hits + misses; }
  /// Fraction of lookups served from cache, in [0,1] (0 when unused).
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

// ---------------------------------------------------------------------------
// GPU batching accounting.
//
// A resident inference server coalesces fold/design model calls into GPU
// batches: up to max_batch requests share one dispatch, amortizing weight
// residency and launch setup at the cost of bounded (max_linger_s)
// queueing delay. Batching never changes what a model call returns, so
// the accounting is derived after the fact from the request and
// completion timestamps a traced campaign records, not wired through the
// executors. What batching would have saved is reported as modeled GPU
// seconds per stream:
//
//   batch_latency(n) = (setup_s + n * per_item_s) / speed_factor
//
// so a full batch of 8 under a setup cost 6x the per-item cost models the
// classic ~4x throughput gain over one-request-per-dispatch, and a mixed
// fleet's slowest GPU generation (slowest_gpu_speed) bounds every batch.

/// When a dispatch closes: at max_batch requests, or when a request
/// arrives more than max_linger_s after the open batch's first member
/// (the late request starts the next batch — the server would have
/// launched the stale one long before).
struct BatchPolicy {
  std::uint32_t max_batch = 8;
  double max_linger_s = 600.0;
};

/// Per-dispatch GPU latency model: fixed setup (weight load, graph
/// capture, host/device staging) plus a linear per-item cost.
struct GpuCostModel {
  double setup_s = 360.0;
  double per_item_s = 1800.0;

  /// Modeled latency of one dispatch of n items on a GPU `speed_factor`
  /// times faster than the calibration baseline.
  [[nodiscard]] double batch_latency_s(std::uint32_t n,
                                       double speed_factor = 1.0) const;
};

/// Lifetime accounting of one request stream (fold or design).
struct StreamStats {
  std::uint64_t requests = 0;    ///< all requests
  std::uint64_t batches = 0;     ///< dispatches (closed batches)
  std::uint32_t max_batch = 0;   ///< largest batch dispatched
  double batched_gpu_s = 0.0;    ///< sum of batch_latency over dispatches
  double unbatched_gpu_s = 0.0;  ///< sum of batch_latency(1) per dispatch item

  /// Modeled throughput gain of batching: unbatched / batched GPU
  /// seconds for the same work (1.0 when nothing was dispatched).
  [[nodiscard]] double speedup() const noexcept;
};

/// Online batch-size selection from observed stage-completion cadence.
/// Pure arithmetic on virtual timestamps, so decisions replay bit-for-bit:
/// an EWMA of completion gaps estimates the arrival rate, and the chosen
/// size is the largest batch that fills within the linger budget at that
/// rate,
///
///   batch = clamp(1 + floor(max_linger_s / ewma_gap), min, max).
class BatchTuner {
 public:
  struct Config {
    double ewma_alpha = 0.25;      ///< weight of the newest gap
    std::uint32_t min_batch = 1;
    std::uint32_t max_batch = 16;
    double max_linger_s = 600.0;   ///< queueing-delay budget per batch
  };

  BatchTuner(Config config, std::uint32_t initial_batch);

  /// Observe one stage completion at virtual time now_s. Returns the new
  /// batch size when the decision changes it, nullopt otherwise.
  [[nodiscard]] std::optional<std::uint32_t> observe(double now_s);

  [[nodiscard]] std::uint32_t batch_size() const noexcept { return batch_; }
  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  Config config_;
  std::uint32_t batch_;
  double last_s_ = -1.0;
  double ewma_gap_ = 0.0;
  bool have_gap_ = false;
  std::uint64_t decisions_ = 0;
};

struct BatchingConfig {
  BatchPolicy policy;
  /// Fold dispatches: setup ~ weight residency + compilation, per-item
  /// ~ the calibrated AlphaFold inference stage.
  GpuCostModel fold_cost{.setup_s = 360.0, .per_item_s = 1800.0};
  /// Design (ProteinMPNN-class) dispatches: far lighter weights.
  GpuCostModel design_cost{.setup_s = 60.0, .per_item_s = 360.0};
  /// Slowest GPU generation serving the streams (see slowest_gpu_speed).
  double speed_factor = 1.0;
  /// Feed fold completions to a BatchTuner; its size applies to later
  /// batches of both streams.
  bool adaptive = false;
  BatchTuner::Config tuner;
};

struct BatchingReport {
  StreamStats fold;
  StreamStats design;
  std::uint32_t batch_size = 0;       ///< final (possibly tuned) max batch
  std::uint64_t tuner_decisions = 0;  ///< batch-size changes applied
};

/// The batching state machine, fed request and completion events in
/// arrival order.
class BatchAccountant {
 public:
  explicit BatchAccountant(BatchingConfig config);

  /// A fold request at virtual time t.
  void fold_request(double t);
  void design_request(double t);
  /// A fold stage completed at t (feeds the tuner when adaptive).
  void fold_completion(double t);

  /// Accounting so far, with any open batches reported as if dispatched
  /// (the server would flush them at linger expiry).
  [[nodiscard]] BatchingReport report() const;

 private:
  struct Stream {
    StreamStats stats;
    std::uint32_t open = 0;   ///< requests in the open batch
    double open_since = 0.0;  ///< arrival of the open batch's first member
  };

  void request(Stream& stream, const GpuCostModel& cost, double t);
  void close_batch(StreamStats& stats, std::uint32_t n,
                   const GpuCostModel& cost) const;

  BatchingConfig config_;
  std::uint32_t batch_size_;  ///< live max batch (tuned when adaptive)
  Stream fold_;
  Stream design_;
  BatchTuner tuner_;
};

/// Replay a traced campaign's batching. Reads, in trace order: a fold
/// request per `fold.predict` span; a design request per generator-stage
/// attempt whose work ran, at its close; and a fold completion per
/// `stage.fold.*` span whose task ended DONE.
[[nodiscard]] BatchingReport replay_batching(
    const std::vector<obs::SpanRecord>& trace, const BatchingConfig& config);

/// Slowest GPU generation among the nodes that have GPUs (their minimum
/// gpu_speed_factor); 1.0 when none does.
[[nodiscard]] double slowest_gpu_speed(const std::vector<NodeSpec>& nodes);

}  // namespace impress::hpc
