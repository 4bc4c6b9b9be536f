// The observability bundle the runtime threads through its layers: one
// Tracer (always-on lifecycle marks, optional spans) + one MetricsRegistry
// + the pre-registered handle set (RuntimeMetrics) every hot path writes
// through. Sessions own one (rp::Session::observability()) and hand it by
// reference to the TaskManager, pilots and executors; campaigns harvest it
// into CampaignResult at the end of run().
//
// Naming conventions (see docs/observability.md):
//   metrics:  impress_<layer>_<noun>[_<unit>]  e.g. impress_tasks_done,
//             impress_exec_setup_seconds. Counters count events; gauges
//             are instantaneous; histograms carry an explicit unit.
//   spans:    <layer>.<what>[.<detail>]  e.g. stage.fold.c3,
//             task.000012, attempt.2, fold.predict. Categories come from
//             obs::categories and give the trace its nesting levels.

#pragma once

#include <array>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace impress::obs {

/// Metric names (single source of truth for runtime + exporters + tests).
namespace names {
// task manager
inline constexpr std::string_view kTasksSubmitted = "impress_tasks_submitted";
inline constexpr std::string_view kTasksDone = "impress_tasks_done";
inline constexpr std::string_view kTasksFailed = "impress_tasks_failed";
inline constexpr std::string_view kTasksCancelled = "impress_tasks_cancelled";
inline constexpr std::string_view kTasksRetried = "impress_tasks_retried";
inline constexpr std::string_view kTasksTimedOut = "impress_tasks_timed_out";
inline constexpr std::string_view kTasksRequeued = "impress_tasks_requeued";
inline constexpr std::string_view kTasksOutstanding =
    "impress_tasks_outstanding";
// scheduler / pilot
inline constexpr std::string_view kSchedulerEnqueues =
    "impress_scheduler_enqueues";
inline constexpr std::string_view kSchedulerPlacements =
    "impress_scheduler_placements";
inline constexpr std::string_view kSchedulerTicks = "impress_scheduler_ticks";
// executor phase durations (seconds)
inline constexpr std::string_view kExecSetupSeconds =
    "impress_exec_setup_seconds";
inline constexpr std::string_view kTaskRunSeconds = "impress_task_run_seconds";
// coordinator
inline constexpr std::string_view kPipelinesStarted =
    "impress_pipelines_started";
inline constexpr std::string_view kPipelinesFinished =
    "impress_pipelines_finished";
inline constexpr std::string_view kPipelinesActive = "impress_pipelines_active";
inline constexpr std::string_view kSubpipelinesSpawned =
    "impress_subpipelines_spawned";
inline constexpr std::string_view kPipelineMessages =
    "impress_channel_pipeline_messages";
inline constexpr std::string_view kCompletionMessages =
    "impress_channel_completion_messages";
inline constexpr std::string_view kStageGenerate = "impress_stage_generate";
inline constexpr std::string_view kStageRefine = "impress_stage_refine";
inline constexpr std::string_view kStageFold = "impress_stage_fold";
// persistence (cold path: looked up by name in the checkpoint sink, not
// part of the pre-registered RuntimeMetrics bundle)
inline constexpr std::string_view kCheckpointsWritten =
    "impress_checkpoints_written";
// campaign fabric (src/net; docs/fabric.md). Per-message-type frame
// counters follow "impress_fabric_tx_<type>" / "impress_fabric_rx_<type>"
// with <type> from kFabricMsgTypeNames, indexed by net::type_index — the
// array order mirrors the MsgType values in net/wire.hpp.
inline constexpr std::array<std::string_view, 7> kFabricMsgTypeNames = {
    "hello",     "assign_shard",     "task_submit", "task_result",
    "heartbeat", "checkpoint_shard", "worker_dead"};
inline constexpr std::string_view kFabricWorkersDead =
    "impress_fabric_workers_dead";
inline constexpr std::string_view kFabricReassignments =
    "impress_fabric_reassignments";
inline constexpr std::string_view kFabricCheckpointsStored =
    "impress_fabric_checkpoints_stored";
inline constexpr std::string_view kFabricResubmits =
    "impress_fabric_resubmits";
inline constexpr std::string_view kFabricStaleFrames =
    "impress_fabric_stale_frames";
}  // namespace names

/// Pre-registered handles for every runtime metric: built once at session
/// construction, then passed around as raw pointers so hot paths never do
/// a string lookup (handles stay valid as long as the registry lives).
struct RuntimeMetrics {
  // task manager
  Counter* tasks_submitted = nullptr;
  Counter* tasks_done = nullptr;
  Counter* tasks_failed = nullptr;
  Counter* tasks_cancelled = nullptr;
  Counter* tasks_retried = nullptr;
  Counter* tasks_timed_out = nullptr;
  Counter* tasks_requeued = nullptr;
  Gauge* tasks_outstanding = nullptr;
  // scheduler / pilot
  Counter* scheduler_enqueues = nullptr;
  Counter* scheduler_placements = nullptr;
  Counter* scheduler_ticks = nullptr;
  // executor phases
  Histogram* exec_setup_seconds = nullptr;
  Histogram* task_run_seconds = nullptr;
  // coordinator
  Counter* pipelines_started = nullptr;
  Counter* pipelines_finished = nullptr;
  Gauge* pipelines_active = nullptr;
  Counter* subpipelines_spawned = nullptr;
  Counter* pipeline_messages = nullptr;
  Counter* completion_messages = nullptr;
  Counter* stage_generate = nullptr;
  Counter* stage_refine = nullptr;
  Counter* stage_fold = nullptr;

  [[nodiscard]] static RuntimeMetrics registered(MetricsRegistry& registry);
};

/// Pre-registered handles for the campaign fabric coordinator (src/net).
/// tx/rx are indexed by net::type_index(MsgType) — same order as
/// names::kFabricMsgTypeNames. Same contract as RuntimeMetrics: one
/// registration up front, only atomic bumps on the message pump.
struct FabricMetrics {
  static constexpr std::size_t kMsgTypes = 7;
  std::array<Counter*, kMsgTypes> tx{};
  std::array<Counter*, kMsgTypes> rx{};
  Counter* workers_dead = nullptr;
  Counter* reassignments = nullptr;
  Counter* checkpoints_stored = nullptr;
  Counter* resubmits = nullptr;
  Counter* stale_frames = nullptr;  ///< epoch-fenced discards

  [[nodiscard]] static FabricMetrics registered(MetricsRegistry& registry);
};

/// One tracer + one registry + the runtime handle bundle. Spans and
/// metrics are disabled by default, so a default-constructed bundle is the
/// uninstrumented case (it still records lifecycle marks); each axis is
/// independently switchable (SessionConfig.enable_tracing /
/// enable_metrics).
class Observability {
 public:
  struct Config {
    bool tracing = false;
    bool metrics = false;
  };

  Observability();  // spans and metrics disabled; defined below
  explicit Observability(Config config)
      : tracer_(config.tracing),
        registry_(config.metrics),
        metrics_(RuntimeMetrics::registered(registry_)) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  /// The pre-registered handle bundle (never null members).
  [[nodiscard]] const RuntimeMetrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  Tracer tracer_;
  MetricsRegistry registry_;
  RuntimeMetrics metrics_;
};

inline Observability::Observability() : Observability(Config{}) {}

}  // namespace impress::obs
