#include "obs/obs.hpp"

namespace impress::obs {

RuntimeMetrics RuntimeMetrics::registered(MetricsRegistry& registry) {
  RuntimeMetrics m;
  m.tasks_submitted = registry.counter(names::kTasksSubmitted);
  m.tasks_done = registry.counter(names::kTasksDone);
  m.tasks_failed = registry.counter(names::kTasksFailed);
  m.tasks_cancelled = registry.counter(names::kTasksCancelled);
  m.tasks_retried = registry.counter(names::kTasksRetried);
  m.tasks_timed_out = registry.counter(names::kTasksTimedOut);
  m.tasks_requeued = registry.counter(names::kTasksRequeued);
  m.tasks_outstanding = registry.gauge(names::kTasksOutstanding);
  m.scheduler_enqueues = registry.counter(names::kSchedulerEnqueues);
  m.scheduler_placements = registry.counter(names::kSchedulerPlacements);
  m.scheduler_ticks = registry.counter(names::kSchedulerTicks);
  m.exec_setup_seconds = registry.histogram(
      names::kExecSetupSeconds, Histogram::default_seconds_bounds());
  m.task_run_seconds = registry.histogram(
      names::kTaskRunSeconds, Histogram::default_seconds_bounds());
  m.pipelines_started = registry.counter(names::kPipelinesStarted);
  m.pipelines_finished = registry.counter(names::kPipelinesFinished);
  m.pipelines_active = registry.gauge(names::kPipelinesActive);
  m.subpipelines_spawned = registry.counter(names::kSubpipelinesSpawned);
  m.pipeline_messages = registry.counter(names::kPipelineMessages);
  m.completion_messages = registry.counter(names::kCompletionMessages);
  m.stage_generate = registry.counter(names::kStageGenerate);
  m.stage_refine = registry.counter(names::kStageRefine);
  m.stage_fold = registry.counter(names::kStageFold);
  return m;
}

FabricMetrics FabricMetrics::registered(MetricsRegistry& registry) {
  FabricMetrics m;
  for (std::size_t i = 0; i < kMsgTypes; ++i) {
    const std::string suffix(names::kFabricMsgTypeNames[i]);
    m.tx[i] = registry.counter("impress_fabric_tx_" + suffix);
    m.rx[i] = registry.counter("impress_fabric_rx_" + suffix);
  }
  m.workers_dead = registry.counter(names::kFabricWorkersDead);
  m.reassignments = registry.counter(names::kFabricReassignments);
  m.checkpoints_stored = registry.counter(names::kFabricCheckpointsStored);
  m.resubmits = registry.counter(names::kFabricResubmits);
  m.stale_frames = registry.counter(names::kFabricStaleFrames);
  return m;
}

}  // namespace impress::obs
