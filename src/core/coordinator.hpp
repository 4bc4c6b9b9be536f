// The pipelines coordinator (paper §II-B/D).
//
// Manages the concurrent, dynamic submission of pipelines over exactly two
// communication channels, as in the paper's implementation:
//
//   * the *pipeline channel* carries new pipeline instances to be
//     submitted — at campaign start and whenever the decision-making step
//     spawns a sub-pipeline;
//   * the *completion channel* carries completed tasks from the runtime
//     back to the decision-making loop.
//
// The coordinator keeps a global perspective on every pipeline's results
// (the design pool) and decides whether "low-quality" sequences should be
// re-processed with a new sub-pipeline. In sequential mode (CONT-V) it
// additionally serializes task submission so at most one task is ever in
// flight — the control's vanilla execution model.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/channel.hpp"
#include "core/pipeline.hpp"
#include "fold/fold_task.hpp"
#include "mpnn/mpnn_task.hpp"
#include "runtime/session.hpp"

namespace impress::core {

/// Footprint of the optional backbone-refinement task (CPU relaxation,
/// ~10 minutes on a handful of cores).
struct RefineDurationModel {
  double seconds = 600.0;
  double jitter_sigma = 0.15;
  std::uint32_t cores = 4;
  double cpu_intensity = 0.90;
};

/// Everything of the coordinator's state a campaign checkpoint captures at
/// a quiesce point. Pipelines appear in submission order; parked actions
/// in release (FIFO) order.
struct CoordinatorCheckpoint {
  struct ParkedAction {
    std::string pipeline_id;
    int kind = 0;  ///< Pipeline::Action::Kind, numeric
    std::optional<protein::Complex> fold_input;
    bool reuse_features = false;
    bool refined = false;
  };
  std::vector<Pipeline::Snapshot> pipelines;
  std::vector<ParkedAction> parked;
  std::map<std::string, int> subpipeline_count;        ///< per target name
  std::map<std::string, obs::SpanId> pipeline_spans;   ///< open spans, by id
  std::uint64_t root_pipelines = 0;
  std::uint64_t subpipelines = 0;
  std::uint64_t generator_tasks = 0;
  std::uint64_t refine_tasks = 0;
  std::uint64_t fold_tasks = 0;
  std::uint64_t fold_retries = 0;
  std::uint64_t failed_tasks = 0;
};

struct CoordinatorConfig {
  /// CONT-V execution: strictly one task in flight at any time.
  bool sequential = false;
  mpnn::MpnnDurationModel mpnn_durations;
  fold::FoldDurationModel fold_durations;
  RefineDurationModel refine_durations;
  /// Metric-noise multiplier applied to predictions of refined backbones.
  double refined_noise_factor = 0.65;
  /// Retry policy stamped onto every task the coordinator submits. The
  /// default keeps historical behaviour (single attempt); campaigns that
  /// inject faults raise max_attempts so transient failures are absorbed
  /// by the runtime instead of terminating the pipeline.
  rp::RetryPolicy task_retry;
};

class Coordinator {
 public:
  /// The campaign wiring beside `config`:
  ///   * `trace_root` — the span the coordinator parents its pipeline
  ///     spans under (the campaign root span); 0 = pipelines become
  ///     trace roots.
  ///   * `checkpoint_every` — a checkpoint becomes *pending* once this
  ///     many task completions were handled since the last one (0 never
  ///     cuts one). It is cut at the next quiesce point — no task in
  ///     flight, both channels empty — so the document never has to
  ///     describe a half-executed runtime task. Would-be task submissions
  ///     arriving while a checkpoint is pending are parked (before any
  ///     rng fork or task construction) and released, in order, once it
  ///     is durable.
  ///   * `checkpoint_sink` — invoked with the coordinator's state at
  ///     each cut. The sink (the campaign layer) adds session/runtime
  ///     state and persists the document; a sink that throws aborts the
  ///     campaign, modelling a crash during the write.
  Coordinator(
      rp::Session& session, CoordinatorConfig config,
      obs::SpanId trace_root = 0, std::size_t checkpoint_every = 0,
      std::function<void(const CoordinatorCheckpoint&)> checkpoint_sink = {});

  /// Deregisters the completion callback and waits for in-flight callback
  /// passes to drain, so a late-finishing task cannot signal the channels
  /// while they are being destroyed.
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Queue a root pipeline for submission (pipeline channel). Call before
  /// run(); the decision-making step uses the same channel at runtime.
  void add_pipeline(std::unique_ptr<Pipeline> pipeline);

  /// Adopt a checkpoint's coordinator state before run(). `pipelines`
  /// must be the rebuilt counterparts of `state.pipelines`, same order
  /// (the campaign layer rebuilds them via Pipeline::restore, resolving
  /// targets/generators/folders from its own configuration). Mutually
  /// exclusive with add_pipeline(); run() then releases the checkpoint's
  /// parked actions instead of submitting roots.
  void restore(const CoordinatorCheckpoint& state,
               std::vector<std::unique_ptr<Pipeline>> pipelines);

  /// Execute until every pipeline has completed or terminated. Drives the
  /// session event loop (simulated mode) or a dispatcher thread (threaded
  /// mode). Returns when the campaign is done.
  void run();

  // --- results & bookkeeping ---
  [[nodiscard]] std::vector<TrajectoryResult> results() const;
  [[nodiscard]] std::size_t pipelines_submitted() const noexcept {
    return root_pipelines_;
  }
  [[nodiscard]] std::size_t subpipelines_spawned() const noexcept {
    return subpipelines_;
  }
  [[nodiscard]] std::size_t generator_tasks() const noexcept {
    return generator_tasks_;
  }
  [[nodiscard]] std::size_t refine_tasks() const noexcept {
    return refine_tasks_;
  }
  [[nodiscard]] std::size_t fold_tasks() const noexcept { return fold_tasks_; }
  [[nodiscard]] std::size_t fold_retries() const noexcept {
    return fold_retries_;
  }
  [[nodiscard]] std::size_t failed_tasks() const noexcept {
    return failed_tasks_;
  }

 private:
  struct Completion {
    rp::TaskPtr task;
  };

  void drain_channels();
  void register_pipeline(std::unique_ptr<Pipeline> pipeline);
  void handle_completion(const rp::TaskPtr& task);
  void process_action(Pipeline* pipeline, Pipeline::Action action);
  void submit_generator_task(Pipeline* pipeline);
  void submit_refine_task(Pipeline* pipeline, protein::Complex input);
  void submit_fold_task(Pipeline* pipeline, protein::Complex input,
                        bool reuse_features, bool refined);
  void submit_or_queue(Pipeline* pipeline, rp::TaskDescription description);
  void maybe_submit_queued();
  void on_pipeline_finished(Pipeline* pipeline);
  void consider_subpipeline(Pipeline* pipeline);
  /// All runtime work drained: nothing in flight, nothing queued, both
  /// channels empty — the only moments a checkpoint may be cut.
  [[nodiscard]] bool quiesced() const noexcept;
  /// Cut a checkpoint if one is pending and the coordinator is quiesced:
  /// reset the cadence counters, hand the state to the sink, release the
  /// parked actions.
  void maybe_checkpoint();
  void release_parked();
  [[nodiscard]] CoordinatorCheckpoint checkpoint() const;
  [[nodiscard]] double pool_median_composite() const;
  [[nodiscard]] bool campaign_done() const;
  void notify_runtime();  ///< schedule a drain (simulated mode)
  /// Open a stage span (stage.<what>.c<N>) under the pipeline's span;
  /// returns 0 when tracing is off. Stamped into the stage's task as
  /// trace_parent and closed when the task's completion comes back.
  [[nodiscard]] obs::SpanId begin_stage_span(Pipeline* pipeline,
                                             std::string_view stage);

  rp::Session& session_;
  CoordinatorConfig config_;
  obs::SpanId trace_root_;
  std::size_t checkpoint_every_;
  std::function<void(const CoordinatorCheckpoint&)> checkpoint_sink_;
  std::size_t completion_callback_id_ = 0;
  /// Root stream for fold-task rngs: each fold task's rng is
  /// fold_rng_root_.fork(content_key), so duplicate fold inputs draw
  /// identical noise wherever they occur in the campaign: a re-attempted
  /// fold recomputes exactly what the lost attempt would have produced.
  common::Rng fold_rng_root_;

  // The paper's two channels.
  common::Channel<std::unique_ptr<Pipeline>> pipeline_channel_;
  common::Channel<Completion> completion_channel_;

  std::vector<std::unique_ptr<Pipeline>> pipelines_;
  std::unordered_map<std::string, Pipeline*> inflight_;  ///< task uid -> owner
  std::unordered_map<const Pipeline*, obs::SpanId> pipeline_spans_;
  std::deque<std::pair<Pipeline*, rp::TaskDescription>> queued_;  ///< sequential mode
  std::unordered_map<std::string, int> subpipeline_count_;  ///< per target
  /// last_composite() of every registered pipeline that has one, sorted
  /// ascending: the design pool pool_median_composite() reads. Updated
  /// where a composite can appear or change — register_pipeline, an
  /// accepted iteration in handle_completion, and restore.
  std::vector<double> pool_composites_;

  std::size_t active_pipelines_ = 0;
  std::size_t root_pipelines_ = 0;
  std::size_t subpipelines_ = 0;
  std::size_t generator_tasks_ = 0;
  std::size_t refine_tasks_ = 0;
  std::size_t fold_tasks_ = 0;
  std::size_t fold_retries_ = 0;
  std::size_t failed_tasks_ = 0;
  bool started_ = false;

  // --- checkpoint machinery ---
  /// Actions intercepted while a checkpoint is pending, in submission
  /// order. Parking happens before the task rng is forked, so the
  /// checkpoint captures the pipeline rng at exactly the position the
  /// resumed submission will fork from.
  std::vector<std::pair<Pipeline*, Pipeline::Action>> parked_;
  bool checkpoint_pending_ = false;
  bool resumed_ = false;
  std::size_t completions_since_checkpoint_ = 0;
};

}  // namespace impress::core
