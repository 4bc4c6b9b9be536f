#include "core/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace impress::core {

namespace {

void insert_sorted(std::vector<double>& sorted, double x) {
  sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x), x);
}

void erase_sorted(std::vector<double>& sorted, double x) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
  if (it == sorted.end() || *it != x)
    throw std::logic_error("Coordinator: composite missing from the pool");
  sorted.erase(it);
}

}  // namespace

Coordinator::Coordinator(rp::Session& session, CoordinatorConfig config)
    : session_(session),
      config_(std::move(config)),
      fold_rng_root_(session.fork_rng("coordinator.fold_rng")) {
  completion_callback_id_ =
      session_.task_manager().add_callback([this](const rp::TaskPtr& task) {
        completion_channel_.send(Completion{task});
        notify_runtime();
      });
}

Coordinator::~Coordinator() {
  // A worker finishing an unrelated task after campaign_done() could still
  // be inside the completion callback; drain before the channels die.
  session_.task_manager().remove_callback(completion_callback_id_);
}

void Coordinator::notify_runtime() {
  if (session_.mode() == rp::ExecutionMode::kSimulated)
    session_.engine().schedule_after(0.0, [this] { drain_channels(); });
}

void Coordinator::add_pipeline(std::unique_ptr<Pipeline> pipeline) {
  ++root_pipelines_;
  pipeline_channel_.send(std::move(pipeline));
}

void Coordinator::run() {
  if (started_) throw std::logic_error("Coordinator::run: already run");
  started_ = true;
  // A resumed coordinator re-submits the checkpoint's parked actions in
  // their original order instead of starting root pipelines.
  if (resumed_) release_parked();
  if (session_.mode() == rp::ExecutionMode::kSimulated) {
    drain_channels();  // submit root pipelines, creating the first events
    session_.run();
    drain_channels();  // nothing should remain; defensive
    return;
  }
  // Threaded mode: this thread is the decision-making loop.
  using namespace std::chrono_literals;
  while (!campaign_done()) {
    while (auto p = pipeline_channel_.try_receive())
      register_pipeline(std::move(*p));
    if (auto msg = completion_channel_.receive_for(20ms))
      handle_completion(msg->task);
    maybe_checkpoint();
  }
}

void Coordinator::drain_channels() {
  for (;;) {
    bool progressed = false;
    while (auto p = pipeline_channel_.try_receive()) {
      register_pipeline(std::move(*p));
      progressed = true;
    }
    while (auto msg = completion_channel_.try_receive()) {
      handle_completion(msg->task);
      progressed = true;
    }
    if (!progressed) break;
  }
  maybe_checkpoint();
}

void Coordinator::register_pipeline(std::unique_ptr<Pipeline> pipeline) {
  Pipeline* p = pipeline.get();
  pipelines_.push_back(std::move(pipeline));
  if (const auto c = p->last_composite()) insert_sorted(pool_composites_, *c);
  ++active_pipelines_;
  obs::Observability& ob = session_.observability();
  ob.metrics().pipeline_messages->inc();
  ob.metrics().pipelines_started->inc();
  ob.metrics().pipelines_active->add(1.0);
  if (obs::Tracer& tracer = ob.tracer(); tracer.enabled()) {
    const obs::SpanId span =
        tracer.begin(session_.now(), p->id(), obs::categories::kPipeline,
                     config_.trace_root);
    if (p->is_subpipeline()) tracer.attr(span, "subpipeline", "true");
    tracer.attr(span, "start_cycle", std::to_string(p->cycle() + 1));
    pipeline_spans_[p] = span;
  }
  IMPRESS_LOG(kInfo, "coordinator")
      << "pipeline " << p->id() << (p->is_subpipeline() ? " (sub)" : "")
      << " starting at cycle " << p->cycle() + 1;
  process_action(p, p->start());
}

void Coordinator::handle_completion(const rp::TaskPtr& task) {
  session_.observability().metrics().completion_messages->inc();
  const auto it = inflight_.find(task->uid());
  if (it == inflight_.end()) return;  // not ours (foreign task on session)
  Pipeline* p = it->second;
  inflight_.erase(it);
  ++completions_since_checkpoint_;
  if (config_.checkpoint.every_n_completions > 0 &&
      completions_since_checkpoint_ >= config_.checkpoint.every_n_completions)
    checkpoint_pending_ = true;
  // The stage span the coordinator opened at submit time closes when the
  // stage's task comes back, whatever the outcome.
  if (const obs::SpanId stage = task->description().trace_parent; stage != 0)
    session_.observability().tracer().end(stage, session_.now());

  if (task->state() != rp::TaskState::kDone) {
    ++failed_tasks_;
    IMPRESS_LOG(kWarn, "coordinator")
        << "task " << task->uid() << " " << rp::to_string(task->state())
        << " (" << task->error() << "); terminating pipeline " << p->id();
    p->abort();
    on_pipeline_finished(p);
    maybe_submit_queued();
    return;
  }

  const auto& app = task->description().metadata.at("app");
  const int cycle_before = p->cycle();
  const auto composite_before = p->last_composite();
  Pipeline::Action action = [&] {
    if (app == "proteinmpnn" || app == "generator")
      return p->on_generator_result(
          task->result_as<std::vector<mpnn::ScoredSequence>>());
    if (app == "refine")
      return p->on_refine_result(task->result_as<protein::Complex>());
    if (app == "alphafold")
      return p->on_fold_result(task->result_as<fold::Prediction>());
    throw std::logic_error("Coordinator: unknown app '" + app + "'");
  }();

  if (app == "alphafold" && action.kind == Pipeline::Action::Kind::kRunFold)
    ++fold_retries_;  // Stage-6 declining branch: next-ranked sequence

  // Decision-making runs whenever a design iteration lands, not only at
  // pipeline completion: a mid-campaign acceptance that still leaves the
  // target below the pool median triggers re-processing on idle resources.
  const bool accepted_iteration = p->cycle() > cycle_before;
  if (accepted_iteration) {
    if (composite_before) erase_sorted(pool_composites_, *composite_before);
    insert_sorted(pool_composites_, *p->last_composite());
  }
  process_action(p, std::move(action));
  if (accepted_iteration && !p->finished()) consider_subpipeline(p);
  maybe_submit_queued();
}

void Coordinator::process_action(Pipeline* pipeline, Pipeline::Action action) {
  // While a checkpoint is pending, task-submitting actions are parked so
  // the coordinator drains to a quiesce point. Parking precedes any rng
  // fork or TaskDescription construction, so the checkpoint captures the
  // exact state the released (or resumed) submission will start from.
  // Completion/termination actions still process — they submit nothing.
  const bool submits = action.kind == Pipeline::Action::Kind::kRunGenerator ||
                       action.kind == Pipeline::Action::Kind::kRunRefine ||
                       action.kind == Pipeline::Action::Kind::kRunFold;
  if (submits && checkpoint_pending_) {
    parked_.emplace_back(pipeline, std::move(action));
    return;
  }
  switch (action.kind) {
    case Pipeline::Action::Kind::kRunGenerator:
      submit_generator_task(pipeline);
      return;
    case Pipeline::Action::Kind::kRunRefine:
      submit_refine_task(pipeline, std::move(*action.fold_input));
      return;
    case Pipeline::Action::Kind::kRunFold:
      submit_fold_task(pipeline, std::move(*action.fold_input),
                       action.reuse_features, action.refined);
      return;
    case Pipeline::Action::Kind::kCompleted:
    case Pipeline::Action::Kind::kTerminated:
      on_pipeline_finished(pipeline);
      return;
  }
}

void Coordinator::submit_generator_task(Pipeline* pipeline) {
  ++generator_tasks_;
  auto gen = pipeline->generator_ptr();
  const protein::FitnessLandscape* landscape = &pipeline->target().landscape;
  protein::Complex input = pipeline->current();
  common::Rng rng = pipeline->fork_task_rng();

  auto work = [gen, landscape, input = std::move(input),
               rng](rp::Task&) mutable -> std::any {
    return gen->generate(input, *landscape, rng);
  };

  auto td = mpnn::make_mpnn_task(
      pipeline->id() + ".gen.c" + std::to_string(pipeline->cycle() + 1),
      /*n_structures=*/1, config_.mpnn_durations, std::move(work));
  td.metadata["pipeline"] = pipeline->id();
  session_.observability().metrics().stage_generate->inc();
  td.trace_parent = begin_stage_span(pipeline, "generate");
  submit_or_queue(pipeline, std::move(td));
}

void Coordinator::submit_refine_task(Pipeline* pipeline,
                                     protein::Complex input) {
  ++refine_tasks_;
  // Surrogate relaxation: on our idealized backbones the minimization is
  // a fixed point, so the science payload passes the complex through; the
  // physical effect is the cleaner predictor input (refined flag) and the
  // CPU time spent.
  auto work = [input = std::move(input)](rp::Task&) mutable -> std::any {
    return std::move(input);
  };
  rp::TaskDescription td;
  td.name = pipeline->id() + ".refine.c" + std::to_string(pipeline->cycle() + 1);
  td.resources = hpc::ResourceRequest{.cores = config_.refine_durations.cores,
                                      .gpus = 0,
                                      .mem_gb = 4.0};
  td.phases.push_back(rp::TaskPhase{
      .name = "relax",
      .duration_s = config_.refine_durations.seconds,
      .jitter_sigma = config_.refine_durations.jitter_sigma,
      .cores = config_.refine_durations.cores,
      .gpus = 0,
      .cpu_intensity = config_.refine_durations.cpu_intensity,
      .gpu_intensity = 0.0,
  });
  td.work = std::move(work);
  td.metadata["app"] = "refine";
  td.metadata["pipeline"] = pipeline->id();
  session_.observability().metrics().stage_refine->inc();
  td.trace_parent = begin_stage_span(pipeline, "refine");
  submit_or_queue(pipeline, std::move(td));
}

void Coordinator::submit_fold_task(Pipeline* pipeline, protein::Complex input,
                                   bool reuse_features, bool refined) {
  ++fold_tasks_;
  fold::AlphaFold folder = [&] {
    if (!refined) return pipeline->folder();
    // Refined backbones give the predictor a cleaner input.
    auto cfg = pipeline->folder().config();
    cfg.metric_noise *= config_.refined_noise_factor;
    return fold::AlphaFold(cfg);
  }();
  const protein::FitnessLandscape* landscape = &pipeline->target().landscape;
  // Content-derived rng (not fork_task_rng): resubmissions of the same
  // fold input get the same stream.
  common::Rng rng = fold_rng_root_.fork(
      fold::content_key(input, *landscape, folder.config()));
  auto work = [folder, landscape, input, rng](rp::Task&) mutable -> std::any {
    return folder.predict(input, *landscape, rng);
  };

  fold::FoldDurationModel durations = config_.fold_durations;
  durations.reuse_features = reuse_features;
  auto td = fold::make_fold_task(
      pipeline->id() + ".fold.c" + std::to_string(pipeline->cycle() + 1),
      durations, std::move(work));
  td.metadata["pipeline"] = pipeline->id();
  session_.observability().metrics().stage_fold->inc();
  td.trace_parent = begin_stage_span(pipeline, "fold");
  if (td.trace_parent != 0) {
    obs::Tracer& tracer = session_.observability().tracer();
    tracer.attr(td.trace_parent, "reuse_features",
                reuse_features ? "true" : "false");
    if (refined) tracer.attr(td.trace_parent, "refined", "true");
  }
  submit_or_queue(pipeline, std::move(td));
}

obs::SpanId Coordinator::begin_stage_span(Pipeline* pipeline,
                                          std::string_view stage) {
  obs::Tracer& tracer = session_.observability().tracer();
  if (!tracer.enabled()) return 0;
  const auto it = pipeline_spans_.find(pipeline);
  const obs::SpanId parent =
      it == pipeline_spans_.end() ? config_.trace_root : it->second;
  return tracer.begin(session_.now(),
                      "stage." + std::string(stage) + ".c" +
                          std::to_string(pipeline->cycle() + 1),
                      obs::categories::kStage, parent);
}

void Coordinator::submit_or_queue(Pipeline* pipeline,
                                  rp::TaskDescription description) {
  description.retry = config_.task_retry;
  if (config_.sequential && !inflight_.empty()) {
    queued_.emplace_back(pipeline, std::move(description));
    return;
  }
  const auto task = session_.task_manager().submit(std::move(description));
  inflight_[task->uid()] = pipeline;
}

void Coordinator::maybe_submit_queued() {
  while (!queued_.empty() && (!config_.sequential || inflight_.empty())) {
    auto [pipeline, td] = std::move(queued_.front());
    queued_.pop_front();
    const auto task = session_.task_manager().submit(std::move(td));
    inflight_[task->uid()] = pipeline;
    if (config_.sequential) return;
  }
}

void Coordinator::on_pipeline_finished(Pipeline* pipeline) {
  if (active_pipelines_ > 0) --active_pipelines_;
  ++finished_since_checkpoint_;
  if (config_.checkpoint.every_n_pipelines > 0 &&
      finished_since_checkpoint_ >= config_.checkpoint.every_n_pipelines)
    checkpoint_pending_ = true;
  obs::Observability& ob = session_.observability();
  ob.metrics().pipelines_finished->inc();
  ob.metrics().pipelines_active->sub(1.0);
  if (const auto it = pipeline_spans_.find(pipeline);
      it != pipeline_spans_.end()) {
    ob.tracer().attr(it->second, "iterations",
                     std::to_string(pipeline->history().size()));
    ob.tracer().end(it->second, session_.now());
    pipeline_spans_.erase(it);
  }
  IMPRESS_LOG(kInfo, "coordinator")
      << "pipeline " << pipeline->id() << " finished after "
      << pipeline->history().size() << " accepted iteration(s)";
  consider_subpipeline(pipeline);
}

double Coordinator::pool_median_composite() const {
  return common::percentile_sorted(pool_composites_, 50.0);
}

void Coordinator::consider_subpipeline(Pipeline* pipeline) {
  const ProtocolConfig& cfg = pipeline->config();
  if (!cfg.adaptive || !cfg.spawn_subpipelines) return;
  auto& count = subpipeline_count_[pipeline->target().name];
  if (count >= cfg.max_subpipelines_per_target) return;

  // Decision-making (paper §II-D): re-process low-quality designs. A
  // pipeline is low-quality when it was pruned before completing all M
  // cycles, or when its current design sits below the global pool median.
  const bool pruned = pipeline->finished() && pipeline->cycle() < cfg.cycles;
  const auto composite = pipeline->last_composite();
  const bool below_pool =
      composite && *composite < pool_median_composite() - cfg.subpipeline_margin;
  if (!pruned && !below_pool) return;

  ++count;
  ++subpipelines_;
  obs::Observability& ob = session_.observability();
  ob.metrics().subpipelines_spawned->inc();
  if (obs::Tracer& tracer = ob.tracer(); tracer.enabled()) {
    const obs::SpanId decision = tracer.instant(
        session_.now(), "decision.spawn_subpipeline",
        obs::categories::kDecision, config_.trace_root);
    tracer.attr(decision, "pipeline", pipeline->id());
    tracer.attr(decision, "reason",
                pruned ? "pruned-trajectory" : "below-pool-median");
  }
  const int start_cycle =
      std::min(pipeline->cycle(), cfg.cycles - 1);
  auto sub = std::make_unique<Pipeline>(
      pipeline->target().name + ".sub" + std::to_string(count),
      pipeline->target(), pipeline->current(), cfg, pipeline->generator_ptr(),
      pipeline->folder(), pipeline->fork_task_rng(), start_cycle,
      /*is_subpipeline=*/true, /*baseline=*/std::nullopt);
  IMPRESS_LOG(kInfo, "coordinator")
      << "decision: spawning sub-pipeline " << sub->id() << " ("
      << (pruned ? "pruned trajectory" : "below pool median") << ")";
  pipeline_channel_.send(std::move(sub));
  notify_runtime();
}

bool Coordinator::quiesced() const noexcept {
  return inflight_.empty() && queued_.empty() && pipeline_channel_.empty() &&
         completion_channel_.empty();
}

void Coordinator::maybe_checkpoint() {
  if (!checkpoint_pending_ || !quiesced()) return;
  // Reset before the sink runs: a resumed coordinator starts its cadence
  // counters at zero, so the uninterrupted run must too.
  checkpoint_pending_ = false;
  completions_since_checkpoint_ = 0;
  finished_since_checkpoint_ = 0;
  if (config_.checkpoint_sink) config_.checkpoint_sink(checkpoint());
  release_parked();
}

void Coordinator::release_parked() {
  std::vector<std::pair<Pipeline*, Pipeline::Action>> parked;
  parked.swap(parked_);
  for (auto& [pipeline, action] : parked)
    process_action(pipeline, std::move(action));
  maybe_submit_queued();
}

CoordinatorCheckpoint Coordinator::checkpoint() const {
  CoordinatorCheckpoint c;
  c.pipelines.reserve(pipelines_.size());
  for (const auto& p : pipelines_) c.pipelines.push_back(p->snapshot());
  c.parked.reserve(parked_.size());
  for (const auto& [pipeline, action] : parked_) {
    CoordinatorCheckpoint::ParkedAction pa;
    pa.pipeline_id = pipeline->id();
    pa.kind = static_cast<int>(action.kind);
    pa.fold_input = action.fold_input;
    pa.reuse_features = action.reuse_features;
    pa.refined = action.refined;
    c.parked.push_back(std::move(pa));
  }
  c.subpipeline_count.insert(subpipeline_count_.begin(),
                             subpipeline_count_.end());
  // Walk pipelines_ (registration order) rather than the unordered span
  // map: every span key was inserted by register_pipeline, so this covers
  // the map without exposing hash order to the checkpoint path.
  for (const auto& p : pipelines_)
    if (const auto it = pipeline_spans_.find(p.get());
        it != pipeline_spans_.end())
      c.pipeline_spans[p->id()] = it->second;
  c.root_pipelines = root_pipelines_;
  c.subpipelines = subpipelines_;
  c.generator_tasks = generator_tasks_;
  c.refine_tasks = refine_tasks_;
  c.fold_tasks = fold_tasks_;
  c.fold_retries = fold_retries_;
  c.failed_tasks = failed_tasks_;
  return c;
}

void Coordinator::restore(const CoordinatorCheckpoint& state,
                          std::vector<std::unique_ptr<Pipeline>> pipelines) {
  if (started_) throw std::logic_error("Coordinator::restore: already run");
  if (resumed_)
    throw std::logic_error("Coordinator::restore: already restored");
  if (root_pipelines_ != 0)
    throw std::logic_error(
        "Coordinator::restore: pipelines already added via add_pipeline");
  if (pipelines.size() != state.pipelines.size())
    throw std::invalid_argument(
        "Coordinator::restore: pipeline count mismatch");
  resumed_ = true;
  pipelines_ = std::move(pipelines);
  pool_composites_.clear();
  for (const auto& p : pipelines_)
    if (const auto c = p->last_composite()) pool_composites_.push_back(*c);
  std::sort(pool_composites_.begin(), pool_composites_.end());

  std::unordered_map<std::string, Pipeline*> by_id;
  for (const auto& p : pipelines_) by_id[p->id()] = p.get();
  active_pipelines_ = 0;
  for (const auto& p : pipelines_)
    if (!p->finished()) ++active_pipelines_;

  parked_.reserve(state.parked.size());
  for (const auto& pa : state.parked) {
    const auto it = by_id.find(pa.pipeline_id);
    if (it == by_id.end())
      throw std::invalid_argument(
          "Coordinator::restore: parked action references unknown pipeline " +
          pa.pipeline_id);
    Pipeline::Action action;
    action.kind = static_cast<Pipeline::Action::Kind>(pa.kind);
    action.fold_input = pa.fold_input;
    action.reuse_features = pa.reuse_features;
    action.refined = pa.refined;
    parked_.emplace_back(it->second, std::move(action));
  }
  subpipeline_count_.insert(state.subpipeline_count.begin(),
                            state.subpipeline_count.end());
  // Pipeline spans were preloaded (still open, same ids) into the tracer
  // by the session restore; rebind them so stage spans parent correctly
  // and the spans close when their pipelines finish.
  for (const auto& [id, span] : state.pipeline_spans)
    if (const auto it = by_id.find(id); it != by_id.end())
      pipeline_spans_[it->second] = span;

  root_pipelines_ = static_cast<std::size_t>(state.root_pipelines);
  subpipelines_ = static_cast<std::size_t>(state.subpipelines);
  generator_tasks_ = static_cast<std::size_t>(state.generator_tasks);
  refine_tasks_ = static_cast<std::size_t>(state.refine_tasks);
  fold_tasks_ = static_cast<std::size_t>(state.fold_tasks);
  fold_retries_ = static_cast<std::size_t>(state.fold_retries);
  failed_tasks_ = static_cast<std::size_t>(state.failed_tasks);
}

bool Coordinator::campaign_done() const {
  return active_pipelines_ == 0 && inflight_.empty() && queued_.empty() &&
         pipeline_channel_.empty() && completion_channel_.empty();
}

std::vector<TrajectoryResult> Coordinator::results() const {
  std::vector<TrajectoryResult> out;
  out.reserve(pipelines_.size());
  for (const auto& p : pipelines_) out.push_back(p->result());
  return out;
}

}  // namespace impress::core
