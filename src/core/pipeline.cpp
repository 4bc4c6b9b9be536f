#include "core/pipeline.hpp"

#include <stdexcept>

#include "common/stats.hpp"
#include "protein/fasta.hpp"

namespace impress::core {

Pipeline::Pipeline(std::string id, const protein::DesignTarget& target,
                   protein::Complex start, ProtocolConfig config,
                   std::shared_ptr<const SequenceGenerator> generator,
                   fold::AlphaFold folder, common::Rng rng, int start_cycle,
                   bool is_subpipeline,
                   std::optional<fold::FoldMetrics> baseline)
    : id_(std::move(id)),
      target_(&target),
      current_(std::move(start)),
      config_(config),
      generator_(std::move(generator)),
      folder_(std::move(folder)),
      rng_(rng),
      cycle_(start_cycle),
      is_sub_(is_subpipeline),
      last_metrics_(baseline) {
  if (!generator_) throw std::invalid_argument("Pipeline: null generator");
  if (config_.cycles <= 0) throw std::invalid_argument("Pipeline: cycles <= 0");
  if (start_cycle < 0 || start_cycle >= config_.cycles)
    throw std::invalid_argument("Pipeline: start_cycle out of range");
}

common::Rng Pipeline::fork_task_rng() { return rng_.fork(task_counter_++); }

bool Pipeline::cycle_is_adaptive() const noexcept {
  if (!config_.adaptive) return false;
  // `cycle_` counts completed cycles, so the cycle in progress is
  // cycle_ + 1 (1-based).
  if (!config_.adaptivity_in_final_cycle && cycle_ + 1 == config_.cycles)
    return false;
  return true;
}

Pipeline::Action Pipeline::start() {
  if (state_ != State::kIdle)
    throw std::logic_error("Pipeline::start: already started");
  return begin_cycle();
}

Pipeline::Action Pipeline::begin_cycle() {
  state_ = State::kAwaitGenerator;
  retries_this_cycle_ = 0;
  candidates_.clear();
  next_candidate_ = 0;
  return Action{.kind = Action::Kind::kRunGenerator,
                .fold_input = std::nullopt,
                .reuse_features = false,
                .refined = false};
}

Pipeline::Action Pipeline::on_generator_result(
    std::vector<mpnn::ScoredSequence> sequences) {
  if (state_ != State::kAwaitGenerator)
    throw std::logic_error("Pipeline: unexpected generator result");
  if (sequences.empty()) {
    finish(State::kTerminated);
    return Action{.kind = Action::Kind::kTerminated,
                  .fold_input = std::nullopt,
                  .reuse_features = false,
                  .refined = false};
  }
  // Stage 2: sort by log-likelihood.
  candidates_ = std::move(sequences);
  mpnn::sort_by_log_likelihood(candidates_);
  // Selection: the adaptive protocol walks the ranking from the top;
  // the control protocol (and a non-adaptive final cycle) picks randomly.
  const bool random_pick = config_.random_selection || !cycle_is_adaptive();
  next_candidate_ =
      random_pick ? rng_.below(static_cast<std::uint32_t>(candidates_.size()))
                  : 0;
  return select_and_fold(/*reuse_features=*/false);
}

Pipeline::Action Pipeline::select_and_fold(bool reuse_features) {
  pending_candidate_ = next_candidate_;
  protein::Complex input =
      current_.with_receptor(candidates_[pending_candidate_].sequence);
  if (config_.backbone_refinement) {
    state_ = State::kAwaitRefine;
    pending_reuse_features_ = reuse_features;
    return Action{.kind = Action::Kind::kRunRefine,
                  .fold_input = std::move(input),
                  .reuse_features = false,
                  .refined = false};
  }
  state_ = State::kAwaitFold;
  return Action{.kind = Action::Kind::kRunFold,
                .fold_input = std::move(input),
                .reuse_features =
                    reuse_features && config_.reuse_features_on_retry,
                .refined = false};
}

Pipeline::Action Pipeline::on_refine_result(protein::Complex refined) {
  if (state_ != State::kAwaitRefine)
    throw std::logic_error("Pipeline: unexpected refine result");
  state_ = State::kAwaitFold;
  return Action{.kind = Action::Kind::kRunFold,
                .fold_input = std::move(refined),
                .reuse_features = pending_reuse_features_ &&
                                  config_.reuse_features_on_retry,
                .refined = true};
}

Pipeline::Action Pipeline::on_fold_result(const fold::Prediction& prediction) {
  if (state_ != State::kAwaitFold)
    throw std::logic_error("Pipeline: unexpected fold result");
  const auto& best = prediction.best();

  // Feedback to learning generators: every evaluation, accepted or not.
  generator_->observe(candidates_[pending_candidate_].sequence,
                      best.metrics.composite());

  IterationRecord rec;
  rec.cycle = cycle_ + 1;
  rec.metrics = best.metrics;
  rec.sequence = candidates_[pending_candidate_].sequence.to_string();
  rec.true_fitness =
      target_->landscape.fitness(candidates_[pending_candidate_].sequence);
  rec.retries = retries_this_cycle_;

  const bool adaptive = cycle_is_adaptive();
  const bool improved =
      !last_metrics_ ||
      best.metrics.composite() > last_metrics_->composite();

  if (adaptive && !improved) {
    // Stage 6, declining branch: repeat Stages 4-5 with the next-ranked
    // sequence, up to the retry budget; then terminate the pipeline.
    ++retries_this_cycle_;
    ++total_retries_;
    if (retries_this_cycle_ <= config_.max_retries &&
        next_candidate_ + 1 < candidates_.size()) {
      ++next_candidate_;
      return select_and_fold(/*reuse_features=*/true);
    }
    finish(State::kTerminated);
    return Action{.kind = Action::Kind::kTerminated,
                  .fold_input = std::nullopt,
                  .reuse_features = false,
                  .refined = false};
  }

  // Accept: the new AlphaFold model seeds the next ProteinMPNN cycle. The
  // accepted candidate's receptor sequence is grafted explicitly rather
  // than trusted from the predictor output, so a misbehaving predictor
  // cannot silently derail the trajectory.
  rec.accepted = true;
  history_.push_back(std::move(rec));
  last_metrics_ = best.metrics;
  current_ = protein::Complex{best.structure}.with_receptor(
      candidates_[pending_candidate_].sequence);
  current_.structure.set_name(target_->name);
  ++cycle_;
  if (cycle_ >= config_.cycles) {
    finish(State::kDone);
    return Action{.kind = Action::Kind::kCompleted,
                  .fold_input = std::nullopt,
                  .reuse_features = false,
                  .refined = false};
  }
  return begin_cycle();
}

void Pipeline::finish(State final_state) noexcept {
  state_ = final_state;
  std::vector<mpnn::ScoredSequence>().swap(candidates_);
}

std::string Pipeline::current_fasta() const {
  std::vector<protein::FastaRecord> records;
  records.reserve(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    protein::FastaRecord r;
    r.id = id_ + ".c" + std::to_string(cycle_ + 1) + ".s" + std::to_string(i);
    r.description =
        "log_likelihood=" +
        common::format_fixed(candidates_[i].log_likelihood, 4);
    r.sequence = candidates_[i].sequence;
    records.push_back(std::move(r));
  }
  return protein::to_fasta(records);
}

std::optional<double> Pipeline::last_composite() const {
  if (!last_metrics_) return std::nullopt;
  return last_metrics_->composite();
}

Pipeline::Snapshot Pipeline::snapshot() const {
  Snapshot snap;
  snap.id = id_;
  snap.target_name = target_->name;
  snap.current = current_;
  snap.rng = rng_.save_state();
  snap.task_counter = task_counter_;
  snap.state = static_cast<int>(state_);
  snap.cycle = cycle_;
  snap.is_sub = is_sub_;
  snap.candidates = candidates_;
  snap.next_candidate = next_candidate_;
  snap.pending_candidate = pending_candidate_;
  snap.pending_reuse_features = pending_reuse_features_;
  snap.retries_this_cycle = retries_this_cycle_;
  snap.total_retries = total_retries_;
  snap.last_metrics = last_metrics_;
  snap.history = history_;
  return snap;
}

Pipeline::Pipeline(RestoreTag, const Snapshot& snap,
                   const protein::DesignTarget& target, ProtocolConfig config,
                   std::shared_ptr<const SequenceGenerator> generator,
                   fold::AlphaFold folder)
    : id_(snap.id),
      target_(&target),
      current_(snap.current),
      config_(config),
      generator_(std::move(generator)),
      folder_(std::move(folder)),
      rng_(common::Rng::from_state(snap.rng)),
      task_counter_(snap.task_counter),
      state_(static_cast<State>(snap.state)),
      cycle_(snap.cycle),
      is_sub_(snap.is_sub),
      candidates_(snap.candidates),
      next_candidate_(snap.next_candidate),
      pending_candidate_(snap.pending_candidate),
      pending_reuse_features_(snap.pending_reuse_features),
      retries_this_cycle_(snap.retries_this_cycle),
      total_retries_(snap.total_retries),
      last_metrics_(snap.last_metrics),
      history_(snap.history) {
  if (!generator_) throw std::invalid_argument("Pipeline: null generator");
  if (target.name != snap.target_name)
    throw std::invalid_argument("Pipeline::restore: target name mismatch");
}

Pipeline Pipeline::restore(const Snapshot& snap,
                           const protein::DesignTarget& target,
                           ProtocolConfig config,
                           std::shared_ptr<const SequenceGenerator> generator,
                           fold::AlphaFold folder) {
  return Pipeline(RestoreTag{}, snap, target, config, std::move(generator),
                  std::move(folder));
}

TrajectoryResult Pipeline::result() const {
  TrajectoryResult r;
  r.pipeline_id = id_;
  r.target_name = target_->name;
  r.is_subpipeline = is_sub_;
  r.terminated_early = state_ == State::kTerminated;
  r.history = history_;
  r.total_retries = total_retries_;
  return r;
}

}  // namespace impress::core
