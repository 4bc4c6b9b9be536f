// The IMPRESS pipeline (paper §II-C): one structure's iterative design
// loop, expressed as an explicit state machine.
//
//   Stage 1   generator produces N candidate sequences for the current
//             structure                                  -> kRunGenerator
//   Stage 2   candidates sorted by log-likelihood        (internal)
//   Stage 3   ranked candidates compiled to FASTA        (current_fasta())
//   Stage 4   AlphaFold predicts the selected candidate  -> kRunFold
//   Stage 5   confidence metrics gathered                (internal)
//   Stage 6   compare with the previous iteration: on improvement the new
//             model seeds the next cycle; on decline Stages 4-5 repeat
//             with the next-ranked sequence, up to max_retries, after
//             which the pipeline terminates
//   Stage 6M+7 after M cycles the final candidates are returned
//
// The class is runtime-agnostic: it never talks to the task system. The
// coordinator converts the returned Actions into rp tasks and feeds
// results back in. This is exactly the paper's split between the
// "pipelines coordinator" and the pipeline structure itself.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/generator.hpp"
#include "core/protocol.hpp"
#include "fold/fold.hpp"
#include "protein/datasets.hpp"

namespace impress::core {

class Pipeline {
 public:
  struct Action {
    enum class Kind {
      kRunGenerator,  ///< submit a Stage-1 sequence-generation task
      kRunRefine,     ///< submit a backbone-refinement task (optional)
      kRunFold,       ///< submit a Stage-4 structure-prediction task
      kCompleted,     ///< all M cycles finished
      kTerminated,    ///< retry budget exhausted (Stage 6)
    };
    Kind kind;
    /// For kRunRefine/kRunFold: the complex to process (candidate
    /// receptor grafted onto the current structure); for kRunFold also
    /// whether MSA/features can be reused from the preceding prediction
    /// and whether the input backbone was refined.
    std::optional<protein::Complex> fold_input;
    bool reuse_features = false;
    bool refined = false;
  };

  /// `start_cycle` > 0 and a `baseline` let a sub-pipeline resume an
  /// existing trajectory from its parent's state.
  Pipeline(std::string id, const protein::DesignTarget& target,
           protein::Complex start, ProtocolConfig config,
           std::shared_ptr<const SequenceGenerator> generator,
           fold::AlphaFold folder, common::Rng rng, int start_cycle = 0,
           bool is_subpipeline = false,
           std::optional<fold::FoldMetrics> baseline = std::nullopt);

  /// Begin the first cycle. Must be called exactly once.
  [[nodiscard]] Action start();

  /// Deliver the Stage-1 result; performs Stages 2-3 and selects the
  /// candidate for Stage 4 (or refinement first, when enabled).
  [[nodiscard]] Action on_generator_result(
      std::vector<mpnn::ScoredSequence> sequences);

  /// Deliver the refinement result: the relaxed complex proceeds to
  /// Stage 4 with the refined flag set.
  [[nodiscard]] Action on_refine_result(protein::Complex refined);

  /// Deliver the Stage-4/5 result; performs Stage 6.
  [[nodiscard]] Action on_fold_result(const fold::Prediction& prediction);

  /// Force-terminate (e.g. after a task failure). Idempotent.
  void abort() noexcept { finish(State::kTerminated); }

  /// Stage-3 artifact: FASTA of this cycle's ranked candidates; empty once
  /// the pipeline has finished, which frees them.
  [[nodiscard]] std::string current_fasta() const;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const protein::DesignTarget& target() const noexcept {
    return *target_;
  }
  [[nodiscard]] const protein::Complex& current() const noexcept {
    return current_;
  }
  [[nodiscard]] int cycle() const noexcept { return cycle_; }
  [[nodiscard]] bool is_subpipeline() const noexcept { return is_sub_; }
  [[nodiscard]] bool finished() const noexcept {
    return state_ == State::kDone || state_ == State::kTerminated;
  }
  [[nodiscard]] const std::vector<IterationRecord>& history() const noexcept {
    return history_;
  }
  /// Composite quality of the last accepted iteration (or baseline);
  /// nullopt before anything was accepted.
  [[nodiscard]] std::optional<double> last_composite() const;
  [[nodiscard]] const std::optional<fold::FoldMetrics>& last_metrics()
      const noexcept {
    return last_metrics_;
  }

  /// A fresh random stream for one runtime task of this pipeline.
  [[nodiscard]] common::Rng fork_task_rng();

  [[nodiscard]] const ProtocolConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SequenceGenerator& generator() const noexcept {
    return *generator_;
  }
  [[nodiscard]] std::shared_ptr<const SequenceGenerator> generator_ptr()
      const noexcept {
    return generator_;
  }
  [[nodiscard]] const fold::AlphaFold& folder() const noexcept { return folder_; }

  [[nodiscard]] TrajectoryResult result() const;

  /// Everything a campaign checkpoint needs to rebuild this pipeline at a
  /// quiesce point (no task in flight). The target is referenced by name
  /// and re-resolved on restore; protocol config, generator and folder are
  /// likewise re-supplied from the (identical) campaign configuration.
  struct Snapshot {
    std::string id;
    std::string target_name;
    protein::Complex current;
    common::Rng::State rng;
    std::uint64_t task_counter = 0;
    int state = 0;  ///< State enum, numeric
    int cycle = 0;
    bool is_sub = false;
    std::vector<mpnn::ScoredSequence> candidates;
    std::uint64_t next_candidate = 0;
    std::uint64_t pending_candidate = 0;
    bool pending_reuse_features = false;
    int retries_this_cycle = 0;
    int total_retries = 0;
    std::optional<fold::FoldMetrics> last_metrics;
    std::vector<IterationRecord> history;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Rebuild a pipeline mid-flight from a checkpoint snapshot. `target`
  /// must outlive the pipeline (resolved by snapshot().target_name).
  [[nodiscard]] static Pipeline restore(
      const Snapshot& snap, const protein::DesignTarget& target,
      ProtocolConfig config,
      std::shared_ptr<const SequenceGenerator> generator,
      fold::AlphaFold folder);

 private:
  enum class State {
    kIdle,
    kAwaitGenerator,
    kAwaitRefine,
    kAwaitFold,
    kDone,
    kTerminated,
  };

  struct RestoreTag {};
  Pipeline(RestoreTag, const Snapshot& snap,
           const protein::DesignTarget& target, ProtocolConfig config,
           std::shared_ptr<const SequenceGenerator> generator,
           fold::AlphaFold folder);

  /// Whether Stage-6 gating applies to the cycle being worked on.
  [[nodiscard]] bool cycle_is_adaptive() const noexcept;
  [[nodiscard]] Action select_and_fold(bool reuse_features);
  [[nodiscard]] Action begin_cycle();
  /// Enter kDone or kTerminated. Nothing reads the candidates after that,
  /// so they are freed rather than carried into every later checkpoint.
  void finish(State final_state) noexcept;

  std::string id_;
  const protein::DesignTarget* target_;
  protein::Complex current_;
  ProtocolConfig config_;
  std::shared_ptr<const SequenceGenerator> generator_;
  fold::AlphaFold folder_;
  common::Rng rng_;
  std::uint64_t task_counter_ = 0;

  State state_ = State::kIdle;
  int cycle_ = 0;       ///< completed cycles (start_cycle for sub-pipelines)
  bool is_sub_ = false;
  std::vector<mpnn::ScoredSequence> candidates_;  ///< sorted, this cycle
  std::size_t next_candidate_ = 0;
  std::size_t pending_candidate_ = 0;
  bool pending_reuse_features_ = false;
  int retries_this_cycle_ = 0;
  int total_retries_ = 0;
  std::optional<fold::FoldMetrics> last_metrics_;
  std::vector<IterationRecord> history_;
};

}  // namespace impress::core
