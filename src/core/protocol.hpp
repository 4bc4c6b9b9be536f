// Protocol configuration and per-iteration records shared by the pipeline,
// coordinator and campaign layers.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fold/fold.hpp"

namespace impress::core {

/// Knobs of the design protocol (paper §II-C and §III-A).
struct ProtocolConfig {
  /// Design cycles M (Stage 6M+7); the paper runs 4.
  int cycles = 4;
  /// Sequences generated per structure each cycle (Stage 1); paper: 10.
  std::size_t sequences_per_structure = 10;
  /// Stage 6 alternative-selection budget: how many next-ranked sequences
  /// may be tried when quality declines before the pipeline terminates.
  int max_retries = 10;

  /// IM-RP vs CONT-V: when false, no quality comparison happens — every
  /// prediction is accepted and trajectories are never pruned.
  bool adaptive = true;
  /// CONT-V picks its candidate uniformly at random instead of taking the
  /// top log-likelihood sequence.
  bool random_selection = false;
  /// Fig-3 setup: the paper did not enforce adaptivity in the final design
  /// cycle (and the quality visibly dropped). When false, the last cycle
  /// behaves like CONT-V.
  bool adaptivity_in_final_cycle = true;

  /// Coordinator decision-making: spawn sub-pipelines that re-process
  /// low-quality designs.
  bool spawn_subpipelines = true;
  /// A target's accepted quality must fall this far below the global pool
  /// median (composite score) to trigger a sub-pipeline.
  double subpipeline_margin = 0.015;
  /// Per-target budget of spawned sub-pipelines.
  int max_subpipelines_per_target = 2;

  /// Whether Stage-6 retries reuse the complex's MSA/features (GPU-only
  /// re-prediction) or pay the full feature stage again.
  bool reuse_features_on_retry = false;

  /// Backbone refinement (paper §I: "iterative runs of ProteinMPNN and
  /// backbone refinement techniques"): insert a CPU relaxation task
  /// between candidate selection and structure prediction. Refined
  /// backbones give the predictor a cleaner input — modeled as a 35%
  /// reduction of metric noise for that evaluation — at the cost of one
  /// extra task per prediction.
  bool backbone_refinement = false;
};

/// One accepted (or attempted) design iteration of a trajectory.
struct IterationRecord {
  int cycle = 0;                ///< 1-based design cycle
  fold::FoldMetrics metrics{};  ///< AlphaFold surrogate confidence
  double true_fitness = 0.0;    ///< hidden landscape value (analysis only)
  bool accepted = false;        ///< Stage-6 verdict
  int retries = 0;              ///< alternative sequences tried this cycle
  std::string sequence;         ///< receptor sequence evaluated
};

/// Final outcome of one pipeline (= one structure's design loop).
struct TrajectoryResult {
  std::string pipeline_id;
  std::string target_name;
  bool is_subpipeline = false;
  bool terminated_early = false;  ///< retry budget exhausted
  std::vector<IterationRecord> history;  ///< accepted iterations, in order
  int total_retries = 0;
};

}  // namespace impress::core
