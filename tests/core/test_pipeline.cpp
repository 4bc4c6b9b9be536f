// The Pipeline state machine (Stages 1-6M+7) exercised directly, without
// the runtime: actions, selection, retry logic, termination, sub-pipeline
// resumption.

#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "protein/fasta.hpp"

namespace impress::core {
namespace {

using Kind = Pipeline::Action::Kind;

struct Fixture {
  protein::DesignTarget target = protein::make_target(
      "PIPE-T", 88, protein::alpha_synuclein().tail(10));
  std::shared_ptr<MpnnGenerator> generator =
      std::make_shared<MpnnGenerator>(mpnn::SamplerConfig{});

  ProtocolConfig adaptive_config() {
    ProtocolConfig cfg;
    cfg.cycles = 4;
    cfg.adaptive = true;
    cfg.max_retries = 10;
    cfg.spawn_subpipelines = false;
    return cfg;
  }

  Pipeline make(ProtocolConfig cfg, int start_cycle = 0,
                std::optional<fold::FoldMetrics> baseline = std::nullopt) {
    return Pipeline("p0", target, target.start_complex(), cfg, generator,
                    fold::AlphaFold{}, common::Rng(7), start_cycle,
                    start_cycle > 0, baseline);
  }

  std::vector<mpnn::ScoredSequence> sequences(int n = 10) {
    std::vector<mpnn::ScoredSequence> out;
    common::Rng rng(3);
    for (int i = 0; i < n; ++i) {
      auto seq = target.start_receptor;
      seq.set(target.landscape.interface_positions()[0],
              static_cast<protein::AminoAcid>(rng.below(20)));
      out.push_back({std::move(seq), -1.0 - i * 0.1});
    }
    return out;
  }

  fold::Prediction prediction(double ptm, double plddt = 70.0,
                              double ipae = 12.0) {
    fold::Prediction p;
    fold::ModelPrediction m;
    m.metrics = fold::FoldMetrics{.plddt = plddt, .ptm = ptm, .ipae = ipae};
    m.structure = target.start_complex().structure;
    p.models.push_back(std::move(m));
    p.best_index = 0;
    return p;
  }
};

TEST(Pipeline, ConstructionValidates) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.cycles = 0;
  EXPECT_THROW(f.make(cfg), std::invalid_argument);
  cfg = f.adaptive_config();
  EXPECT_THROW(f.make(cfg, /*start_cycle=*/4), std::invalid_argument);
  EXPECT_THROW(Pipeline("x", f.target, f.target.start_complex(),
                        f.adaptive_config(), nullptr, fold::AlphaFold{},
                        common::Rng(1)),
               std::invalid_argument);
}

TEST(Pipeline, StartRequestsGenerator) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  const auto a = p.start();
  EXPECT_EQ(a.kind, Kind::kRunGenerator);
  EXPECT_FALSE(p.finished());
  EXPECT_EQ(p.cycle(), 0);
}

TEST(Pipeline, DoubleStartThrows) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  EXPECT_THROW((void)p.start(), std::logic_error);
}

TEST(Pipeline, OutOfOrderResultsThrow) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  EXPECT_THROW((void)p.on_generator_result(f.sequences()), std::logic_error);
  (void)p.start();
  EXPECT_THROW((void)p.on_fold_result(f.prediction(0.5)), std::logic_error);
}

TEST(Pipeline, GeneratorResultLeadsToFold) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  const auto a = p.on_generator_result(f.sequences());
  EXPECT_EQ(a.kind, Kind::kRunFold);
  ASSERT_TRUE(a.fold_input.has_value());
  EXPECT_EQ(a.fold_input->peptide().sequence, f.target.peptide);
}

TEST(Pipeline, AdaptiveSelectsTopLogLikelihood) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  auto seqs = f.sequences();
  // Mark one sequence as clearly best-ranked.
  seqs[7].log_likelihood = 0.0;
  const auto expected = seqs[7].sequence;
  const auto a = p.on_generator_result(std::move(seqs));
  EXPECT_EQ(a.fold_input->receptor().sequence, expected);
}

TEST(Pipeline, EmptyGeneratorResultTerminates) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  const auto a = p.on_generator_result({});
  EXPECT_EQ(a.kind, Kind::kTerminated);
  EXPECT_TRUE(p.finished());
}

TEST(Pipeline, FirstFoldAlwaysAccepted) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.1));  // poor, but baseline
  EXPECT_EQ(a.kind, Kind::kRunGenerator);              // next cycle
  EXPECT_EQ(p.cycle(), 1);
  ASSERT_EQ(p.history().size(), 1u);
  EXPECT_TRUE(p.history()[0].accepted);
  EXPECT_EQ(p.history()[0].cycle, 1);
}

TEST(Pipeline, DecliningResultRetriesNextCandidate) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));  // strong baseline
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.2, 50.0, 25.0));  // decline
  EXPECT_EQ(a.kind, Kind::kRunFold);
  EXPECT_TRUE(a.reuse_features ==
              false);  // reuse_features_on_retry defaults false
  EXPECT_EQ(p.cycle(), 1);  // cycle not advanced
}

TEST(Pipeline, RetryReuseFlagHonorsConfig) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.reuse_features_on_retry = true;
  auto p = f.make(cfg);
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.2, 50.0, 25.0));
  EXPECT_EQ(a.kind, Kind::kRunFold);
  EXPECT_TRUE(a.reuse_features);
}

TEST(Pipeline, RetryWalksRankingInOrder) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  auto seqs = f.sequences();
  mpnn::sort_by_log_likelihood(seqs);
  (void)p.on_generator_result(f.sequences());
  const auto a1 = p.on_fold_result(f.prediction(0.2, 50.0, 25.0));
  EXPECT_EQ(a1.fold_input->receptor().sequence, seqs[1].sequence);
  const auto a2 = p.on_fold_result(f.prediction(0.2, 50.0, 25.0));
  EXPECT_EQ(a2.fold_input->receptor().sequence, seqs[2].sequence);
}

TEST(Pipeline, RetryBudgetExhaustionTerminates) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.max_retries = 3;
  auto p = f.make(cfg);
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  (void)p.on_generator_result(f.sequences());
  Pipeline::Action a{};
  for (int i = 0; i < 4; ++i) a = p.on_fold_result(f.prediction(0.1, 40.0, 28.0));
  EXPECT_EQ(a.kind, Kind::kTerminated);
  EXPECT_TRUE(p.finished());
  const auto r = p.result();
  EXPECT_TRUE(r.terminated_early);
  EXPECT_EQ(r.total_retries, 4);
}

TEST(Pipeline, CandidateExhaustionTerminatesEvenWithBudget) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.max_retries = 100;
  auto p = f.make(cfg);
  (void)p.start();
  (void)p.on_generator_result(f.sequences(3));  // only 3 candidates
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  (void)p.on_generator_result(f.sequences(3));
  (void)p.on_fold_result(f.prediction(0.1, 40.0, 28.0));
  (void)p.on_fold_result(f.prediction(0.1, 40.0, 28.0));
  const auto a = p.on_fold_result(f.prediction(0.1, 40.0, 28.0));
  EXPECT_EQ(a.kind, Kind::kTerminated);
}

TEST(Pipeline, CompletesAfterMCycles) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  Pipeline::Action a{};
  for (int c = 1; c <= 4; ++c) {
    (void)p.on_generator_result(f.sequences());
    a = p.on_fold_result(f.prediction(0.2 + 0.2 * c, 50.0 + 10.0 * c,
                                      20.0 - 4.0 * c));
  }
  EXPECT_EQ(a.kind, Kind::kCompleted);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.cycle(), 4);
  EXPECT_EQ(p.history().size(), 4u);
  EXPECT_FALSE(p.result().terminated_early);
}

TEST(Pipeline, AcceptedModelSeedsNextCycle) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  auto seqs = f.sequences();
  mpnn::sort_by_log_likelihood(seqs);
  const auto accepted_receptor = seqs[0].sequence;
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.5));
  // The pipeline's current complex now carries the accepted receptor.
  EXPECT_EQ(p.current().receptor().sequence, accepted_receptor);
}

TEST(Pipeline, NonAdaptiveAcceptsDeclines) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.adaptive = false;
  cfg.random_selection = true;
  auto p = f.make(cfg);
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.1, 40.0, 28.0));  // worse
  EXPECT_EQ(a.kind, Kind::kRunGenerator);  // accepted anyway
  EXPECT_EQ(p.cycle(), 2);
  EXPECT_EQ(p.result().total_retries, 0);
}

TEST(Pipeline, NonAdaptiveFinalCycleAcceptsDecline) {
  Fixture f;
  auto cfg = f.adaptive_config();
  cfg.adaptivity_in_final_cycle = false;
  auto p = f.make(cfg);
  (void)p.start();
  for (int c = 1; c <= 3; ++c) {
    (void)p.on_generator_result(f.sequences());
    (void)p.on_fold_result(f.prediction(0.2 * c, 60.0, 15.0));
  }
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.05, 30.0, 29.0));  // bad
  EXPECT_EQ(a.kind, Kind::kCompleted);  // Fig-3 behaviour: no gate
  EXPECT_EQ(p.history().back().metrics.ptm, 0.05);
}

TEST(Pipeline, SubPipelineResumesAtStartCycle) {
  Fixture f;
  auto p = f.make(f.adaptive_config(), /*start_cycle=*/3);
  EXPECT_TRUE(p.is_subpipeline());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.5));
  EXPECT_EQ(a.kind, Kind::kCompleted);  // one remaining cycle
  ASSERT_EQ(p.history().size(), 1u);
  EXPECT_EQ(p.history()[0].cycle, 4);
}

TEST(Pipeline, BaselineGatesFirstFold) {
  Fixture f;
  const fold::FoldMetrics baseline{.plddt = 90.0, .ptm = 0.9, .ipae = 4.0};
  auto p = f.make(f.adaptive_config(), 0, baseline);
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  const auto a = p.on_fold_result(f.prediction(0.2, 50.0, 25.0));
  EXPECT_EQ(a.kind, Kind::kRunFold);  // declined vs the inherited baseline
}

TEST(Pipeline, FastaContainsRankedCandidates) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  (void)p.on_generator_result(f.sequences(4));
  const auto fasta = p.current_fasta();
  const auto records = protein::from_fasta(fasta);
  ASSERT_EQ(records.size(), 4u);
  // Ranked: descriptions carry non-increasing log-likelihoods.
  EXPECT_NE(records[0].description.find("log_likelihood="), std::string::npos);
  EXPECT_EQ(records[0].sequence.size(), 88u);
}

TEST(Pipeline, IterationRecordsCarryGroundTruth) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.5));
  const auto& rec = p.history()[0];
  EXPECT_GT(rec.true_fitness, 0.0);
  EXPECT_LT(rec.true_fitness, 1.0);
  EXPECT_EQ(rec.sequence.size(), 88u);
  EXPECT_EQ(rec.retries, 0);
}

TEST(Pipeline, AbortForcesTermination) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  (void)p.start();
  p.abort();
  EXPECT_TRUE(p.finished());
  EXPECT_TRUE(p.result().terminated_early);
}

TEST(Pipeline, FinishedPipelineFreesItsCandidates) {
  // Nothing reads the candidates once a pipeline is done or terminated,
  // so they are freed and no checkpoint carries them.
  Fixture f;
  const auto expect_freed = [](const Pipeline& p) {
    EXPECT_TRUE(p.finished());
    EXPECT_TRUE(p.snapshot().candidates.empty());
    EXPECT_TRUE(p.current_fasta().empty());
  };

  auto aborted = f.make(f.adaptive_config());
  (void)aborted.start();
  (void)aborted.on_generator_result(f.sequences());
  ASSERT_FALSE(aborted.snapshot().candidates.empty());
  aborted.abort();
  expect_freed(aborted);

  auto cfg = f.adaptive_config();
  cfg.max_retries = 0;
  auto declined = f.make(cfg);
  (void)declined.start();
  (void)declined.on_generator_result(f.sequences());
  (void)declined.on_fold_result(f.prediction(0.9, 90.0, 5.0));
  (void)declined.on_generator_result(f.sequences());
  ASSERT_EQ(declined.on_fold_result(f.prediction(0.1, 40.0, 28.0)).kind,
            Kind::kTerminated);
  expect_freed(declined);

  auto done = f.make(f.adaptive_config());
  (void)done.start();
  Pipeline::Action a{};
  for (int c = 1; c <= 4; ++c) {
    (void)done.on_generator_result(f.sequences());
    a = done.on_fold_result(f.prediction(0.2 + 0.2 * c, 50.0 + 10.0 * c,
                                         20.0 - 4.0 * c));
  }
  ASSERT_EQ(a.kind, Kind::kCompleted);
  expect_freed(done);
}

TEST(Pipeline, LastCompositeTracksBaseline) {
  Fixture f;
  auto p = f.make(f.adaptive_config());
  EXPECT_FALSE(p.last_composite().has_value());
  (void)p.start();
  (void)p.on_generator_result(f.sequences());
  (void)p.on_fold_result(f.prediction(0.5));
  ASSERT_TRUE(p.last_composite().has_value());
  EXPECT_GT(*p.last_composite(), 0.0);
}

}  // namespace
}  // namespace impress::core
