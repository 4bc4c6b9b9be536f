#include "fold/fold.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/stats.hpp"
#include "protein/datasets.hpp"

namespace impress::fold {
namespace {

const protein::DesignTarget& target() {
  static const auto t =
      protein::make_target("FOLD-T", 92, protein::alpha_synuclein().tail(10));
  return t;
}

TEST(FoldMetrics, CompositeBlendsAllThree) {
  FoldMetrics good{.plddt = 90.0, .ptm = 0.9, .ipae = 5.0};
  FoldMetrics bad{.plddt = 50.0, .ptm = 0.4, .ipae = 25.0};
  EXPECT_GT(good.composite(), bad.composite());
  EXPECT_GE(bad.composite(), 0.0);
  EXPECT_LE(good.composite(), 1.0);
}

TEST(FoldMetrics, CompositeMonotonePerMetric) {
  const FoldMetrics base{.plddt = 70.0, .ptm = 0.7, .ipae = 12.0};
  FoldMetrics better = base;
  better.plddt += 5.0;
  EXPECT_GT(better.composite(), base.composite());
  better = base;
  better.ptm += 0.05;
  EXPECT_GT(better.composite(), base.composite());
  better = base;
  better.ipae -= 2.0;  // lower pAE is better
  EXPECT_GT(better.composite(), base.composite());
}

TEST(AlphaFold, ConfigValidation) {
  PredictorConfig bad;
  bad.num_models = 0;
  EXPECT_THROW(AlphaFold{bad}, std::invalid_argument);
  bad = PredictorConfig{};
  bad.msa_quality = 0.0;
  EXPECT_THROW(AlphaFold{bad}, std::invalid_argument);
  bad.msa_quality = 1.5;
  EXPECT_THROW(AlphaFold{bad}, std::invalid_argument);
}

TEST(AlphaFold, ProducesFiveRankedModels) {
  const AlphaFold model;
  common::Rng rng(1);
  const auto pred = model.predict(target().start_complex(), target().landscape, rng);
  ASSERT_EQ(pred.models.size(), 5u);
  // Best is argmax pTM (Stage-4 ranking).
  for (const auto& m : pred.models)
    EXPECT_LE(m.metrics.ptm, pred.best().metrics.ptm);
}

TEST(AlphaFold, MetricsWithinPhysicalRanges) {
  const AlphaFold model;
  common::Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const auto pred =
        model.predict(target().start_complex(), target().landscape, rng);
    for (const auto& m : pred.models) {
      EXPECT_GE(m.metrics.plddt, 0.0);
      EXPECT_LE(m.metrics.plddt, 100.0);
      EXPECT_GE(m.metrics.ptm, 0.0);
      EXPECT_LE(m.metrics.ptm, 1.0);
      EXPECT_GE(m.metrics.ipae, 1.0);
      EXPECT_LE(m.metrics.ipae, 30.0);
    }
  }
}

TEST(AlphaFold, PredictedStructureMatchesInput) {
  const AlphaFold model;
  common::Rng rng(3);
  const auto cx = target().start_complex();
  const auto pred = model.predict(cx, target().landscape, rng);
  const auto& s = pred.best().structure;
  EXPECT_EQ(s.chain('A').sequence, cx.receptor().sequence);
  EXPECT_EQ(s.chain('B').sequence, cx.peptide().sequence);
  // Per-residue confidence attached (AlphaFold writes pLDDT per residue).
  EXPECT_EQ(s.plddt().size(), s.size());
}

TEST(AlphaFold, PerResiduePlddtTracksGlobal) {
  const AlphaFold model;
  common::Rng rng(4);
  const auto pred =
      model.predict(target().start_complex(), target().landscape, rng);
  const auto& best = pred.best();
  const auto& plddt = best.structure.plddt();
  const double mean_plddt = common::mean({plddt.data(), plddt.size()});
  EXPECT_NEAR(mean_plddt, best.metrics.plddt, 8.0);
}

TEST(AlphaFold, DeterministicInRng) {
  const AlphaFold model;
  common::Rng r1(5), r2(5);
  const auto a = model.predict(target().start_complex(), target().landscape, r1);
  const auto b = model.predict(target().start_complex(), target().landscape, r2);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best().metrics.ptm, b.best().metrics.ptm);
}

TEST(AlphaFold, MetricsTrackFitnessMonotonically) {
  // The classifier property ([12],[13] in the paper): better sequences get
  // better confidence, on average.
  const AlphaFold model;
  const auto& l = target().landscape;
  common::Rng rng(6);
  auto avg = [&](const protein::Sequence& seq) {
    FoldMetrics acc{};
    const auto cx = target().start_complex().with_receptor(seq);
    for (int i = 0; i < 30; ++i) {
      const auto m = model.predict(cx, l, rng).best().metrics;
      acc.plddt += m.plddt;
      acc.ptm += m.ptm;
      acc.ipae += m.ipae;
    }
    return FoldMetrics{acc.plddt / 30, acc.ptm / 30, acc.ipae / 30};
  };
  const auto weak = avg(l.native_sequence());
  const auto strong = avg(l.greedy_optimal_sequence());
  EXPECT_GT(strong.plddt, weak.plddt + 3.0);
  EXPECT_GT(strong.ptm, weak.ptm + 0.1);
  EXPECT_LT(strong.ipae, weak.ipae - 2.0);
}

TEST(AlphaFold, SingleSequenceModeBlursSignal) {
  // EvoPro-style msa_quality < 1: the gap between weak and strong
  // sequences shrinks (predictions revert toward the mean).
  PredictorConfig full;
  PredictorConfig single;
  single.msa_quality = 0.5;
  const auto& l = target().landscape;
  auto gap = [&](const PredictorConfig& cfg) {
    const AlphaFold model(cfg);
    common::Rng rng(7);
    double weak = 0.0, strong = 0.0;
    for (int i = 0; i < 30; ++i) {
      weak += model
                  .predict(target().start_complex().with_receptor(
                               l.native_sequence()),
                           l, rng)
                  .best()
                  .metrics.ptm;
      strong += model
                    .predict(target().start_complex().with_receptor(
                                 l.greedy_optimal_sequence()),
                             l, rng)
                    .best()
                    .metrics.ptm;
    }
    return (strong - weak) / 30.0;
  };
  EXPECT_GT(gap(full), gap(single) + 0.05);
}

TEST(AlphaFold, CustomModelCount) {
  PredictorConfig cfg;
  cfg.num_models = 2;
  const AlphaFold model(cfg);
  common::Rng rng(8);
  EXPECT_EQ(
      model.predict(target().start_complex(), target().landscape, rng).models.size(),
      2u);
}

TEST(FoldContentKey, SensitiveToEveryInput) {
  // The key seeds each fold task's rng, so every input predict() reads
  // besides the rng must move it.
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  const auto base_content = content_key(cx, t.landscape, folder.config());

  // Receptor sequence.
  const auto mutated = cx.with_receptor(
      cx.receptor().sequence.with_mutation(0, protein::AminoAcid::kTrp));
  EXPECT_NE(content_key(mutated, t.landscape, folder.config()), base_content);

  // Predictor config (each field).
  auto cfg = folder.config();
  cfg.metric_noise *= 0.65;
  EXPECT_NE(content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.num_models += 1;
  EXPECT_NE(content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.msa_quality = 0.5;
  EXPECT_NE(content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.model_noise *= 2.0;
  EXPECT_NE(content_key(cx, t.landscape, cfg), base_content);

  // Landscape identity.
  const auto other = protein::make_target(
      "FOLD-T2", 92, protein::alpha_synuclein().tail(10));
  EXPECT_NE(content_key(cx, other.landscape, folder.config()), base_content);
}

class FoldSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FoldSeedSweep, BestIndexAlwaysValidAndArgmax) {
  const AlphaFold model;
  common::Rng rng(GetParam());
  const auto pred =
      model.predict(target().start_complex(), target().landscape, rng);
  ASSERT_LT(pred.best_index, pred.models.size());
  for (const auto& m : pred.models)
    EXPECT_GE(pred.best().metrics.ptm, m.metrics.ptm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace impress::fold
