// MutationScorer and kernel-table golden equivalence: the incremental
// fitness path must be bit-identical to the naive full recompute — not
// approximately equal — across randomized landscapes, sequences and
// mutation walks. This is the contract that lets seed_sequence and the
// generators use the fast path without perturbing any campaign result.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "protein/datasets.hpp"
#include "protein/kernel_tables.hpp"
#include "protein/landscape.hpp"

namespace impress::protein {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Sequence random_seq(std::size_t n, common::Rng& rng) {
  std::vector<AminoAcid> v(n);
  for (auto& aa : v)
    aa = static_cast<AminoAcid>(
        rng.below(static_cast<std::uint32_t>(kNumAminoAcids)));
  return Sequence(std::move(v));
}

FitnessLandscape random_landscape(std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t length = 40 + rng.below(80);
  const std::size_t pep_len = 6 + rng.below(6);
  common::Rng pep_rng = rng.fork("peptide");
  Sequence peptide = random_seq(pep_len, pep_rng);
  return FitnessLandscape("RAND" + std::to_string(seed), length,
                          std::move(peptide), seed * 977 + 13);
}

Sequence random_sequence(const FitnessLandscape& land, std::uint64_t seed) {
  common::Rng rng(seed ^ 0xabcdef);
  return random_seq(land.receptor_length(), rng);
}

TEST(KernelTables, TablesMatchDirectFormulasBitwise) {
  for (std::size_t a = 0; a < kNumAminoAcids; ++a)
    for (std::size_t b = 0; b < kNumAminoAcids; ++b) {
      const auto ra = static_cast<AminoAcid>(a);
      const auto rb = static_cast<AminoAcid>(b);
      EXPECT_EQ(bits(residue_similarity(ra, rb)),
                bits(detail::residue_similarity_direct(ra, rb)));
      EXPECT_EQ(bits(complementarity(ra, rb)),
                bits(detail::complementarity_direct(ra, rb)));
    }
}

TEST(KernelTables, SimilarityIsSymmetricWithUnitDiagonal) {
  for (std::size_t a = 0; a < kNumAminoAcids; ++a) {
    const auto ra = static_cast<AminoAcid>(a);
    EXPECT_DOUBLE_EQ(residue_similarity(ra, ra), 1.0);
    for (std::size_t b = 0; b < kNumAminoAcids; ++b) {
      const auto rb = static_cast<AminoAcid>(b);
      EXPECT_EQ(bits(residue_similarity(ra, rb)),
                bits(residue_similarity(rb, ra)));
    }
  }
}

TEST(MutationScorer, ThrowsOnLengthMismatch) {
  const auto land = random_landscape(1);
  common::Rng rng(3);
  Sequence wrong = random_seq(land.receptor_length() + 1, rng);
  EXPECT_THROW(FitnessLandscape::MutationScorer(land, std::move(wrong)),
               std::invalid_argument);
}

TEST(MutationScorer, FitnessMatchesLandscapeBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto land = random_landscape(seed);
    const auto seq = random_sequence(land, seed);
    const FitnessLandscape::MutationScorer scorer(land, seq);
    EXPECT_EQ(bits(scorer.fitness()), bits(land.fitness(seq)))
        << "seed=" << seed;
  }
}

TEST(MutationScorer, ScoreMutationMatchesNaiveBitwise) {
  // The golden property: score_mutation(pos, aa) equals the full
  // recompute of the mutated copy, to the last bit, for every (pos, aa)
  // including interface, scaffold and no-op mutations.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto land = random_landscape(seed);
    const auto seq = random_sequence(land, seed);
    const FitnessLandscape::MutationScorer scorer(land, seq);
    common::Rng rng(seed * 31);
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t pos =
          rng.below(static_cast<std::uint32_t>(land.receptor_length()));
      const auto aa = static_cast<AminoAcid>(
          rng.below(static_cast<std::uint32_t>(kNumAminoAcids)));
      EXPECT_EQ(bits(scorer.score_mutation(pos, aa)),
                bits(land.fitness(seq.with_mutation(pos, aa))))
          << "seed=" << seed << " pos=" << pos;
    }
  }
}

TEST(MutationScorer, ApplyTracksNaiveOverRandomWalk) {
  // A long mutate-commit walk must not drift: after every apply() the
  // cached fitness still equals the from-scratch evaluation bitwise.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto land = random_landscape(seed + 50);
    FitnessLandscape::MutationScorer scorer(land,
                                            random_sequence(land, seed + 50));
    common::Rng rng(seed * 101);
    for (int step = 0; step < 300; ++step) {
      const std::size_t pos =
          rng.below(static_cast<std::uint32_t>(land.receptor_length()));
      const auto aa = static_cast<AminoAcid>(
          rng.below(static_cast<std::uint32_t>(kNumAminoAcids)));
      const double predicted = scorer.score_mutation(pos, aa);
      scorer.apply(pos, aa);
      ASSERT_EQ(bits(scorer.fitness()), bits(predicted)) << "step=" << step;
      ASSERT_EQ(bits(scorer.fitness()), bits(land.fitness(scorer.sequence())))
          << "step=" << step;
    }
  }
}

TEST(MutationScorer, PreferenceConsistentWithScoring) {
  // preference() (O(1) pocket-index path) stays within [0, 1] everywhere
  // and equals 1 for the native residue at scaffold positions.
  const auto land = random_landscape(9);
  const auto& native = land.native_sequence();
  std::vector<bool> is_interface(land.receptor_length(), false);
  for (const std::size_t p : land.interface_positions()) is_interface[p] = true;
  for (std::size_t pos = 0; pos < land.receptor_length(); ++pos)
    for (std::size_t a = 0; a < kNumAminoAcids; ++a) {
      const double pref = land.preference(pos, static_cast<AminoAcid>(a));
      EXPECT_GE(pref, 0.0);
      EXPECT_LE(pref, 1.0);
      if (!is_interface[pos] && static_cast<AminoAcid>(a) == native[pos])
        EXPECT_DOUBLE_EQ(pref, 1.0);
    }
}

TEST(MutationScorer, SeedSequenceUnchangedByFastPath) {
  // seed_sequence rides on the scorer now; its rng consumption and
  // output must match across calls with identically seeded rngs (the
  // derivative guarantee campaigns rely on).
  const auto land = random_landscape(12);
  common::Rng a(77);
  common::Rng b(77);
  const auto sa = land.seed_sequence(0.5, a);
  const auto sb = land.seed_sequence(0.5, b);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.save_state(), b.save_state());
  EXPECT_NEAR(land.fitness(sa), 0.5, 0.2);
}

TEST(MutationScorer, TakeSequenceMovesCurrentState) {
  const auto land = random_landscape(21);
  FitnessLandscape::MutationScorer scorer(land, random_sequence(land, 21));
  scorer.apply(3, AminoAcid::kAla);
  const auto expect = scorer.sequence();
  auto moved = std::move(scorer).take_sequence();
  EXPECT_EQ(moved, expect);
  EXPECT_EQ(moved[3], AminoAcid::kAla);
}

}  // namespace
}  // namespace impress::protein
