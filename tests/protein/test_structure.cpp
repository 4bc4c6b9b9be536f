#include "protein/structure.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace impress::protein {
namespace {

TEST(Chain, IdealizedMatchesSequence) {
  const auto c = Chain::idealized('A', Sequence::from_string("MKVLA"));
  EXPECT_EQ(c.id, 'A');
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.ca.size(), 5u);
  c.validate();
}

TEST(Chain, ValidateCatchesMismatch) {
  Chain c = Chain::idealized('A', Sequence::from_string("MKV"));
  c.ca = CaTrace(ideal_helix(2));
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Structure, ConstructionValidatesChains) {
  Chain bad = Chain::idealized('A', Sequence::from_string("MKV"));
  bad.ca = CaTrace(ideal_helix(2));
  EXPECT_THROW(Structure("s", {bad}), std::invalid_argument);
}

TEST(Structure, ChainLookup) {
  const Structure s("s", {Chain::idealized('A', Sequence::from_string("MK")),
                          Chain::idealized('B', Sequence::from_string("VLA"))});
  EXPECT_TRUE(s.has_chain('A'));
  EXPECT_TRUE(s.has_chain('B'));
  EXPECT_FALSE(s.has_chain('C'));
  EXPECT_EQ(s.chain('B').size(), 3u);
  EXPECT_THROW((void)s.chain('C'), std::out_of_range);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Structure, AllCaConcatenatesChains) {
  const Structure s("s", {Chain::idealized('A', Sequence::from_string("MK")),
                          Chain::idealized('B', Sequence::from_string("V"))});
  EXPECT_EQ(s.all_ca().size(), 3u);
}

TEST(Structure, PlddtStorage) {
  Structure s("s", {Chain::idealized('A', Sequence::from_string("MK"))});
  EXPECT_TRUE(s.plddt().empty());
  s.set_plddt({85.0, 90.0});
  EXPECT_EQ(s.plddt().size(), 2u);
}

TEST(Complex, MakeBuildsTwoChains) {
  const auto cx = Complex::make("NHERF3", Sequence::from_string("MKVLAMKVLA"),
                                Sequence::from_string("EPEA"));
  EXPECT_EQ(cx.structure.name(), "NHERF3");
  EXPECT_EQ(cx.receptor().id, 'A');
  EXPECT_EQ(cx.peptide().id, 'B');
  EXPECT_EQ(cx.receptor().size(), 10u);
  EXPECT_EQ(cx.peptide().size(), 4u);
}

TEST(Complex, ChainsAreSpatiallySeparated) {
  const auto cx = Complex::make("x", Sequence::from_string("MKVLA"),
                                Sequence::from_string("EPEA"));
  // Peptide offset 8 A in x from the receptor helix axis.
  const double dx = cx.peptide().ca[0].x - cx.receptor().ca[0].x;
  EXPECT_NEAR(dx, 8.0, 1e-9);
}

TEST(Complex, ChainsShareIdealTraces) {
  const auto cx = Complex::make("x", Sequence::from_string("MKVLA"),
                                Sequence::from_string("EPEA"));
  EXPECT_EQ(cx.receptor().ca.span().data(), ideal_trace(5).span().data());
  EXPECT_EQ(cx.peptide().ca.span().data(),
            ideal_trace(4, Vec3{8.0, 0.0, 0.0}).span().data());
  EXPECT_EQ(cx.receptor().ca.ideal_origin(), (Vec3{0.0, 0.0, 0.0}));
  EXPECT_EQ(cx.peptide().ca.ideal_origin(), (Vec3{8.0, 0.0, 0.0}));

  // Another complex of the same lengths, and copies of the structure,
  // point at the same coordinates.
  const auto other = cx.with_receptor(Sequence::from_string("GGGGG"));
  EXPECT_EQ(other.receptor().ca.span().data(), cx.receptor().ca.span().data());
  const Structure copy = cx.structure;
  for (std::size_t i = 0; i < copy.chains().size(); ++i) {
    EXPECT_EQ(copy.chains()[i].ca.span().data(),
              cx.structure.chains()[i].ca.span().data());
    EXPECT_EQ(copy.chains()[i].ca, cx.structure.chains()[i].ca);
  }
}

TEST(Complex, WithReceptorReplacesSequenceKeepsPeptide) {
  const auto cx = Complex::make("x", Sequence::from_string("MKVLA"),
                                Sequence::from_string("EPEA"));
  const auto cx2 = cx.with_receptor(Sequence::from_string("GGGGG"));
  EXPECT_EQ(cx2.receptor().sequence.to_string(), "GGGGG");
  EXPECT_EQ(cx2.peptide().sequence.to_string(), "EPEA");
  EXPECT_EQ(cx2.structure.name(), "x");
  // Original untouched.
  EXPECT_EQ(cx.receptor().sequence.to_string(), "MKVLA");
}

}  // namespace
}  // namespace impress::protein
