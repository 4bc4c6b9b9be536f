#include "protein/geometry.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/rng.hpp"

namespace impress::protein {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Vec3> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back(Vec3{rng.uniform(-10, 10), rng.uniform(-10, 10),
                       rng.uniform(-10, 10)});
  return pts;
}

std::vector<Vec3> rotate_z(const std::vector<Vec3>& pts, double angle,
                           Vec3 shift = {}) {
  std::vector<Vec3> out;
  for (const auto& p : pts)
    out.push_back(Vec3{p.x * std::cos(angle) - p.y * std::sin(angle),
                       p.x * std::sin(angle) + p.y * std::cos(angle), p.z} +
                  shift);
  return out;
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ((a + b), (Vec3{5, 7, 9}));
  EXPECT_EQ((b - a), (Vec3{3, 3, 3}));
  EXPECT_EQ((a * 2.0), (Vec3{2, 4, 6}));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}), (Vec3{0, 0, 1}));
  EXPECT_DOUBLE_EQ(norm(Vec3{3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec3{0, 0, 0}, Vec3{0, 0, 2}), 2.0);
}

TEST(Centroid, EmptyAndKnown) {
  EXPECT_EQ(centroid({}), (Vec3{0, 0, 0}));
  const std::vector<Vec3> pts{{0, 0, 0}, {2, 4, 6}};
  EXPECT_EQ(centroid(pts), (Vec3{1, 2, 3}));
}

TEST(IdealHelix, HasCanonicalGeometry) {
  const auto h = ideal_helix(20);
  ASSERT_EQ(h.size(), 20u);
  // Rise: 1.5 A per residue in z.
  for (std::size_t i = 1; i < h.size(); ++i)
    EXPECT_NEAR(h[i].z - h[i - 1].z, 1.5, 1e-12);
  // All points on a 2.3 A cylinder around the helix axis.
  for (const auto& p : h)
    EXPECT_NEAR(std::sqrt(p.x * p.x + p.y * p.y), 2.3, 1e-12);
  // Consecutive C-alpha distance is physically plausible (~3.8-4 A).
  for (std::size_t i = 1; i < h.size(); ++i) {
    const double d = distance(h[i], h[i - 1]);
    EXPECT_GT(d, 3.5);
    EXPECT_LT(d, 4.3);
  }
}

TEST(IdealHelix, OriginOffsetApplies) {
  const auto h = ideal_helix(3, Vec3{10, 20, 30});
  EXPECT_NEAR(h[0].z, 30.0, 1e-12);
  EXPECT_NEAR(h[0].x, 10.0 + 2.3, 1e-12);
}

// Same object representation: ideal_trace must not round differently.
bool same_bits(const Vec3& a, const Vec3& b) {
  using Bits = std::array<std::uint64_t, 3>;
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

TEST(IdealTrace, EqualsIdealHelixBitForBit) {
  // Complex::make's two origins: receptor and peptide.
  for (const Vec3 origin : {Vec3{0.0, 0.0, 0.0}, Vec3{8.0, 0.0, 0.0}})
    for (const std::size_t n : {0u, 1u, 4u, 95u, 400u}) {
      const CaTrace trace = ideal_trace(n, origin);
      const auto helix = ideal_helix(n, origin);
      ASSERT_EQ(trace.size(), n);
      EXPECT_EQ(trace.empty(), n == 0);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(same_bits(trace[i], helix[i])) << "n=" << n << " i=" << i;
      EXPECT_EQ(trace.ideal_origin(), origin);
    }
}

TEST(IdealTrace, RepeatedCallsShareStorage) {
  const Vec3 origin{8.0, 0.0, 0.0};
  const CaTrace a = ideal_trace(95, origin);
  EXPECT_EQ(ideal_trace(95, origin).span().data(), a.span().data());
  const CaTrace copy = a;
  EXPECT_EQ(copy.span().data(), a.span().data());
  // Another length or another origin is another trace.
  EXPECT_NE(ideal_trace(94, origin).span().data(), a.span().data());
  EXPECT_NE(ideal_trace(95).span().data(), a.span().data());
}

TEST(CaTrace, ExplicitTraceComparesByContent) {
  const CaTrace explicit_trace(ideal_helix(4));
  EXPECT_FALSE(explicit_trace.ideal_origin().has_value());
  EXPECT_NE(explicit_trace.span().data(), ideal_trace(4).span().data());
  EXPECT_EQ(explicit_trace, ideal_trace(4));
  EXPECT_NE(explicit_trace, ideal_trace(5));
  EXPECT_NE(explicit_trace, ideal_trace(4, Vec3{8.0, 0.0, 0.0}));
  EXPECT_TRUE(CaTrace().empty());
  EXPECT_EQ(CaTrace(), ideal_trace(0));
  std::size_t n = 0;
  for (const Vec3& p : explicit_trace)
    EXPECT_TRUE(same_bits(p, explicit_trace[n++]));
  EXPECT_EQ(n, 4u);
}

TEST(RmsdRaw, IdenticalIsZero) {
  const auto pts = random_points(30, 1);
  EXPECT_DOUBLE_EQ(rmsd_raw(pts, pts), 0.0);
}

TEST(RmsdRaw, KnownDisplacement) {
  const auto a = random_points(10, 2);
  auto b = a;
  for (auto& p : b) p += Vec3{0, 0, 3};
  EXPECT_NEAR(rmsd_raw(a, b), 3.0, 1e-12);
}

TEST(RmsdRaw, SizeMismatchThrows) {
  EXPECT_THROW((void)rmsd_raw(random_points(3, 1), random_points(4, 1)),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(rmsd_raw({}, {}), 0.0);
}

TEST(RmsdSuperposed, RigidTransformGivesZero) {
  const auto a = random_points(40, 3);
  const auto b = rotate_z(a, 1.1, Vec3{5, -3, 2});
  EXPECT_GT(rmsd_raw(a, b), 1.0);        // genuinely displaced
  EXPECT_NEAR(rmsd_superposed(a, b), 0.0, 1e-9);
}

TEST(RmsdSuperposed, SymmetricInArguments) {
  const auto a = random_points(25, 4);
  auto b = random_points(25, 5);
  EXPECT_NEAR(rmsd_superposed(a, b), rmsd_superposed(b, a), 1e-9);
}

TEST(RmsdSuperposed, NeverExceedsRaw) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const auto a = random_points(15, seed);
    const auto b = random_points(15, seed + 100);
    EXPECT_LE(rmsd_superposed(a, b), rmsd_raw(a, b) + 1e-9);
  }
}

TEST(RmsdSuperposed, DetectsRealDifference) {
  const auto a = ideal_helix(30);
  auto b = a;
  b[15] += Vec3{5, 5, 5};  // one displaced residue
  EXPECT_GT(rmsd_superposed(a, b), 0.5);
}

TEST(Superpose, MapsMobileOntoTarget) {
  const auto a = random_points(40, 6);
  const auto b = rotate_z(a, -0.7, Vec3{1, 2, 3});
  const auto fitted = superpose(a, b);
  EXPECT_NEAR(rmsd_raw(fitted, b), 0.0, 1e-9);
}

TEST(Superpose, HandlesDegenerateInputs) {
  EXPECT_TRUE(superpose({}, {}).empty());
  const std::vector<Vec3> one{{1, 2, 3}};
  const std::vector<Vec3> other{{4, 5, 6}};
  const auto fitted = superpose(one, other);
  ASSERT_EQ(fitted.size(), 1u);
  EXPECT_NEAR(distance(fitted[0], other[0]), 0.0, 1e-12);
}

// Property: superposed RMSD is invariant under rigid motion of either set.
class RmsdInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmsdInvariance, RigidMotionInvariant) {
  const auto a = random_points(20, GetParam());
  const auto b = random_points(20, GetParam() + 1000);
  const double base = rmsd_superposed(a, b);
  const auto a_moved = rotate_z(a, 2.2, Vec3{-4, 7, 1});
  const auto b_moved = rotate_z(b, -0.4, Vec3{3, 3, -9});
  EXPECT_NEAR(rmsd_superposed(a_moved, b), base, 1e-8);
  EXPECT_NEAR(rmsd_superposed(a, b_moved), base, 1e-8);
  EXPECT_NEAR(rmsd_superposed(a_moved, b_moved), base, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmsdInvariance,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

}  // namespace
}  // namespace impress::protein
