// TSan-targeted stress test for the shared idealized-trace table: threads
// building complexes race to fill the same (length, origin) entries. A
// missing lock around the table shows up as a TSan report (run under
// `cmake --preset tsan`); the assertions pin that every thread got the
// one shared, bit-exact trace per entry.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "protein/structure.hpp"

namespace impress::protein {
namespace {

TEST(StressProtein, ConcurrentComplexMakeSharesOneTracePerLength) {
  constexpr int kThreads = 4;
  constexpr std::size_t kLengths = 50;
  constexpr std::size_t kFirstLength = 300;  // unused by other suites
  const Sequence peptide = Sequence::from_string("EPEA");

  // receptor_data[t][i]: thread t's trace storage for length kFirstLength+i.
  std::vector<std::vector<const Vec3*>> receptor_data(
      kThreads, std::vector<const Vec3*>(kLengths));
  std::vector<const Vec3*> peptide_data(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks the lengths from its own starting point, so
      // first fills of an entry race with lookups of it.
      for (std::size_t k = 0; k < kLengths; ++k) {
        const std::size_t i =
            (k + static_cast<std::size_t>(t) * 13) % kLengths;
        const Sequence receptor(
            std::vector<AminoAcid>(kFirstLength + i, AminoAcid::kAla));
        const Complex cx = Complex::make("stress", receptor, peptide);
        receptor_data[t][i] = cx.receptor().ca.span().data();
        peptide_data[t] = cx.peptide().ca.span().data();
      }
    });
  for (auto& th : threads) th.join();

  using Bits = std::array<std::uint64_t, 3>;
  for (std::size_t i = 0; i < kLengths; ++i) {
    const CaTrace trace = ideal_trace(kFirstLength + i);
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(receptor_data[t][i], trace.span().data()) << "length " << i;
    const auto helix = ideal_helix(kFirstLength + i);
    for (std::size_t r = 0; r < helix.size(); ++r)
      ASSERT_EQ(std::bit_cast<Bits>(trace[r]), std::bit_cast<Bits>(helix[r]));
  }
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(peptide_data[t],
              ideal_trace(4, Vec3{8.0, 0.0, 0.0}).span().data());
}

}  // namespace
}  // namespace impress::protein
