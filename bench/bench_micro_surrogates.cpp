// Surrogate-model microbenchmarks (google-benchmark): the per-call cost
// of the science kernels — landscape fitness, ProteinMPNN design,
// AlphaFold prediction, Kabsch superposition and PDB round-trip — which
// bound how fast campaigns replay on the virtual clock.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "fold/fold.hpp"
#include "mpnn/mpnn.hpp"
#include "protein/datasets.hpp"
#include "protein/geometry.hpp"
#include "protein/kernel_tables.hpp"
#include "protein/pdb.hpp"

using namespace impress;

namespace {

/// A fixed stream of (position, residue) proposals so the naive and
/// incremental mutation-scoring benches evaluate the identical workload.
std::vector<std::pair<std::size_t, protein::AminoAcid>> proposal_stream(
    std::size_t length, std::size_t n) {
  common::Rng rng(11);
  std::vector<std::pair<std::size_t, protein::AminoAcid>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.emplace_back(rng.below(static_cast<std::uint32_t>(length)),
                     static_cast<protein::AminoAcid>(rng.below(
                         static_cast<std::uint32_t>(protein::kNumAminoAcids))));
  return out;
}

const protein::DesignTarget& target() {
  static const auto t = protein::make_target(
      "BENCH", 96, protein::alpha_synuclein().tail(10));
  return t;
}

void BM_LandscapeFitness(benchmark::State& state) {
  const auto& t = target();
  const auto seq = t.start_receptor;
  for (auto _ : state) benchmark::DoNotOptimize(t.landscape.fitness(seq));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LandscapeFitness);

void BM_MutationScoreNaive(benchmark::State& state) {
  // Score a point mutation the pre-optimization way: copy the sequence
  // and recompute the full fitness. Baseline for the incremental kernel.
  const auto& t = target();
  const auto seq = t.start_receptor;
  const auto proposals = proposal_stream(seq.size(), 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [pos, aa] = proposals[i++ & 1023];
    benchmark::DoNotOptimize(t.landscape.fitness(seq.with_mutation(pos, aa)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutationScoreNaive);

void BM_MutationScoreIncremental(benchmark::State& state) {
  // Same workload through MutationScorer::score_mutation — O(log L)
  // partial-sum updates, bit-identical results. Speedup vs the naive
  // bench above is the acceptance criterion for the kernel pass.
  const auto& t = target();
  const protein::FitnessLandscape::MutationScorer scorer(t.landscape,
                                                         t.start_receptor);
  const auto proposals = proposal_stream(t.start_receptor.size(), 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [pos, aa] = proposals[i++ & 1023];
    benchmark::DoNotOptimize(scorer.score_mutation(pos, aa));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutationScoreIncremental);

void BM_LandscapePreference(benchmark::State& state) {
  // O(1) pocket-index lookup (was a binary search per call).
  const auto& t = target();
  const auto proposals = proposal_stream(t.start_receptor.size(), 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [pos, aa] = proposals[i++ & 1023];
    benchmark::DoNotOptimize(t.landscape.preference(pos, aa));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LandscapePreference);

void BM_ResidueSimilarityDirect(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
    const auto b =
        static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
    benchmark::DoNotOptimize(protein::detail::residue_similarity_direct(a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResidueSimilarityDirect);

void BM_ResidueSimilarityTable(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
    const auto b =
        static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
    benchmark::DoNotOptimize(protein::residue_similarity(a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResidueSimilarityTable);

void BM_SeedSequence(benchmark::State& state) {
  // seed_sequence is the constructor-time hot loop of every DesignTarget;
  // it now runs on the incremental scorer.
  const auto& t = target();
  common::Rng rng(13);
  for (auto _ : state)
    benchmark::DoNotOptimize(t.landscape.seed_sequence(0.45, rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeedSequence);

void BM_MpnnDesign(benchmark::State& state) {
  const auto& t = target();
  const auto cx = t.start_complex();
  mpnn::SamplerConfig cfg;
  cfg.num_sequences = static_cast<std::size_t>(state.range(0));
  const mpnn::Mpnn model(cfg);
  common::Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.design(cx, t.landscape, rng));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MpnnDesign)->Arg(10)->Arg(100);

void BM_AlphaFoldPredict(benchmark::State& state) {
  const auto& t = target();
  const auto cx = t.start_complex();
  const fold::AlphaFold model;
  common::Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.predict(cx, t.landscape, rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AlphaFoldPredict);

void BM_KabschRmsd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = protein::ideal_helix(n);
  auto b = a;
  for (auto& p : b) p = protein::Vec3{p.z, p.x, p.y + 3.0};  // rotated+shifted
  for (auto _ : state)
    benchmark::DoNotOptimize(protein::rmsd_superposed(a, b));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KabschRmsd)->Arg(100)->Arg(1000);

void BM_PdbRoundTrip(benchmark::State& state) {
  const auto cx = target().start_complex();
  for (auto _ : state) {
    const auto text = protein::to_pdb(cx.structure);
    benchmark::DoNotOptimize(protein::from_pdb(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PdbRoundTrip);

}  // namespace

BENCHMARK_MAIN();
