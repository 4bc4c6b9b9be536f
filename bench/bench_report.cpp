// bench_report: machine-readable hot-kernel baseline.
//
// Self-timed (no google-benchmark dependency) so the output is a single
// JSON document — BENCH_kernels.json — that CI can archive and diff. For
// each kernel it reports ns/op; for each optimized kernel it also reports
// the speedup over the naive implementation it replaced, which is what
// the regression check gates on (ratios are stable across machines in a
// way raw nanoseconds are not). The lifecycle-mark kernel has no naive
// twin and reports ns/op only.
//
// Modes:
//   bench_report [--out FILE]          full run, writes FILE (default
//                                      BENCH_kernels.json in the cwd)
//   bench_report --smoke [--out FILE]  short run for CI smoke jobs
//   bench_report --check BASELINE      after measuring, compare against a
//                                      checked-in baseline: fail (exit 1)
//                                      if any speedup drops below 0.8x its
//                                      baseline value or the mutation-
//                                      scoring speedup falls under the 5x
//                                      acceptance floor.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "protein/datasets.hpp"
#include "protein/kernel_tables.hpp"
#include "protein/landscape.hpp"

using namespace impress;

namespace {

volatile double g_sink = 0.0;  // defeats dead-code elimination

/// ns/op of `op(i)`, doubling the repetition count until the measured
/// window reaches `min_ms` (so short kernels are timed over many calls).
double time_kernel(const std::function<void(std::size_t)>& op, double min_ms) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 64;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < reps; ++i) op(i);
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count();
    if (ms >= min_ms || reps >= (std::size_t{1} << 26))
      return ms * 1e6 / static_cast<double>(reps);
    reps *= 4;
  }
}

/// ns/op with `threads` workers each performing `per_thread` calls of
/// `op(thread, i)` concurrently (wall time over total ops).
double time_threaded(int threads, std::size_t per_thread,
                     const std::function<void(int, std::size_t)>& op) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) op(t, i);
    });
  for (auto& w : workers) w.join();
  const double ns =
      std::chrono::duration<double, std::nano>(clock::now() - start).count();
  return ns / (static_cast<double>(threads) * static_cast<double>(per_thread));
}

struct Options {
  std::string out = "BENCH_kernels.json";
  std::string check;  // baseline path; empty = no check
  bool smoke = false;
};

int usage() {
  std::cerr << "usage: bench_report [--smoke] [--out FILE] [--check BASELINE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      opt.check = argv[++i];
    } else {
      return usage();
    }
  }
  const double min_ms = opt.smoke ? 2.0 : 80.0;

  const auto& target = protein::make_target(
      "BENCH", 96, protein::alpha_synuclein().tail(10));
  const auto& land = target.landscape;
  const auto seq = target.start_receptor;

  // One fixed proposal stream shared by both mutation-scoring paths.
  std::vector<std::pair<std::size_t, protein::AminoAcid>> proposals;
  {
    common::Rng rng(11);
    for (int i = 0; i < 1024; ++i)
      proposals.emplace_back(
          rng.below(static_cast<std::uint32_t>(seq.size())),
          static_cast<protein::AminoAcid>(rng.below(
              static_cast<std::uint32_t>(protein::kNumAminoAcids))));
  }

  common::Json::Object kernels;
  auto add_kernel = [&kernels](const std::string& name, double ns) {
    kernels[name] = common::Json::Object{{"ns_per_op", ns}};
    std::cout << name << ": " << ns << " ns/op\n";
  };

  // --- Mutation scoring: naive full recompute vs incremental scorer.
  const double naive_ns = time_kernel(
      [&](std::size_t i) {
        const auto& [pos, aa] = proposals[i & 1023];
        g_sink = g_sink + land.fitness(seq.with_mutation(pos, aa));
      },
      min_ms);
  const protein::FitnessLandscape::MutationScorer scorer(land, seq);
  const double incr_ns = time_kernel(
      [&](std::size_t i) {
        const auto& [pos, aa] = proposals[i & 1023];
        g_sink = g_sink + scorer.score_mutation(pos, aa);
      },
      min_ms);
  add_kernel("mutation_score_naive", naive_ns);
  add_kernel("mutation_score_incremental", incr_ns);

  // --- Residue-similarity kernel: direct formula vs 20x20 table.
  const double sim_direct_ns = time_kernel(
      [&](std::size_t i) {
        const auto a =
            static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
        const auto b =
            static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
        g_sink = g_sink + protein::detail::residue_similarity_direct(a, b);
      },
      min_ms);
  const double sim_table_ns = time_kernel(
      [&](std::size_t i) {
        const auto a =
            static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
        const auto b =
            static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
        g_sink = g_sink + protein::residue_similarity(a, b);
      },
      min_ms);
  add_kernel("residue_similarity_direct", sim_direct_ns);
  add_kernel("residue_similarity_table", sim_table_ns);

  // --- Preference lookup and seed_sequence (consumers of the above).
  add_kernel("preference",
             time_kernel(
                 [&](std::size_t i) {
                   const auto& [pos, aa] = proposals[i & 1023];
                   g_sink = g_sink + land.preference(pos, aa);
                 },
                 min_ms));
  {
    common::Rng rng(13);
    add_kernel("seed_sequence",
               time_kernel(
                   [&](std::size_t) {
                     g_sink =
                         g_sink +
                         static_cast<double>(land.seed_sequence(0.45, rng).size());
                   },
                   min_ms));
  }

  // --- Lifecycle mark: four threads marking one tracer back to back (the
  // kernel keeps its profiler_record name so results stay comparable
  // across BENCH_kernels.json revisions).
  {
    const int threads = 4;
    const std::size_t per_thread = opt.smoke ? 4096 : 65536;
    obs::Tracer tracer;
    add_kernel("profiler_record",
               time_threaded(threads, per_thread, [&](int t, std::size_t i) {
                 tracer.mark(static_cast<double>(i), "task.000001",
                             t % 2 == 0 ? "exec_start" : "exec_stop");
               }));
    if (tracer.marks().size() !=
        static_cast<std::size_t>(threads) * per_thread)
      std::cerr << "warning: tracer lost marks\n";
  }

  const common::Json::Object speedups{
      {"mutation_score", naive_ns / incr_ns},
      {"residue_similarity", sim_direct_ns / sim_table_ns},
  };
  for (const auto& [name, value] : speedups)
    std::cout << "speedup " << name << ": " << value.as_number() << "x\n";

  const common::Json doc{common::Json::Object{
      {"schema", "impress.bench_kernels.v1"},
      {"mode", opt.smoke ? "smoke" : "full"},
      {"hardware_threads",
       static_cast<std::size_t>(std::thread::hardware_concurrency())},
      {"kernels", std::move(kernels)},
      {"speedups", speedups},
  }};
  {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "bench_report: cannot write " << opt.out << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
  }  // closed before --check may re-read the same path
  std::cout << "wrote " << opt.out << "\n";

  if (opt.check.empty()) return 0;

  // --- Regression gate against the checked-in baseline.
  std::ifstream in(opt.check);
  if (!in) {
    std::cerr << "bench_report: cannot read baseline " << opt.check << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto baseline = common::Json::parse(buf.str());
  int failures = 0;
  constexpr double kRegressionFloor = 0.8;  // keep >= 80% of baseline speedup
  const std::vector<std::string> gated{"mutation_score", "residue_similarity"};
  for (const auto& name : gated) {
    if (!speedups.contains(name) ||
        !baseline.at("speedups").contains(name))
      continue;
    const double base = baseline.at("speedups").at(name).as_number();
    const double current = speedups.at(name).as_number();
    if (current < kRegressionFloor * base) {
      std::cerr << "FAIL: speedup '" << name << "' regressed: " << current
                << "x < " << kRegressionFloor << " * baseline " << base
                << "x\n";
      ++failures;
    }
  }
  constexpr double kMutationScoreFloor = 5.0;  // absolute acceptance criterion
  if (speedups.at("mutation_score").as_number() < kMutationScoreFloor) {
    std::cerr << "FAIL: mutation_score speedup "
              << speedups.at("mutation_score").as_number() << "x < "
              << kMutationScoreFloor << "x floor\n";
    ++failures;
  }
  if (failures != 0) return 1;
  std::cout << "check passed against " << opt.check << "\n";
  return 0;
}
