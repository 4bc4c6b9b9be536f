// bench_infer: GPU batching baseline, from the offline replay.
//
// Self-timed (same conventions as bench_sim): one JSON document —
// BENCH_infer.json — holding the modeled batching study (GPU-seconds
// speedup per batch size under the setup-dominated cost model), an
// arrival-cadence sweep showing how the linger budget erodes batching
// when requests are sparse, the adaptive tuner's converged sizes per
// completion cadence, and a traced IM-RP campaign whose batching is
// replayed from its spans (hpc::replay_batching; the EXPERIMENTS.md
// §gpu-batching tables come from this binary).
//
// Modes:
//   bench_infer [--out FILE]          full run
//   bench_infer --smoke [--out FILE]  seconds-scale run for CI smoke jobs
//   bench_infer --check BASELINE      compare against a checked-in
//                                     baseline: fail (exit 1) if the
//                                     batch-8 speedup drops under the 3x
//                                     acceptance gate or 0.8x its
//                                     baseline value.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/campaign.hpp"
#include "hpc/analytics.hpp"
#include "protein/datasets.hpp"

using namespace impress;

namespace {

struct Options {
  std::string out = "BENCH_infer.json";
  std::string check;
  bool smoke = false;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Bench-grade cost model: setup 6x the per-item cost, the regime where
/// batching pays (weight residency + launch setup amortized across the
/// batch). A full batch of 8 models (6 + 8) vs 8 x (6 + 1): 4x.
constexpr hpc::GpuCostModel kCost{.setup_s = 6.0, .per_item_s = 1.0};

/// Account `n` design requests arriving `cadence_s` apart under the given
/// max batch.
hpc::StreamStats run_stream(std::uint32_t max_batch, std::size_t n,
                            double cadence_s) {
  hpc::BatchingConfig config;
  config.policy = {.max_batch = max_batch, .max_linger_s = 600.0};
  config.design_cost = kCost;
  hpc::BatchAccountant accountant(config);
  for (std::size_t i = 0; i < n; ++i)
    accountant.design_request(cadence_s * static_cast<double>(i));
  return accountant.report().design;
}

common::Json::Object stream_json(const hpc::StreamStats& s) {
  return common::Json::Object{
      {"requests", s.requests},
      {"batches", s.batches},
      {"max_batch", static_cast<std::size_t>(s.max_batch)},
      {"batched_gpu_s", s.batched_gpu_s},
      {"unbatched_gpu_s", s.unbatched_gpu_s},
      {"speedup", s.speedup()},
  };
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
      std::cerr << "usage: bench_infer [--smoke] [--out FILE] "
                   "[--check BASELINE]\n";
      return 2;
    }
  }

  // --- Modeled batching study: back-to-back arrivals (cadence well under
  // the linger budget) so every batch fills to the configured size. The
  // speedup is pure arithmetic — B(setup+per) / (setup+B*per) — so it is
  // identical across machines and smoke/full modes.
  const std::size_t sweep_n = opt.smoke ? 4'096 : 65'536;
  common::Json::Object batching_sweep;
  double speedup_b8 = 0.0;
  for (const std::uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
    const auto s = run_stream(b, sweep_n, 0.0);
    if (b == 8) speedup_b8 = s.speedup();
    batching_sweep["b" + std::to_string(b)] = stream_json(s);
    std::cout << "batching b=" << b << ": speedup " << s.speedup() << "x ("
              << s.batches << " batches)\n";
  }

  // --- Arrival-cadence sweep at max_batch 8: as the gap between requests
  // approaches the 600 s linger budget, batches close before they fill
  // and the speedup decays toward 1x.
  common::Json::Object cadence_sweep;
  for (const double cadence : {0.0, 75.0, 150.0, 300.0, 700.0}) {
    const auto s = run_stream(8, opt.smoke ? 1'024 : 8'192, cadence);
    cadence_sweep["gap" + std::to_string(static_cast<int>(cadence))] =
        stream_json(s);
    std::cout << "cadence gap=" << cadence << "s: speedup " << s.speedup()
              << "x (max batch " << s.max_batch << ")\n";
  }

  // --- Adaptive tuner: converged batch size per completion cadence
  // (linger 600 s, so the tuner targets 1 + floor(600/gap)).
  common::Json::Object tuner_study;
  for (const double gap : {50.0, 100.0, 300.0, 900.0}) {
    hpc::BatchTuner tuner(
        hpc::BatchTuner::Config{.ewma_alpha = 0.25,
                                .min_batch = 1,
                                .max_batch = 16,
                                .max_linger_s = 600.0},
        /*initial_batch=*/8);
    for (int i = 0; i < 64; ++i)
      (void)tuner.observe(gap * static_cast<double>(i));
    tuner_study["gap" + std::to_string(static_cast<int>(gap))] =
        common::Json::Object{
            {"batch_size", static_cast<std::size_t>(tuner.batch_size())},
            {"decisions", tuner.decisions()},
        };
    std::cout << "tuner gap=" << gap << "s: batch " << tuner.batch_size()
              << " (" << tuner.decisions() << " decisions)\n";
  }

  // --- Campaign study: a traced IM-RP run, its batching replayed with the
  // default (AlphaFold-calibrated) cost models and the adaptive tuner.
  // Request times come from the simulated schedule, so batching here
  // reflects what the protocol's real concurrency structure can fill.
  auto cfg = core::im_rp_campaign(7);
  cfg.session.enable_tracing = true;
  std::vector<protein::DesignTarget> targets;
  targets.push_back(
      protein::make_target("BN-A", 84, protein::alpha_synuclein().tail(10)));
  if (!opt.smoke)
    targets.push_back(
        protein::make_target("BN-B", 90, protein::alpha_synuclein().tail(10)));
  const auto campaign_start = std::chrono::steady_clock::now();
  const auto r = core::Campaign(cfg).run(targets);
  const double campaign_wall = seconds_since(campaign_start);
  hpc::BatchingConfig batching;
  batching.speed_factor = hpc::slowest_gpu_speed(cfg.pilot.nodes);
  batching.adaptive = true;
  const auto replay_start = std::chrono::steady_clock::now();
  const auto b = hpc::replay_batching(r.trace, batching);
  const double replay_wall = seconds_since(replay_start);
  const common::Json::Object campaign{
      {"trajectories", r.total_trajectories()},
      {"fold", stream_json(b.fold)},
      {"design", stream_json(b.design)},
      {"batch_size", static_cast<std::size_t>(b.batch_size)},
      {"tuner_decisions", b.tuner_decisions},
      {"wall_s", campaign_wall},
      {"replay_wall_s", replay_wall},
  };
  std::cout << "campaign: fold " << b.fold.requests << " requests in "
            << b.fold.batches << " batches (" << b.fold.batched_gpu_s
            << " GPU-s), design " << b.design.requests << " requests in "
            << b.design.batches << " batches (" << b.design.batched_gpu_s
            << " GPU-s), " << b.tuner_decisions
            << " tuner decisions, final batch size " << b.batch_size << "\n";

  // Only the modeled batch-8 speedup is gated: it is pure arithmetic,
  // identical across machines and smoke/full modes. The campaign speedup
  // depends on the target mix, which differs between modes.
  const common::Json::Object ratios{
      {"speedup_b8", speedup_b8},
  };

  const common::Json doc{common::Json::Object{
      {"schema", "impress.bench_infer.v2"},
      {"mode", opt.smoke ? "smoke" : "full"},
      {"hardware_threads",
       static_cast<std::size_t>(std::thread::hardware_concurrency())},
      {"batching_sweep", batching_sweep},
      {"cadence_sweep", cadence_sweep},
      {"tuner", tuner_study},
      {"campaign", campaign},
      {"ratios", ratios},
  }};
  {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "bench_infer: cannot write " << opt.out << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
  }
  std::cout << "wrote " << opt.out << "\n";

  if (opt.check.empty()) return 0;

  // --- Regression gate against the checked-in baseline.
  std::ifstream in(opt.check);
  if (!in) {
    std::cerr << "bench_infer: cannot read baseline " << opt.check << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto baseline = common::Json::parse(buf.str());
  int failures = 0;
  // Acceptance gate: a full batch of 8 must model at least a 3x gain
  // over one-request-per-dispatch.
  constexpr double kSpeedupGate = 3.0;
  if (speedup_b8 < kSpeedupGate) {
    std::cerr << "FAIL: batch-8 speedup " << speedup_b8 << "x under the "
              << kSpeedupGate << "x acceptance gate\n";
    ++failures;
  }
  constexpr double kRegressionFloor = 0.8;  // keep >= 80% of baseline ratio
  for (const auto& [name, value] : ratios) {
    if (!baseline.at("ratios").contains(name)) continue;  // schema drift
    const double base = baseline.at("ratios").at(name).as_number();
    const double current = value.as_number();
    if (current < kRegressionFloor * base) {
      std::cerr << "FAIL: ratio '" << name << "' regressed: " << current
                << "x < " << kRegressionFloor << " * baseline " << base
                << "x\n";
      ++failures;
    }
  }
  if (failures == 0) std::cout << "bench_infer check: OK\n";
  return failures == 0 ? 0 : 1;
}
