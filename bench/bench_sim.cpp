// bench_sim: simulation-core scaling baseline.
//
// Self-timed (same conventions as bench_report): one JSON document —
// BENCH_sim.json — holding the engine's events/sec across total-event
// counts (1e6/1e7/1e8), pending-set sizes (1e2..1e6) and a cancel-heavy
// mix, plus a utilization-vs-scale study driving a
// simulated cluster of up to 10k heterogeneous nodes through the
// ResourcePool + UtilizationRecorder stack (the EXPERIMENTS.md §sim-scale
// tables come from this binary).
//
// Modes:
//   bench_sim [--out FILE]          full run (1e8-event sweeps; minutes)
//   bench_sim --smoke [--out FILE]  seconds-scale run for CI smoke jobs
//   bench_sim --check BASELINE      fail (exit 1) if throughput at 1e4
//                                   pending events falls under the
//                                   absolute sanity floor; the baseline's
//                                   figure is printed alongside.

#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "hpc/node.hpp"
#include "hpc/resource_pool.hpp"
#include "hpc/utilization.hpp"
#include "sim/engine.hpp"

using namespace impress;

namespace {

struct Options {
  std::string out = "BENCH_sim.json";
  std::string check;
  bool smoke = false;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic delay stream: uniform in [0, 10) s at millisecond grain,
/// the near-sorted arrival regime event queues see in practice.
double next_delay(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>((state >> 33) % 10'000) * 1e-3;
}

/// Fire `total` events while holding ~`pending` in the queue: prefill
/// `pending` self-renewing events, each firing schedules one replacement
/// until the budget is spent, then the queue drains. Returns events/sec.
double run_throughput(std::size_t total, std::size_t pending) {
  sim::Engine e;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  std::size_t scheduled = 0;
  std::function<void()> tick = [&] {
    if (scheduled < total) {
      ++scheduled;
      e.schedule_after(next_delay(rng), tick);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pending && scheduled < total; ++i) {
    ++scheduled;
    e.schedule_after(next_delay(rng), tick);
  }
  const std::size_t fired = e.run();
  const double s = seconds_since(start);
  if (fired != scheduled)
    std::cerr << "warning: fired " << fired << " != scheduled " << scheduled
              << "\n";
  return static_cast<double>(fired) / s;
}

/// Cancel-heavy mix: every fired event schedules its replacement plus a
/// decoy that is cancelled immediately — half of all queue insertions are
/// removed before firing (retry/backoff timer churn). Returns queue
/// operations (insert + cancel + fire) per second.
double run_cancel_heavy(std::size_t total, std::size_t pending) {
  sim::Engine e;
  std::uint64_t rng = 0xD1B54A32D192ED03ULL;
  std::size_t scheduled = 0;
  std::size_t cancels = 0;
  std::function<void()> tick = [&] {
    if (scheduled < total) {
      ++scheduled;
      e.schedule_after(next_delay(rng), tick);
    }
    const sim::EventId decoy = e.schedule_after(next_delay(rng), [] {});
    if (e.cancel(decoy)) ++cancels;
  };
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pending && scheduled < total; ++i) {
    ++scheduled;
    e.schedule_after(next_delay(rng), tick);
  }
  const std::size_t fired = e.run();
  const double s = seconds_since(start);
  const double ops =
      static_cast<double>(fired) + 2.0 * static_cast<double>(cancels);
  return ops / s;
}

/// Utilization-vs-scale study: a FIFO task stream placed onto a
/// heterogeneous `nodes`-node cluster, completions releasing resources
/// and recording usage intervals. Measures what the campaign layer sees:
/// achieved active utilization, simulated makespan and allocator+engine
/// throughput at cluster scale.
struct ClusterStudy {
  std::size_t nodes = 0;
  std::size_t tasks = 0;
  double cpu_active = 0.0;
  double gpu_active = 0.0;
  double makespan_h = 0.0;
  double wall_s = 0.0;
  double ops_per_s = 0.0;  ///< allocations + releases per wall second
};

ClusterStudy run_cluster_study(std::size_t nodes, std::size_t tasks) {
  hpc::ResourcePool pool(hpc::make_cluster(nodes));
  hpc::UtilizationRecorder recorder(pool.total_cores(), pool.total_gpus());
  sim::Engine e;
  std::uint64_t rng = 0x853C49E6748FEA9BULL;

  // Four request shapes matching the cluster's node mix; durations
  // 10..70 simulated minutes.
  const hpc::ResourceRequest shapes[] = {
      {.cores = 16, .gpus = 0, .mem_gb = 32.0},
      {.cores = 4, .gpus = 1, .mem_gb = 16.0},
      {.cores = 28, .gpus = 4, .mem_gb = 64.0},
      {.cores = 1, .gpus = 0, .mem_gb = 2.0},
  };

  std::deque<std::size_t> waiting;  // task index FIFO
  for (std::size_t i = 0; i < tasks; ++i) waiting.push_back(i);
  std::size_t placements = 0;

  // Place the queue head whenever resources free up; completions release
  // and re-try. (Head-of-line blocking is intentional: it matches the
  // coordinator's submission order guarantee.)
  std::function<void()> try_place = [&] {
    while (!waiting.empty()) {
      const std::size_t idx = waiting.front();
      const auto& req = shapes[idx % std::size(shapes)];
      auto alloc = pool.allocate(req);
      if (!alloc) break;
      waiting.pop_front();
      ++placements;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const double dur = 600.0 + static_cast<double>((rng >> 33) % 3600);
      const double t0 = e.now();
      e.schedule_after(dur, [&, a = std::move(*alloc), t0, dur, idx] {
        recorder.record(hpc::UsageInterval{
            .start = t0,
            .end = t0 + dur,
            .cores = static_cast<std::uint32_t>(a.cores.size()),
            .gpus = static_cast<std::uint32_t>(a.gpus.size()),
            .cpu_intensity = 0.8,
            .gpu_intensity = 0.6,
            .task_uid = "task." + std::to_string(idx)});
        pool.release(a);
        try_place();
      });
    }
  };

  const auto start = std::chrono::steady_clock::now();
  try_place();
  e.run();
  const double wall = seconds_since(start);

  const auto summary = recorder.summarize();
  ClusterStudy s;
  s.nodes = nodes;
  s.tasks = tasks;
  s.cpu_active = summary.cpu_active;
  s.gpu_active = summary.gpu_active;
  s.makespan_h = recorder.latest_end() / 3600.0;
  s.wall_s = wall;
  s.ops_per_s = static_cast<double>(2 * placements) / wall;
  return s;
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
      std::cerr << "usage: bench_sim [--smoke] [--out FILE] "
                   "[--check BASELINE]\n";
      return 2;
    }
  }

  // --- Throughput vs total events (pending set held at 1e4).
  const std::vector<std::size_t> totals =
      opt.smoke ? std::vector<std::size_t>{100'000, 1'000'000}
                : std::vector<std::size_t>{1'000'000, 10'000'000, 100'000'000};
  common::Json::Object throughput;
  for (const auto total : totals) {
    const double evps = run_throughput(total, 10'000);
    throughput["n" + std::to_string(total)] = evps;
    std::cout << "throughput n=" << total << ": "
              << static_cast<std::uint64_t>(evps) << " ev/s\n";
  }

  // --- Throughput vs pending-set size (fixed firing budget on top).
  const std::vector<std::size_t> pendings =
      opt.smoke ? std::vector<std::size_t>{100, 10'000}
                : std::vector<std::size_t>{100, 1'000, 10'000, 100'000,
                                           1'000'000};
  const std::size_t sweep_budget = opt.smoke ? 100'000 : 1'000'000;
  common::Json::Object pending_sweep;
  double evps_p10000 = 0.0;  // in both smoke and full sweeps; gated
  for (const auto pending : pendings) {
    const double evps = run_throughput(pending + sweep_budget, pending);
    if (pending == 10'000) evps_p10000 = evps;
    pending_sweep["p" + std::to_string(pending)] = evps;
    std::cout << "pending p=" << pending << ": "
              << static_cast<std::uint64_t>(evps) << " ev/s\n";
  }

  // --- Cancel-heavy mix (half of all insertions cancelled).
  const std::size_t cancel_total = opt.smoke ? 100'000 : 1'000'000;
  const double cancel_heavy = run_cancel_heavy(cancel_total, 10'000);
  std::cout << "cancel-heavy: " << static_cast<std::uint64_t>(cancel_heavy)
            << " ops/s\n";

  // --- Utilization vs cluster scale (the 10k-node study).
  const std::vector<std::size_t> cluster_sizes =
      opt.smoke ? std::vector<std::size_t>{100, 1'000}
                : std::vector<std::size_t>{100, 1'000, 10'000};
  const std::size_t tasks_per_node = opt.smoke ? 4 : 20;
  common::Json::Object utilization_scale;
  for (const auto nodes : cluster_sizes) {
    const auto s = run_cluster_study(nodes, nodes * tasks_per_node);
    utilization_scale["nodes" + std::to_string(nodes)] = common::Json::Object{
        {"nodes", s.nodes},
        {"tasks", s.tasks},
        {"cpu_active", s.cpu_active},
        {"gpu_active", s.gpu_active},
        {"makespan_h", s.makespan_h},
        {"wall_s", s.wall_s},
        {"alloc_release_ops_per_s", s.ops_per_s},
    };
    std::cout << "cluster nodes=" << s.nodes << " tasks=" << s.tasks
              << " cpu_active=" << s.cpu_active
              << " gpu_active=" << s.gpu_active
              << " makespan_h=" << s.makespan_h << " wall_s=" << s.wall_s
              << "\n";
  }

  const common::Json doc{common::Json::Object{
      {"schema", "impress.bench_sim.v2"},
      {"mode", opt.smoke ? "smoke" : "full"},
      {"hardware_threads",
       static_cast<std::size_t>(std::thread::hardware_concurrency())},
      {"throughput", std::move(throughput)},
      {"pending_sweep", std::move(pending_sweep)},
      {"cancel_heavy", cancel_heavy},
      {"utilization_scale", std::move(utilization_scale)},
  }};
  {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "bench_sim: cannot write " << opt.out << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
  }
  std::cout << "wrote " << opt.out << "\n";

  if (opt.check.empty()) return 0;

  // --- Regression gate against the checked-in baseline.
  std::ifstream in(opt.check);
  if (!in) {
    std::cerr << "bench_sim: cannot read baseline " << opt.check << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto baseline = common::Json::parse(buf.str());
  std::cout << "p10000: " << static_cast<std::uint64_t>(evps_p10000)
            << " ev/s (baseline "
            << static_cast<std::uint64_t>(
                   baseline.at("pending_sweep").at("p10000").as_number())
            << " ev/s)\n";
  // Absolute sanity floor: any machine that can run the suite at all
  // clears 1e5 ev/s at p=1e4; below that something is badly broken (e.g.
  // an accidental O(n) scan on the hot path).
  constexpr double kAbsoluteFloor = 1e5;
  if (evps_p10000 < kAbsoluteFloor) {
    std::cerr << "FAIL: p10000 throughput " << evps_p10000
              << " ev/s under the " << kAbsoluteFloor << " sanity floor\n";
    return 1;
  }
  std::cout << "bench_sim check: OK\n";
  return 0;
}
