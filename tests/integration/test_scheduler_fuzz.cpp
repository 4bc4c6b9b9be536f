// Scheduler/runtime fuzzing: random heterogeneous workloads on random
// node shapes, checked against global invariants that must hold for ANY
// input — the resource pool is never oversubscribed at any instant, every
// task terminates, and the makespan is bounded below by trivial bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "hpc/analytics.hpp"
#include "runtime/session.hpp"

namespace impress::rp {
namespace {

// Time of the first `event` mark recorded for `entity`.
std::optional<double> time_of(const std::vector<obs::Mark>& marks,
                              std::string_view entity, std::string_view event) {
  for (const auto& m : marks)
    if (m.entity == entity && m.event == event) return m.time;
  return std::nullopt;
}

// ctest names each instance by the raw bytes gtest prints for it, so the
// struct has no padding: the spelled-out zero bytes give an instance the
// same ID in every build, where uninitialized padding changed it.
struct FuzzParams {
  std::uint64_t seed;
  SchedulerPolicy policy;
  std::uint32_t zero = 0;
};
static_assert(sizeof(FuzzParams) == 16 &&
              std::has_unique_object_representations_v<FuzzParams>);

class RuntimeFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(RuntimeFuzz, InvariantsHoldForRandomWorkloads) {
  const std::uint64_t seed = GetParam().seed;
  const SchedulerPolicy policy = GetParam().policy;
  common::Rng rng(seed);

  // Random node shape.
  hpc::NodeSpec node;
  node.cores = 4 + rng.below(29);  // 4..32
  node.gpus = rng.below(5);        // 0..4
  node.mem_gb = 64.0;

  SessionConfig cfg;
  cfg.seed = seed;
  Session session(cfg);
  PilotDescription pd;
  pd.nodes = {node};
  pd.policy = policy;
  pd.bootstrap_s = rng.uniform(0.0, 60.0);
  pd.exec_overhead = ExecOverheadModel{.setup_mean_s = rng.uniform(0.0, 20.0),
                                       .setup_jitter_sigma = 0.2};
  auto pilot = session.submit_pilot(pd);

  // Random workload that always fits the node.
  const int n_tasks = 20 + static_cast<int>(rng.below(60));
  double max_duration = 0.0;
  double total_core_seconds = 0.0;
  for (int i = 0; i < n_tasks; ++i) {
    const std::uint32_t cores = 1 + rng.below(node.cores);
    const std::uint32_t gpus = node.gpus == 0 ? 0 : rng.below(node.gpus + 1);
    const double duration = rng.uniform(1.0, 500.0);
    max_duration = std::max(max_duration, duration);
    total_core_seconds += duration * cores;
    auto td = make_simple_task("fuzz" + std::to_string(i), cores, gpus, duration);
    td.priority = rng.range(-2, 2);
    td.phases[0].jitter_sigma = 0.1;
    session.task_manager().submit(std::move(td));
  }
  session.run();

  // 1. Everything terminated successfully.
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
  const TaskManager::Counters counters = session.task_manager().counters();
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.done, counters.submitted);
  EXPECT_EQ(pilot->pool().free_cores(), node.cores);
  EXPECT_EQ(pilot->pool().free_gpus(), node.gpus);

  // 2. No instant oversubscribes the pool: sweep interval endpoints.
  const auto intervals = pilot->recorder().intervals();
  struct Edge {
    double t;
    int cores;
    int gpus;
  };
  std::vector<Edge> edges;
  for (const auto& iv : intervals) {
    edges.push_back({iv.start, static_cast<int>(iv.cores),
                     static_cast<int>(iv.gpus)});
    edges.push_back({iv.end, -static_cast<int>(iv.cores),
                     -static_cast<int>(iv.gpus)});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.cores < b.cores;  // process releases before acquisitions
  });
  int cores_in_use = 0, gpus_in_use = 0;
  for (const auto& e : edges) {
    cores_in_use += e.cores;
    gpus_in_use += e.gpus;
    EXPECT_LE(cores_in_use, static_cast<int>(node.cores));
    EXPECT_LE(gpus_in_use, static_cast<int>(node.gpus));
    EXPECT_GE(cores_in_use, 0);
    EXPECT_GE(gpus_in_use, 0);
  }

  // 3. Makespan sanity: at least the longest task (minus jitter slack),
  //    at least the perfectly-packed lower bound, and finite.
  const double makespan = pilot->recorder().latest_end();
  EXPECT_GE(makespan, max_duration * 0.6);  // lognormal jitter can shrink
  EXPECT_GE(makespan * node.cores, total_core_seconds * 0.5);
  EXPECT_LT(makespan, 1e9);

  // 4. Lifecycle-mark ordering invariants for every task.
  const auto marks = session.observability().tracer().marks();
  for (const auto& iv : intervals) {
    const auto setup =
        time_of(marks, iv.task_uid, hpc::events::kExecSetupStart);
    const auto start = time_of(marks, iv.task_uid, hpc::events::kExecStart);
    ASSERT_TRUE(setup && start);
    EXPECT_LE(*setup, *start);
    EXPECT_LE(*start, iv.start + 1e-9);
  }
}

std::vector<FuzzParams> fuzz_matrix() {
  std::vector<FuzzParams> out;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    for (auto policy : {SchedulerPolicy::kFifo, SchedulerPolicy::kBackfill})
      out.push_back({.seed = seed, .policy = policy});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Workloads, RuntimeFuzz,
                         ::testing::ValuesIn(fuzz_matrix()));

}  // namespace
}  // namespace impress::rp
