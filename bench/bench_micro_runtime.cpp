// Middleware microbenchmarks (google-benchmark): the primitive costs
// behind the paper's "asynchronous execution and dynamic resource
// allocation" claims — channel throughput, scheduler placement, event
// engine, thread-pool dispatch, and end-to-end simulated task turnaround.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/channel.hpp"
#include "common/thread_pool.hpp"
#include "hpc/resource_pool.hpp"
#include "runtime/session.hpp"
#include "sim/engine.hpp"

using namespace impress;

namespace {

void BM_TracerMark(benchmark::State& state) {
  // Hot-path cost of one lifecycle mark: three string copies and one
  // append under the tracer's lock. The multi-threaded variants show what
  // back-to-back marking from several threads costs when they serialize
  // on that lock. Iterations are pinned so the retained mark log stays
  // bounded; the log is cleared between runs.
  static obs::Tracer tracer;
  if (state.thread_index() == 0) tracer.clear();
  double t = 0.0;
  for (auto _ : state) tracer.mark(t += 1.0, "task.000001", "exec_start");
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) tracer.clear();
}
BENCHMARK(BM_TracerMark)
    ->Iterations(1 << 15)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8);

void BM_ChannelSendReceive(benchmark::State& state) {
  common::Channel<int> ch;
  for (auto _ : state) {
    ch.send(1);
    benchmark::DoNotOptimize(ch.receive());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSendReceive);

void BM_ChannelMpmcThroughput(benchmark::State& state) {
  // Producer/consumer pair across threads, batched per iteration.
  const int kBatch = 1024;
  for (auto _ : state) {
    common::Channel<int> ch(256);
    std::thread producer([&] {
      for (int i = 0; i < kBatch; ++i) ch.send(i);
      ch.close();
    });
    int received = 0;
    while (ch.receive()) ++received;
    producer.join();
    if (received != kBatch) state.SkipWithError("lost messages");
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ChannelMpmcThroughput);

void BM_ResourcePoolAllocateRelease(benchmark::State& state) {
  hpc::ResourcePool pool(hpc::amarel_node());
  const hpc::ResourceRequest req{.cores = 7, .gpus = 1, .mem_gb = 0.0};
  for (auto _ : state) {
    auto a = pool.allocate(req);
    benchmark::DoNotOptimize(a);
    pool.release(*a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourcePoolAllocateRelease);

void BM_EngineEventThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i)
      engine.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    engine.run();
    if (fired != n) state.SkipWithError("missing events");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(10000);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  common::ThreadPool pool(4);
  for (auto _ : state) {
    auto f = pool.submit([] { return 42; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThreadPoolDispatch);

void BM_SimulatedTaskTurnaround(benchmark::State& state) {
  // Full submit -> schedule -> execute -> complete cycle through the
  // pilot runtime with N tasks per iteration, simulated clock.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rp::Session session(rp::SessionConfig{});
    rp::PilotDescription pd;
    session.submit_pilot(pd);
    for (std::size_t i = 0; i < n; ++i)
      session.task_manager().submit(
          rp::make_simple_task("t" + std::to_string(i), 1, 0, 10.0));
    session.run();
    if (session.task_manager().counters().done != n)
      state.SkipWithError("tasks not completed");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_SimulatedTaskTurnaround)->Arg(100)->Arg(1000);

void BM_SchedulerBackfillPlacement(benchmark::State& state) {
  // Mixed-width queue against a busy pool: cost of one scheduling pass.
  for (auto _ : state) {
    state.PauseTiming();
    rp::Session session(rp::SessionConfig{});
    rp::PilotDescription pd;
    pd.policy = rp::SchedulerPolicy::kBackfill;
    auto pilot = session.submit_pilot(pd);
    std::vector<rp::TaskDescription> tds;
    for (int i = 0; i < 200; ++i)
      tds.push_back(rp::make_simple_task("t" + std::to_string(i),
                                         i % 3 == 0 ? 7 : 2, i % 5 == 0 ? 1 : 0,
                                         50.0));
    state.ResumeTiming();
    session.task_manager().submit(std::move(tds));
    session.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_SchedulerBackfillPlacement);

}  // namespace

BENCHMARK_MAIN();
