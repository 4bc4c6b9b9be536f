#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace impress::rp {
namespace {

struct Fixture {
  hpc::ResourcePool pool{hpc::amarel_node()};
  std::vector<std::pair<TaskPtr, hpc::Allocation>> placed;

  Scheduler make(SchedulerPolicy policy) {
    return Scheduler(policy, pool, [this](TaskPtr t, hpc::Allocation a) {
      placed.emplace_back(std::move(t), std::move(a));
    });
  }

  static TaskPtr task(const std::string& name, std::uint32_t cores,
                      std::uint32_t gpus = 0, int priority = 0) {
    auto td = make_simple_task(name, cores, gpus, 1.0);
    td.priority = priority;
    return std::make_shared<Task>("task." + name, std::move(td));
  }
};

TEST(SchedulerPolicyNames, Strings) {
  EXPECT_EQ(to_string(SchedulerPolicy::kFifo), "FIFO");
  EXPECT_EQ(to_string(SchedulerPolicy::kBackfill), "BACKFILL");
}

TEST(Scheduler, PlacesWhatFits) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  s.enqueue(Fixture::task("a", 10));
  s.enqueue(Fixture::task("b", 10));
  EXPECT_EQ(s.try_schedule(), 2u);
  EXPECT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST(Scheduler, FifoHeadBlocksQueue) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  // Occupy 22 cores so the 10-core head cannot start.
  auto big = f.pool.allocate({.cores = 22});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("head", 10));
  s.enqueue(Fixture::task("small", 2));  // would fit, but FIFO blocks it
  EXPECT_EQ(s.try_schedule(), 0u);
  EXPECT_EQ(s.queue_length(), 2u);
  f.pool.release(*big);
  EXPECT_EQ(s.try_schedule(), 2u);
}

TEST(Scheduler, BackfillSkipsBlockedHead) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  auto big = f.pool.allocate({.cores = 22});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("head", 10));
  s.enqueue(Fixture::task("small", 2));
  EXPECT_EQ(s.try_schedule(), 1u);
  ASSERT_EQ(f.placed.size(), 1u);
  EXPECT_EQ(f.placed[0].first->description().name, "small");
  EXPECT_EQ(s.queue_length(), 1u);
  f.pool.release(*big);
}

TEST(Scheduler, BackfillHonorsPriority) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("low", 2, 0, 0));
  s.enqueue(Fixture::task("high", 2, 0, 5));
  EXPECT_EQ(s.try_schedule(), 2u);
  ASSERT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(f.placed[0].first->description().name, "high");
}

TEST(Scheduler, BackfillStableWithinPriority) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("first", 2));
  s.enqueue(Fixture::task("second", 2));
  EXPECT_EQ(s.try_schedule(), 2u);
  ASSERT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(f.placed[0].first->description().name, "first");
}

TEST(Scheduler, RemoveDequeuesTask) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  auto t = Fixture::task("a", 2);
  s.enqueue(t);
  EXPECT_TRUE(s.remove(t));
  EXPECT_FALSE(s.remove(t));
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.try_schedule(), 0u);
}

TEST(Scheduler, GpuContentionLimitsPlacement) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  for (int i = 0; i < 6; ++i)
    s.enqueue(Fixture::task("g" + std::to_string(i), 1, 1));
  EXPECT_EQ(s.try_schedule(), 4u);  // only 4 GPUs
  EXPECT_EQ(s.queue_length(), 2u);
}

TEST(Scheduler, AllocationsMatchRequests) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("a", 5, 2));
  EXPECT_EQ(s.try_schedule(), 1u);
  ASSERT_EQ(f.placed.size(), 1u);
  EXPECT_EQ(f.placed[0].second.cores.size(), 5u);
  EXPECT_EQ(f.placed[0].second.gpus.size(), 2u);
}

// Regression (per-tick sort): under kBackfill the queue is kept in
// priority order at enqueue, so try_schedule never sorts. Interleaved
// enqueues must still come out highest-priority first, submission order
// preserved within a priority class.
TEST(Scheduler, EnqueueMaintainsPriorityOrder) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("p0-a", 2, 0, 0));
  s.enqueue(Fixture::task("p5-a", 2, 0, 5));
  s.enqueue(Fixture::task("p3", 2, 0, 3));
  s.enqueue(Fixture::task("p5-b", 2, 0, 5));
  s.enqueue(Fixture::task("p0-b", 2, 0, 0));
  const auto drained = s.drain();
  ASSERT_EQ(drained.size(), 5u);
  EXPECT_EQ(drained[0]->description().name, "p5-a");
  EXPECT_EQ(drained[1]->description().name, "p5-b");
  EXPECT_EQ(drained[2]->description().name, "p3");
  EXPECT_EQ(drained[3]->description().name, "p0-a");
  EXPECT_EQ(drained[4]->description().name, "p0-b");
}

TEST(Scheduler, PriorityOrderSurvivesPartialScheduling) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  // Fill the node so nothing can start, then enqueue out of order.
  auto big = f.pool.allocate({.cores = 28});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("low", 2, 0, 1));
  s.enqueue(Fixture::task("high", 2, 0, 9));
  EXPECT_EQ(s.try_schedule(), 0u);
  s.enqueue(Fixture::task("mid", 2, 0, 4));
  f.pool.release(*big);
  EXPECT_EQ(s.try_schedule(), 3u);
  ASSERT_EQ(f.placed.size(), 3u);
  EXPECT_EQ(f.placed[0].first->description().name, "high");
  EXPECT_EQ(f.placed[1].first->description().name, "mid");
  EXPECT_EQ(f.placed[2].first->description().name, "low");
}

TEST(Scheduler, DrainEmptiesQueueInOrder) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  s.enqueue(Fixture::task("a", 2));
  s.enqueue(Fixture::task("b", 2));
  s.enqueue(Fixture::task("c", 2));
  const auto drained = s.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0]->description().name, "a");
  EXPECT_EQ(drained[2]->description().name, "c");
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.try_schedule(), 0u);
}

// The single-deque scheduler the shape queues replaced, kept as the
// reference: one priority-ordered queue, allocate tried on every waiting
// task in start order on every pass.
class LinearScanScheduler {
 public:
  LinearScanScheduler(SchedulerPolicy policy, hpc::ResourcePool& pool,
                      Scheduler::PlaceFn place)
      : policy_(policy), pool_(pool), place_(std::move(place)) {}

  void enqueue(TaskPtr task) {
    if (policy_ == SchedulerPolicy::kFifo) {
      queue_.push_back(std::move(task));
      return;
    }
    const int priority = task->description().priority;
    const auto it = std::upper_bound(
        queue_.begin(), queue_.end(), priority,
        [](int p, const TaskPtr& t) { return p > t->description().priority; });
    queue_.insert(it, std::move(task));
  }

  bool remove(const TaskPtr& task) {
    const auto it = std::find(queue_.begin(), queue_.end(), task);
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  std::deque<TaskPtr> drain() {
    std::deque<TaskPtr> out;
    out.swap(queue_);
    return out;
  }

  std::size_t try_schedule() {
    std::size_t started = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      auto alloc = pool_.allocate((*it)->description().resources);
      if (!alloc) {
        if (policy_ == SchedulerPolicy::kFifo) break;
        ++it;
        continue;
      }
      TaskPtr task = std::move(*it);
      it = queue_.erase(it);
      place_(std::move(task), std::move(*alloc));
      ++started;
    }
    return started;
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

 private:
  SchedulerPolicy policy_;
  hpc::ResourcePool& pool_;
  Scheduler::PlaceFn place_;
  std::deque<TaskPtr> queue_;
};

using Placement = std::tuple<std::string, std::uint32_t,
                             std::vector<std::uint32_t>,
                             std::vector<std::uint32_t>>;

std::vector<hpc::NodeSpec> random_nodes(common::Rng& rng) {
  std::vector<hpc::NodeSpec> nodes(1 + rng.below(4));
  for (auto& n : nodes) {
    n.cores = 1 + rng.below(16);
    n.gpus = rng.below(5);
    n.mem_gb = rng.chance(0.25) ? 0.0 : 8.0 * rng.below(9);
    n.gpu_mem_gb = rng.chance(0.3) ? 0.0 : 2.0 * (1 + rng.below(8));
  }
  return nodes;
}

std::vector<hpc::ResourceRequest> random_palette(common::Rng& rng) {
  // Fractional slices with device memory always appear; the rest mixes
  // whole-GPU, CPU-only and memory-hungry shapes.
  std::vector<hpc::ResourceRequest> palette{
      {.cores = 1, .gpus = 1 + rng.below(2), .mem_gb = 0.0,
       .gpu_mem_gb = 1.0 + rng.below(4), .gpu_slice_milli = 250},
      {.cores = 1 + rng.below(2), .gpus = 1 + rng.below(2), .mem_gb = 2.0,
       .gpu_mem_gb = 2.0 + rng.below(4), .gpu_slice_milli = 500}};
  constexpr std::uint32_t kSlices[] = {250, 500, 1000};
  const std::size_t n = 3 + rng.below(4);
  while (palette.size() < n) {
    const std::uint32_t gpus = rng.below(3);
    palette.push_back({.cores = 1 + rng.below(6),
                       .gpus = gpus,
                       .mem_gb = rng.chance(0.5) ? 0.0 : 4.0 * rng.below(5),
                       .gpu_mem_gb = gpus == 0 || rng.chance(0.5)
                                         ? 0.0
                                         : 1.0 + rng.below(6),
                       .gpu_slice_milli = kSlices[rng.below(3)]});
  }
  return palette;
}

TEST(Scheduler, ShapeQueuesPlaceLikeLinearScan) {
  for (const auto policy : {SchedulerPolicy::kFifo, SchedulerPolicy::kBackfill}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::string(to_string(policy)));
      common::Rng rng(seed);
      const auto nodes = random_nodes(rng);
      const auto palette = random_palette(rng);
      hpc::ResourcePool pool_a(nodes);
      hpc::ResourcePool pool_b(nodes);
      std::vector<Placement> placed_a;
      std::vector<Placement> placed_b;
      std::vector<hpc::Allocation> held_a;
      std::vector<hpc::Allocation> held_b;
      auto recorder = [](std::vector<Placement>& placed,
                         std::vector<hpc::Allocation>& held) {
        return [&placed, &held](TaskPtr t, hpc::Allocation a) {
          placed.emplace_back(t->uid(), a.node, a.cores, a.gpus);
          held.push_back(std::move(a));
        };
      };
      Scheduler shaped(policy, pool_a, recorder(placed_a, held_a));
      LinearScanScheduler linear(policy, pool_b, recorder(placed_b, held_b));

      std::vector<TaskPtr> tasks;
      for (int op = 0; op < 300; ++op) {
        const std::uint32_t kind = rng.below(10);
        if (kind < 5) {
          const auto& shape = palette[rng.below(
              static_cast<std::uint32_t>(palette.size()))];
          // Pilot::try_enqueue rejects what can never fit.
          if (!pool_a.fits_ever(shape)) continue;
          TaskDescription td =
              make_simple_task("t" + std::to_string(tasks.size()),
                               shape.cores, shape.gpus, 1.0);
          td.resources = shape;
          td.priority = rng.range(-2, 2);
          tasks.push_back(std::make_shared<Task>(
              "task." + std::to_string(tasks.size()), std::move(td)));
          shaped.enqueue(tasks.back());
          linear.enqueue(tasks.back());
        } else if (kind == 5 && !tasks.empty()) {
          const auto& t =
              tasks[rng.below(static_cast<std::uint32_t>(tasks.size()))];
          ASSERT_EQ(shaped.remove(t), linear.remove(t));
        } else if (kind < 8 && !held_a.empty()) {
          const std::size_t i =
              rng.below(static_cast<std::uint32_t>(held_a.size()));
          pool_a.release(held_a[i]);
          pool_b.release(held_b[i]);
          held_a.erase(held_a.begin() + static_cast<std::ptrdiff_t>(i));
          held_b.erase(held_b.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (kind >= 8) {
          ASSERT_EQ(shaped.try_schedule(), linear.try_schedule());
          ASSERT_EQ(placed_a, placed_b);
          ASSERT_EQ(shaped.queue_length(), linear.queue_length());
        }
      }
      std::vector<std::string> drained_a;
      std::vector<std::string> drained_b;
      for (const auto& t : shaped.drain()) drained_a.push_back(t->uid());
      for (const auto& t : linear.drain()) drained_b.push_back(t->uid());
      EXPECT_EQ(drained_a, drained_b);
      EXPECT_EQ(shaped.queue_length(), 0u);
    }
  }
}

TEST(Scheduler, BlockedPassCostsOneAttemptPerShape) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  std::vector<hpc::Allocation> fill;
  while (auto a = f.pool.allocate({.cores = 2})) fill.push_back(std::move(*a));
  ASSERT_EQ(f.pool.free_cores(), 0u);
  for (int i = 0; i < 10000; ++i)
    s.enqueue(i % 2 == 0 ? Fixture::task("c" + std::to_string(i), 2)
                         : Fixture::task("g" + std::to_string(i), 1, 1));
  const std::uint64_t before = s.allocate_attempts();
  EXPECT_EQ(s.try_schedule(), 0u);
  // The linear scan made 10,000 attempts here, one per waiting task.
  EXPECT_EQ(s.allocate_attempts() - before, 2u);

  f.pool.release(fill.back());
  const std::uint64_t after_block = s.allocate_attempts();
  const std::size_t placed = s.try_schedule();
  EXPECT_GE(placed, 1u);
  EXPECT_LE(s.allocate_attempts() - after_block, placed + 2);
  EXPECT_EQ(s.queue_length(), 10000u - placed);
}

class SchedulerPolicySweep : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(SchedulerPolicySweep, EventuallyDrainsQueue) {
  Fixture f;
  auto s = f.make(GetParam());
  for (int i = 0; i < 20; ++i)
    s.enqueue(Fixture::task("t" + std::to_string(i), 7, i % 2));
  // Repeatedly schedule and free everything placed, as completions would.
  int rounds = 0;
  while (s.queue_length() > 0 && rounds < 100) {
    (void)s.try_schedule();
    for (auto& [t, a] : f.placed) f.pool.release(a);
    f.placed.clear();
    ++rounds;
  }
  EXPECT_EQ(s.queue_length(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerPolicySweep,
                         ::testing::Values(SchedulerPolicy::kFifo,
                                           SchedulerPolicy::kBackfill));

}  // namespace
}  // namespace impress::rp
