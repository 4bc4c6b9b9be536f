#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace impress::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, EqualTimestampsFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EqualTimestampFifoOrdering) {
  Engine e;
  std::vector<int> fired;
  for (int i = 0; i < 32; ++i)
    e.schedule_at(10.0, [i, &fired] { fired.push_back(i); });
  // Interleave an earlier and a later event around the tie pile-up.
  e.schedule_at(5.0, [&fired] { fired.push_back(-1); });
  e.schedule_at(20.0, [&fired] { fired.push_back(-2); });
  e.run();
  ASSERT_EQ(fired.size(), 34u);
  EXPECT_EQ(fired.front(), -1);
  EXPECT_EQ(fired.back(), -2);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

TEST(Engine, ScheduleAfterAddsDelay) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_at(3.0, [&] { fired_at = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(fired_at, 10.0);
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(7.0, [&] {
    e.schedule_after(-2.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 7.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const auto id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.fired_events(), 0u);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  const auto id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterFireFails) {
  Engine e;
  const auto id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelledEventDoesNotAdvanceClock) {
  Engine e;
  const auto id = e.schedule_at(100.0, [] {});
  e.schedule_at(1.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, NextTimeIsTheTimeStepFiresNext) {
  Engine e;
  EXPECT_EQ(e.next_time(), std::nullopt);
  const EventId head = e.schedule_at(1.0, [] {});
  e.schedule_at(4.0, [] {});
  const EventId first_at_two = e.schedule_at(2.0, [] {});
  const EventId second_at_two = e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.next_time(), 1.0);
  EXPECT_TRUE(e.cancel(head));
  EXPECT_EQ(e.next_time(), 2.0);  // the cancelled head is skipped
  ASSERT_TRUE(e.step());
  EXPECT_FALSE(e.cancel(first_at_two));  // fired
  // Cancelled inside the same-timestamp batch step() is working through.
  EXPECT_TRUE(e.cancel(second_at_two));
  EXPECT_EQ(e.next_time(), 4.0);
  while (const std::optional<SimTime> next = e.next_time()) {
    ASSERT_TRUE(e.step());
    EXPECT_EQ(e.now(), *next);
  }
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.now(), 4.0);
  EXPECT_EQ(e.next_time(), std::nullopt);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(e.fired_events(), 5u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<double> times;
  for (int i = 1; i <= 10; ++i)
    e.schedule_at(i, [&times, &e] { times.push_back(e.now()); });
  const auto fired = e.run_until(5.0);
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending_events(), 5u);
  // Continue to completion.
  e.run();
  EXPECT_EQ(times.size(), 10u);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(42.0);
  EXPECT_EQ(e.now(), 42.0);
}

TEST(Engine, RunUntilInclusiveOfBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 1u);
  // A fresh run resumes.
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsCanScheduleChains) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99.0);
}

TEST(Engine, PendingEventsAccounting) {
  Engine e;
  const auto a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelDuringRunSkipsSameBatchAndFutureEvents) {
  Engine e;
  std::vector<std::string> fired;
  // Three events share t=1.0; the first cancels the third (same batch)
  // and a future event at t=2.0.
  EventId same_batch = 0;
  EventId future = 0;
  e.schedule_at(1.0, [&] {
    fired.push_back("a");
    EXPECT_TRUE(e.cancel(same_batch));
    EXPECT_TRUE(e.cancel(future));
  });
  e.schedule_at(1.0, [&] { fired.push_back("b"); });
  same_batch = e.schedule_at(1.0, [&] { fired.push_back("CANCELLED"); });
  future = e.schedule_at(2.0, [&] { fired.push_back("CANCELLED"); });
  e.schedule_at(3.0, [&] { fired.push_back("c"); });
  e.run();
  EXPECT_EQ(fired, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, StaleHandleNeverCancelsARecycledSlot) {
  Engine e;
  const EventId old_id = e.schedule_at(1.0, [] {});
  ASSERT_TRUE(e.cancel(old_id));
  // The pool slot is recycled for the next event; the stale handle's
  // generation no longer matches, so it must not cancel the newcomer.
  bool fired = false;
  const EventId new_id = e.schedule_at(1.0, [&fired] { fired = true; });
  EXPECT_FALSE(e.cancel(old_id));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(new_id));
}

// Tombstone-leak regression: 1e6 schedule/cancel cycles around one
// long-lived event must not grow the queue.
TEST(Engine, CancelChurnBoundedMemory) {
  Engine e;
  bool fired = false;
  e.schedule_at(1e9, [&fired] { fired = true; });
  std::size_t high_water = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id =
        e.schedule_at(static_cast<double>(i % 1000), [] { FAIL(); });
    ASSERT_TRUE(e.cancel(id));
    high_water = std::max(high_water, e.scheduler_entries());
  }
  EXPECT_EQ(e.pending_events(), 1u);
  // Compaction triggers at entries > 2x live (live == 1 here) once past
  // the 64-entry floor, so the queue never exceeds a small constant.
  EXPECT_LE(high_water, 256u);
  EXPECT_LE(e.scheduler_entries(), 256u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(fired);
}

TEST(Engine, CompactionKeepsEveryLiveEvent) {
  Engine e;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i)
    ids.push_back(e.schedule_at(static_cast<double>(i % 7),
                                [i, &fired] { fired.push_back(i); }));
  // Cancelling the evens leaves tombstones == live entries; one more
  // cancel tips the heap past 2x live and compacts it.
  for (int i = 0; i < 200; i += 2) ASSERT_TRUE(e.cancel(ids[i]));
  ASSERT_TRUE(e.cancel(ids[1]));
  EXPECT_EQ(e.pending_events(), 99u);
  EXPECT_EQ(e.scheduler_entries(), 99u);
  e.run();
  ASSERT_EQ(fired.size(), 99u);
  for (const int i : fired) EXPECT_TRUE(i % 2 == 1 && i != 1) << i;
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end(), [](int a, int b) {
    return a % 7 != b % 7 ? a % 7 < b % 7 : a < b;
  }));
}

TEST(Engine, WarpToRefusesLiveEventsAndBackwardClock) {
  Engine e;
  const EventId pending = e.schedule_at(5.0, [] {});
  EXPECT_FALSE(e.warp_to(100.0));  // live event pending
  EXPECT_EQ(e.now(), 0.0);
  ASSERT_TRUE(e.cancel(pending));
  ASSERT_TRUE(e.warp_to(100.0));
  EXPECT_EQ(e.now(), 100.0);
  EXPECT_FALSE(e.warp_to(50.0));  // backwards
  EXPECT_EQ(e.now(), 100.0);
  EXPECT_TRUE(e.warp_to(100.0));  // warp-in-place is a legal no-op
}

TEST(Engine, WarpToClearsLeftoverTombstones) {
  Engine e;
  for (int i = 0; i < 100; ++i) {
    const EventId id = e.schedule_at(static_cast<double>(i), [] {});
    ASSERT_TRUE(e.cancel(id));
  }
  // Only tombstones remain; the warp must succeed and leave a pristine
  // queue behind.
  ASSERT_TRUE(e.warp_to(1000.0));
  EXPECT_EQ(e.scheduler_entries(), 0u);
  bool fired = false;
  e.schedule_after(1.0, [&fired, &e] {
    fired = true;
    EXPECT_EQ(e.now(), 1001.0);
  });
  e.run();
  EXPECT_TRUE(fired);
}

// Random schedule/cancel/step against a sorted reference model: the
// engine must fire exactly the live events, in (time, insertion) order.
TEST(Engine, RandomScheduleCancelStepMatchesSortedReference) {
  struct Ref {
    double time;
    int tag;
    EventId id;
  };
  std::mt19937_64 rng(0xC0FFEEu);
  Engine e;
  std::vector<Ref> reference;  // live events in insertion order
  int fired_tag = -1;
  int next_tag = 0;
  for (int op = 0; op < 20000; ++op) {
    const auto roll = rng() % 10;
    if (roll < 5 || reference.empty()) {
      // Coarse time grid => plenty of equal-timestamp collisions.
      const double t = e.now() + static_cast<double>(rng() % 64) * 0.25;
      const int tag = next_tag++;
      const EventId id =
          e.schedule_at(t, [tag, &fired_tag] { fired_tag = tag; });
      reference.push_back(Ref{t, tag, id});
    } else if (roll < 7) {
      const std::size_t pick = rng() % reference.size();
      ASSERT_TRUE(e.cancel(reference[pick].id));
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto next = std::min_element(
          reference.begin(), reference.end(),
          [](const Ref& a, const Ref& b) { return a.time < b.time; });
      ASSERT_TRUE(e.step());
      EXPECT_EQ(fired_tag, next->tag);
      EXPECT_EQ(e.now(), next->time);
      reference.erase(next);
    }
    ASSERT_EQ(e.pending_events(), reference.size());
  }
  // Drain: what remains fires exactly in reference order.
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  for (const auto& expected : reference) {
    ASSERT_TRUE(e.step());
    EXPECT_EQ(fired_tag, expected.tag);
  }
  EXPECT_FALSE(e.step());
}

// Property: any interleaving of schedules fires in nondecreasing time.
class EngineOrderSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineOrderSweep, MonotoneClock) {
  Engine e;
  unsigned state = GetParam() * 2654435761u + 12345u;
  std::vector<double> fire_times;
  for (int i = 0; i < 200; ++i) {
    state = state * 1664525u + 1013904223u;
    const double t = static_cast<double>(state % 1000) / 10.0;
    e.schedule_at(t, [&fire_times, &e] { fire_times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(fire_times.size(), 200u);
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(Interleavings, EngineOrderSweep,
                         ::testing::Range(1u, 7u));

}  // namespace
}  // namespace impress::sim
