#include "hpc/profiler.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace impress::hpc {
namespace {

TEST(Profiler, RecordsInOrder) {
  Profiler p;
  p.record(1.0, "task.0", events::kSubmit);
  p.record(2.0, "task.0", events::kSchedule);
  const auto evs = p.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].event, events::kSubmit);
  EXPECT_EQ(evs[1].event, events::kSchedule);
  EXPECT_EQ(p.size(), 2u);
}

TEST(Profiler, EventsForFiltersByEntity) {
  Profiler p;
  p.record(1.0, "a", "x");
  p.record(2.0, "b", "y");
  p.record(3.0, "a", "z");
  const auto evs = p.events_for("a");
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].event, "x");
  EXPECT_EQ(evs[1].event, "z");
}

TEST(Profiler, TimeOfFirstOccurrence) {
  Profiler p;
  p.record(5.0, "a", "x");
  p.record(9.0, "a", "x");
  EXPECT_EQ(p.time_of("a", "x"), 5.0);
  EXPECT_FALSE(p.time_of("a", "missing").has_value());
  EXPECT_FALSE(p.time_of("missing", "x").has_value());
}

TEST(Profiler, PhaseDurationsSingleTask) {
  Profiler p;
  p.record(0.0, "pilot.0", events::kBootstrapStart);
  p.record(3.0, "pilot.0", events::kBootstrapStop);
  p.record(10.0, "task.0", events::kExecSetupStart);
  p.record(12.0, "task.0", events::kExecStart);
  p.record(20.0, "task.0", events::kExecStop);
  const auto d = phase_durations(p.events());
  EXPECT_DOUBLE_EQ(d.at("bootstrap"), 3.0);
  EXPECT_DOUBLE_EQ(d.at("exec_setup"), 2.0);
  EXPECT_DOUBLE_EQ(d.at("running"), 8.0);
}

TEST(Profiler, PhaseDurationsSumAcrossTasks) {
  Profiler p;
  for (int i = 0; i < 3; ++i) {
    const std::string uid = "task." + std::to_string(i);
    p.record(i * 10.0, uid, events::kExecSetupStart);
    p.record(i * 10.0 + 1.0, uid, events::kExecStart);
    p.record(i * 10.0 + 5.0, uid, events::kExecStop);
  }
  const auto d = phase_durations(p.events());
  EXPECT_DOUBLE_EQ(d.at("exec_setup"), 3.0);
  EXPECT_DOUBLE_EQ(d.at("running"), 12.0);
}

TEST(Profiler, UnpairedEventsIgnored) {
  Profiler p;
  p.record(0.0, "task.0", events::kExecStop);  // stop without start
  p.record(5.0, "task.1", events::kExecStart);  // start without stop
  const auto d = phase_durations(p.events());
  EXPECT_DOUBLE_EQ(d.at("running"), 0.0);
}

TEST(Profiler, ClearEmpties) {
  Profiler p;
  p.record(1.0, "a", "x");
  p.clear();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.events().empty());
}

TEST(Profiler, ThreadSafeRecording) {
  Profiler p;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&p, t] {
      for (int i = 0; i < 500; ++i)
        p.record(i, "entity." + std::to_string(t), "event");
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(p.size(), 2000u);
}

}  // namespace
}  // namespace impress::hpc
