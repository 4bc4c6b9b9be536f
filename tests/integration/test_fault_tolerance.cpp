// Fault-tolerance acceptance (docs/fault_tolerance.md): a seeded campaign
// with injected failures — 10% task failure rate, plus a pilot outage at
// session level — runs to completion deterministically, with per-task
// attempt counts and retry/timeout/failure totals surfaced in its report.

#include <gtest/gtest.h>

#include <tuple>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "hpc/analytics.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("FT-A", 84, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("FT-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

CampaignConfig faulty_campaign(std::uint64_t seed) {
  auto cfg = im_rp_campaign(seed);
  cfg.protocol.spawn_subpipelines = false;
  cfg.session.faults.task_failure_rate = 0.10;
  cfg.coordinator.task_retry = rp::RetryPolicy{.max_attempts = 3,
                                               .backoff_initial_s = 30.0,
                                               .backoff_multiplier = 2.0,
                                               .backoff_jitter = 0.25,
                                               .attempt_timeout_s = 0.0};
  return cfg;
}

TEST(FaultTolerance, FaultyCampaignRunsToCompletion) {
  const auto r = Campaign(faulty_campaign(42)).run(targets2());
  // 10% failures over a whole campaign: the retry policy must have fired,
  // and with 3 attempts per task almost everything recovers.
  EXPECT_GT(r.task_retries, 0u);
  EXPECT_GT(r.total_trajectories(), 0u);
  // Per-task attempt counts reached the report.
  EXPECT_FALSE(r.attempts.empty());
  std::size_t multi_attempt = 0;
  for (const auto& [uid, attempts] : r.attempts) {
    EXPECT_GE(attempts, 1);
    if (attempts > 1) ++multi_attempt;
  }
  EXPECT_GT(multi_attempt, 0u);
  // The retry totals and the attempt distribution agree: every retry is
  // one extra submit of some task.
  std::size_t extra_submits = 0;
  for (const auto& [uid, attempts] : r.attempts)
    extra_submits += static_cast<std::size_t>(attempts - 1);
  EXPECT_EQ(extra_submits, r.task_retries);
}

TEST(FaultTolerance, FaultyCampaignIsDeterministic) {
  auto fingerprint = [](const CampaignResult& r) {
    return std::tuple{r.task_retries,      r.task_timeouts,
                      r.task_requeues,     r.pilot_failures,
                      r.failed_tasks,      r.attempts,
                      r.total_trajectories(), r.makespan_h};
  };
  const auto a = Campaign(faulty_campaign(1234)).run(targets2());
  const auto b = Campaign(faulty_campaign(1234)).run(targets2());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // And a different seed draws a different fault pattern.
  const auto c = Campaign(faulty_campaign(99)).run(targets2());
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(FaultTolerance, ReportRendersFaultSummary) {
  const auto r = Campaign(faulty_campaign(42)).run(targets2());
  const auto summary = render_fault_summary(r);
  EXPECT_NE(summary.find("retries="), std::string::npos);
  EXPECT_NE(summary.find("timeouts="), std::string::npos);
  EXPECT_NE(summary.find("attempts:"), std::string::npos);
  EXPECT_NE(summary.find("tasks retried:"), std::string::npos);
  // Retried tasks are distinguishable in the Gantt (legend + markers).
  EXPECT_NE(r.gantt.find("'!'=retry"), std::string::npos);
}

TEST(FaultTolerance, FaultSummaryTextIsPinned) {
  // The whole fault summary of a faulty and of a fault-free campaign.
  EXPECT_EQ(render_fault_summary(Campaign(faulty_campaign(42)).run(targets2())),
            "## fault tolerance (IM-RP)\n"
            "retries=2  timeouts=0  requeues=0  pilot_failures=0  "
            "terminal_failures=0\n"
            "attempts:  x1=20  x3=1\n"
            "tasks retried: 1/21 (4.8%)\n");
  auto clean = im_rp_campaign(42);
  clean.protocol.spawn_subpipelines = false;
  EXPECT_EQ(render_fault_summary(Campaign(clean).run(targets2())),
            "## fault tolerance (IM-RP)\n"
            "retries=0  timeouts=0  requeues=0  pilot_failures=0  "
            "terminal_failures=0\n"
            "attempts:  x1=21\n"
            "tasks retried: 0/21 (0.0%)\n");
}

TEST(FaultTolerance, PilotOutageMidCampaignRecoversOnSurvivor) {
  // Session-level two-pilot run: pilot 0 dies mid-flight, the survivor
  // absorbs the evicted and drained work. Campaigns stay single-pilot, so
  // the outage path is exercised against the raw runtime here.
  rp::SessionConfig cfg;
  cfg.seed = 7;
  cfg.faults.pilot_outages.push_back(
      rp::PilotOutage{.pilot_index = 0, .at_s = 200.0});
  rp::Session session{cfg};
  rp::PilotDescription pd;
  pd.nodes = {
      hpc::NodeSpec{.name = "n", .cores = 8, .gpus = 0, .mem_gb = 64.0}};
  auto doomed = session.submit_pilot(pd);
  session.submit_pilot(pd);
  std::vector<rp::TaskPtr> tasks;
  for (int i = 0; i < 12; ++i) {
    auto td = rp::make_simple_task("t" + std::to_string(i), 2, 0, 300.0);
    td.retry = rp::RetryPolicy{.max_attempts = 3, .backoff_initial_s = 10.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  EXPECT_EQ(doomed->state(), rp::PilotState::kFailed);
  for (const auto& t : tasks) EXPECT_EQ(t->state(), rp::TaskState::kDone);
  const auto retry = hpc::summarize_retries(
      hpc::tabulate(session.observability().tracer().marks()));
  EXPECT_EQ(retry.pilot_failures, 1u);
  EXPECT_GT(retry.retries + retry.requeues, 0u);
  EXPECT_GT(retry.tasks_retried, 0u);
}

TEST(FaultTolerance, CleanCampaignUnchangedByFaultMachinery) {
  // With no faults configured and the default single-attempt policy, the
  // counters stay zero and nothing retries — the substrate is pay-as-you-go.
  auto cfg = im_rp_campaign(42);
  cfg.protocol.spawn_subpipelines = false;
  const auto r = Campaign(cfg).run(targets2());
  EXPECT_EQ(r.task_retries, 0u);
  EXPECT_EQ(r.task_timeouts, 0u);
  EXPECT_EQ(r.task_requeues, 0u);
  EXPECT_EQ(r.pilot_failures, 0u);
  EXPECT_TRUE(r.attempts.empty()) << "only retried tasks are listed";
}

}  // namespace
}  // namespace impress::core
