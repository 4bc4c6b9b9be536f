#include "core/report.hpp"

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

IterationRecord record(int cycle, double plddt, double ptm, double ipae) {
  IterationRecord r;
  r.cycle = cycle;
  r.metrics = fold::FoldMetrics{.plddt = plddt, .ptm = ptm, .ipae = ipae};
  r.accepted = true;
  return r;
}

CampaignResult synthetic_result() {
  CampaignResult r;
  r.name = "SYN";
  TrajectoryResult t1;
  t1.pipeline_id = "A";
  t1.target_name = "A";
  t1.history = {record(1, 60, 0.5, 15), record(2, 70, 0.6, 12),
                record(3, 80, 0.7, 9), record(4, 85, 0.8, 7)};
  TrajectoryResult t2;
  t2.pipeline_id = "B";
  t2.target_name = "B";
  t2.history = {record(1, 62, 0.52, 14), record(2, 72, 0.62, 11),
                record(3, 82, 0.72, 8), record(4, 87, 0.82, 6)};
  r.trajectories = {t1, t2};
  r.targets = 2;
  r.root_pipelines = 2;
  return r;
}

TEST(Report, MetricNamesAndDirections) {
  EXPECT_EQ(metric_name(Metric::kPlddt), "pLDDT");
  EXPECT_EQ(metric_name(Metric::kPtm), "pTM");
  EXPECT_EQ(metric_name(Metric::kIpae), "inter-chain pAE");
  EXPECT_TRUE(higher_is_better(Metric::kPlddt));
  EXPECT_TRUE(higher_is_better(Metric::kPtm));
  EXPECT_FALSE(higher_is_better(Metric::kIpae));
}

TEST(Report, MetricValueExtraction) {
  const fold::FoldMetrics m{.plddt = 77.0, .ptm = 0.66, .ipae = 9.5};
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kPlddt), 77.0);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kPtm), 0.66);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kIpae), 9.5);
}

TEST(Report, MetricByCycleShape) {
  const auto r = synthetic_result();
  const auto m = metric_by_cycle(r, Metric::kPlddt, 4);
  ASSERT_EQ(m.size(), 4u);
  for (const auto& cyc : m) EXPECT_EQ(cyc.size(), 2u);  // two targets
  EXPECT_DOUBLE_EQ(m[0][0], 60.0);
  EXPECT_DOUBLE_EQ(m[3][1], 87.0);
}

TEST(Report, MedianAtCycle) {
  const auto r = synthetic_result();
  EXPECT_DOUBLE_EQ(median_at_cycle(r, Metric::kPlddt, 1, 4), 61.0);
  EXPECT_DOUBLE_EQ(median_at_cycle(r, Metric::kPlddt, 4, 4), 86.0);
  EXPECT_DOUBLE_EQ(median_at_cycle(r, Metric::kPlddt, 0, 4), 0.0);  // guard
  EXPECT_DOUBLE_EQ(median_at_cycle(r, Metric::kPlddt, 5, 4), 0.0);
}

TEST(Report, NetDeltaFirstToLast) {
  const auto r = synthetic_result();
  EXPECT_DOUBLE_EQ(net_delta(r, Metric::kPlddt, 4), 25.0);
  EXPECT_NEAR(net_delta(r, Metric::kPtm, 4), 0.30, 1e-12);
  EXPECT_DOUBLE_EQ(net_delta(r, Metric::kIpae, 4), -8.0);
}

TEST(Report, CarryForwardOverPrunedCycles) {
  CampaignResult r;
  TrajectoryResult t;
  t.target_name = "X";
  t.history = {record(1, 60, 0.5, 15), record(2, 70, 0.6, 12)};
  t.terminated_early = true;
  r.trajectories = {t};
  const auto m = metric_by_cycle(r, Metric::kPlddt, 4);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m[2][0], 70.0);  // carried forward
  EXPECT_DOUBLE_EQ(m[3][0], 70.0);
}

TEST(Report, MultipleRecordsPerCellAveraged) {
  CampaignResult r;
  TrajectoryResult root, sub;
  root.target_name = "X";
  root.history = {record(2, 60, 0.5, 15)};
  sub.target_name = "X";
  sub.is_subpipeline = true;
  sub.history = {record(2, 80, 0.7, 9)};
  r.trajectories = {root, sub};
  const auto m = metric_by_cycle(r, Metric::kPlddt, 2);
  ASSERT_EQ(m[1].size(), 1u);
  EXPECT_DOUBLE_EQ(m[1][0], 70.0);
  // Cycle 1 has no record for X at all: nothing to report yet.
  EXPECT_TRUE(m[0].empty());
}

TEST(Report, Table1HasBothArms) {
  const auto r = synthetic_result();
  auto cont = r;
  cont.name = "CONT-V";
  auto im = r;
  im.name = "IM-RP";
  im.subpipelines = 3;
  const auto table = table1(cont, im, 4);
  const auto text = table.render();
  EXPECT_NE(text.find("CONT-V"), std::string::npos);
  EXPECT_NE(text.find("IM-RP"), std::string::npos);
  EXPECT_NE(text.find("N/A"), std::string::npos);  // CONT-V sub-PL column
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, Table1RelativeDeltaReadsPlusAsBetter) {
  // Two-cycle arms whose pAE falls by 3 (baseline) and by 6: the larger
  // drop is the better result for a lower-is-better metric.
  const auto arm = [](const std::string& name, double pae_drop) {
    CampaignResult r;
    r.name = name;
    TrajectoryResult t;
    t.history = {record(1, 60, 0.5, 15), record(2, 70, 0.6, 15 - pae_drop)};
    r.trajectories = {t};
    r.targets = 1;
    r.root_pipelines = 1;
    return r;
  };
  const auto text = table1(arm("CONT-V", 3.0), arm("IM-RP", 6.0), 2).render();
  EXPECT_NE(text.find("-6.0 (+100.0%)"), std::string::npos) << text;
}

TEST(Report, Table1RelativeDeltaCellsAtSeed5) {
  // bench_table1 at its default seed. CONT-V's pAE net delta is -0.0138:
  // dividing by it printed IM-RP's pAE cell as "-6.4 (-46300.4%)".
  const auto targets = protein::four_pdz_domains();
  const auto cont_v = Campaign(cont_v_campaign(5)).run(targets);
  const auto im_rp = Campaign(im_rp_campaign(5)).run(targets);
  const auto text =
      table1(cont_v, im_rp, calibration::kCycles).render();
  EXPECT_NE(text.find(" 0.23 (+241.4%) |"), std::string::npos) << text;
  EXPECT_NE(text.find(" -6.4 (-) |"), std::string::npos) << text;
}

TEST(Report, MetricFigureRendersAllIterations) {
  const auto r = synthetic_result();
  const auto fig =
      render_metric_figure("Fig X", {&r}, Metric::kPtm, 4);
  EXPECT_NE(fig.find("iteration 1"), std::string::npos);
  EXPECT_NE(fig.find("iteration 4"), std::string::npos);
  EXPECT_NE(fig.find("pTM"), std::string::npos);
}

TEST(Report, UtilizationFigureIncludesPhases) {
  auto r = synthetic_result();
  r.makespan_h = 10.0;
  r.cpu_series = std::vector<double>(20, 0.5);
  r.gpu_series = std::vector<double>(20, 0.1);
  r.phase_hours = {{"bootstrap", 0.05}, {"exec_setup", 0.5}, {"running", 9.0}};
  r.utilization.cpu_active = 0.5;
  r.utilization.gpu_active = 0.1;
  const auto fig = render_utilization_figure(r, "Fig Y");
  EXPECT_NE(fig.find("CPU"), std::string::npos);
  EXPECT_NE(fig.find("GPU"), std::string::npos);
  EXPECT_NE(fig.find("bootstrap"), std::string::npos);
  EXPECT_NE(fig.find("exec_setup"), std::string::npos);
  EXPECT_NE(fig.find("running"), std::string::npos);
  EXPECT_NE(fig.find("avg CPU 50.0%"), std::string::npos);
}

}  // namespace
}  // namespace impress::core
