#include "core/session_dump.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "protein/datasets.hpp"

namespace impress::core {
namespace {

CampaignResult real_result() {
  std::vector<protein::DesignTarget> targets;
  targets.push_back(
      protein::make_target("DUMP-A", 84, protein::alpha_synuclein().tail(10)));
  targets.push_back(
      protein::make_target("DUMP-B", 88, protein::alpha_synuclein().tail(10)));
  return Campaign(im_rp_campaign(42)).run(targets);
}

void expect_equal(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_DOUBLE_EQ(a.makespan_h, b.makespan_h);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.root_pipelines, b.root_pipelines);
  EXPECT_EQ(a.subpipelines, b.subpipelines);
  EXPECT_EQ(a.generator_tasks, b.generator_tasks);
  EXPECT_EQ(a.fold_tasks, b.fold_tasks);
  EXPECT_EQ(a.fold_retries, b.fold_retries);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_DOUBLE_EQ(a.utilization.cpu_active, b.utilization.cpu_active);
  EXPECT_DOUBLE_EQ(a.utilization.gpu_allocated, b.utilization.gpu_allocated);
  EXPECT_EQ(a.phase_hours, b.phase_hours);
  EXPECT_EQ(a.cpu_series, b.cpu_series);
  EXPECT_EQ(a.gpu_series, b.gpu_series);
  EXPECT_EQ(a.gantt, b.gantt);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& ta = a.trajectories[i];
    const auto& tb = b.trajectories[i];
    EXPECT_EQ(ta.pipeline_id, tb.pipeline_id);
    EXPECT_EQ(ta.target_name, tb.target_name);
    EXPECT_EQ(ta.is_subpipeline, tb.is_subpipeline);
    EXPECT_EQ(ta.terminated_early, tb.terminated_early);
    EXPECT_EQ(ta.total_retries, tb.total_retries);
    ASSERT_EQ(ta.history.size(), tb.history.size());
    for (std::size_t k = 0; k < ta.history.size(); ++k) {
      EXPECT_EQ(ta.history[k].cycle, tb.history[k].cycle);
      EXPECT_DOUBLE_EQ(ta.history[k].metrics.ptm, tb.history[k].metrics.ptm);
      EXPECT_DOUBLE_EQ(ta.history[k].true_fitness, tb.history[k].true_fitness);
      EXPECT_EQ(ta.history[k].sequence, tb.history[k].sequence);
      EXPECT_EQ(ta.history[k].accepted, tb.history[k].accepted);
    }
  }
}

TEST(SessionDump, JsonRoundTripIsLossless) {
  const auto original = real_result();
  const auto doc = to_json(original);
  // Through text, as a real dump would go.
  const auto restored =
      campaign_result_from_json(common::Json::parse(doc.dump(2)));
  expect_equal(original, restored);
}

TEST(SessionDump, FileRoundTrip) {
  const auto original = real_result();
  const auto dir =
      std::filesystem::temp_directory_path() / "impress_session_dump";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "campaign.json").string();
  save_session_dump(original, path);
  const auto restored = load_session_dump(path);
  expect_equal(original, restored);
  std::filesystem::remove_all(dir);
}

TEST(SessionDump, AnalysisWorksOnRestoredResults) {
  // The whole report layer must run on a loaded dump (the use case:
  // re-render figures without re-simulating).
  const auto original = real_result();
  const auto restored =
      campaign_result_from_json(common::Json::parse(to_json(original).dump()));
  EXPECT_EQ(restored.total_trajectories(), original.total_trajectories());
}

TEST(SessionDump, LockdepSectionRoundTripsAndOmitsWhenEmpty) {
  auto result = real_result();
  // No violations (the overwhelmingly common case): the key must be
  // absent so dumps stay byte-identical to pre-lockdep schema v1 output.
  ASSERT_TRUE(result.lockdep.empty());
  EXPECT_FALSE(to_json(result).contains("lockdep"));
  // With violations recorded, the lines survive a text round trip.
  result.lockdep = {"lock-order cycle: A -> B -> A",
                    "blocking call X while holding Y"};
  const auto restored =
      campaign_result_from_json(common::Json::parse(to_json(result).dump(2)));
  EXPECT_EQ(restored.lockdep, result.lockdep);
}

TEST(SessionDump, RejectsWrongDocuments) {
  EXPECT_THROW((void)campaign_result_from_json(common::Json::parse("[]")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)campaign_result_from_json(common::Json::parse("{\"x\":1}")),
      std::invalid_argument);
  EXPECT_THROW((void)campaign_result_from_json(
                   common::Json::parse("{\"schema_version\":99}")),
               std::invalid_argument);

  // A real dump with a member erased (out_of_range from Json::at) or
  // mistyped (bad_variant_access from the accessors) is rejected as
  // invalid_argument too.
  const auto good = to_json(real_result());
  auto rejects = [&good](auto&& edit) {
    common::Json doc = good;
    edit(doc.as_object());
    EXPECT_THROW((void)campaign_result_from_json(doc), std::invalid_argument);
  };
  for (const char* member : {"targets", "utilization", "trajectories"}) {
    SCOPED_TRACE(member);
    rejects([member](auto& o) { ASSERT_EQ(o.erase(member), 1u); });
  }
  rejects([](auto& o) { o["makespan_h"] = std::string("late"); });
  EXPECT_NO_THROW((void)campaign_result_from_json(good));
}

TEST(SessionDump, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_session_dump("/nonexistent/impress-dump.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace impress::core
