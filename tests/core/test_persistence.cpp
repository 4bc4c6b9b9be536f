// Persistence-layer guarantees shared by every artifact writer: atomic
// (crash-consistent) file replacement, RFC-4180 CSV escaping, and schema
// versioning across the v1 session dump / v3 checkpoint split.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/fs.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/session_dump.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs tests as parallel processes,
    // and object addresses repeat across them (TSan fixes the layout).
    dir_ = fs::temp_directory_path() /
           ("impress_persist_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    common::set_atomic_write_test_hook(nullptr);
    fs::remove_all(dir_);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

using Persistence = TempDir;

TEST_F(Persistence, AtomicWriteCreatesAndReplaces) {
  const auto p = path("file.txt");
  common::write_file_atomic(p, "first");
  EXPECT_EQ(slurp(p), "first");
  common::write_file_atomic(p, "second");
  EXPECT_EQ(slurp(p), "second");
  // No temp-file droppings after a clean pair of writes.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(Persistence, CrashDuringWritePreservesPreviousContents) {
  const auto p = path("file.txt");
  common::write_file_atomic(p, "durable");

  // Simulate the process dying after the temp file is written but before
  // the rename publishes it.
  common::set_atomic_write_test_hook(
      [](const std::string&) { throw std::runtime_error("killed"); });
  EXPECT_THROW(common::write_file_atomic(p, "torn"), std::runtime_error);
  EXPECT_EQ(slurp(p), "durable");

  // The next (uninterrupted) write goes through normally.
  common::set_atomic_write_test_hook(nullptr);
  common::write_file_atomic(p, "recovered");
  EXPECT_EQ(slurp(p), "recovered");
}

TEST_F(Persistence, CrashDuringSessionDumpKeepsPriorDumpLoadable) {
  // Regression for the original non-atomic writer: a crash mid-dump used
  // to truncate the archive. Now the previous dump must survive verbatim.
  CampaignResult first;
  first.name = "persist-test";
  first.targets = 1;
  TrajectoryResult t;
  t.pipeline_id = "P1";
  t.target_name = "T1";
  t.history.push_back(IterationRecord{.cycle = 1, .sequence = "ACDEFG"});
  first.trajectories.push_back(t);

  const auto p = path("dump.json");
  save_session_dump(first, p);

  auto second = first;
  second.name = "persist-test-2";
  common::set_atomic_write_test_hook(
      [](const std::string&) { throw std::runtime_error("killed"); });
  EXPECT_THROW(save_session_dump(second, p), std::runtime_error);
  common::set_atomic_write_test_hook(nullptr);

  const auto loaded = load_session_dump(p);
  EXPECT_EQ(loaded.name, "persist-test");
  ASSERT_EQ(loaded.trajectories.size(), 1u);
  EXPECT_EQ(loaded.trajectories[0].history.at(0).sequence, "ACDEFG");
}

TEST(CsvEscape, QuotesHostileFields) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(csv_escape("cr\rlf"), "\"cr\rlf\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, TrajectoriesCsvSurvivesHostileTargetName) {
  CampaignResult result;
  TrajectoryResult t;
  t.pipeline_id = "P,1";
  t.target_name = "PDZ \"domain\", variant\n2";
  t.history.push_back(IterationRecord{.cycle = 1, .sequence = "ACDE"});
  result.trajectories.push_back(t);

  const auto csv = trajectories_csv(result);
  // Exactly one record row (the embedded newline is inside quotes), and
  // the hostile fields appear in their RFC-4180 escaped forms.
  EXPECT_NE(csv.find("\"P,1\""), std::string::npos);
  EXPECT_NE(csv.find("\"PDZ \"\"domain\"\", variant\n2\""), std::string::npos);
  // Header + one logical record; quoted-aware field count on the record.
  const auto header_end = csv.find('\n');
  const std::string record = csv.substr(header_end + 1);
  std::size_t fields = 1;
  bool quoted = false;
  for (char c : record) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++fields;
  }
  EXPECT_EQ(fields, 11u);
}

TEST_F(Persistence, SessionDumpSchemaStaysV1) {
  // Checkpoints are schema v3 under a distinct kind; the finished-run
  // session dump must stay loadable as v1 (forward compatibility for
  // archives written before checkpoints existed).
  CampaignResult result;
  result.name = "v1";
  const auto p = path("dump.json");
  save_session_dump(result, p);
  const auto doc = common::Json::parse(slurp(p));
  EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()), 1);
  EXPECT_EQ(load_session_dump(p).name, "v1");
}

TEST(SessionDump, V1DumpWithInferSectionStillLoads) {
  // Schema-v1 dumps of campaigns that ran the live inference-server
  // accounting carry an "infer" section; the reader ignores it.
  const auto doc = common::Json::parse(R"({
    "schema_version": 1, "name": "IM-RP", "makespan_h": 12.5,
    "targets": 2, "root_pipelines": 2, "subpipelines": 1,
    "generator_tasks": 12, "refine_tasks": 0, "energy_kwh": 1.5,
    "fold_tasks": 15, "fold_retries": 3, "failed_tasks": 0,
    "utilization": {"cpu_active": 0.3, "cpu_allocated": 0.4,
                    "gpu_active": 0.1, "gpu_allocated": 0.2,
                    "span_seconds": 45000},
    "phase_hours": {"running": 11.0}, "cpu_series": [0.3],
    "gpu_series": [0.1], "gantt": "",
    "trajectories": [{"pipeline_id": "P1", "target": "T1",
                      "is_subpipeline": false, "terminated_early": false,
                      "total_retries": 0,
                      "history": [{"cycle": 1, "sequence": "ACDE",
                                   "metrics": {"plddt": 70, "ptm": 0.5,
                                               "ipae": 10},
                                   "true_fitness": 0.4, "accepted": true,
                                   "retries": 0}]}],
    "infer": {"batch_size": 8, "speed_factor": 1, "tuner_decisions": 0,
              "fold": {"requests": 15, "cache_hits": 0, "batches": 14,
                       "max_batch": 2, "batched_gpu_s": 32040,
                       "unbatched_gpu_s": 32400},
              "design": {"requests": 12, "cache_hits": 0, "batches": 8,
                         "max_batch": 2, "batched_gpu_s": 4800,
                         "unbatched_gpu_s": 5040}}
  })");
  const auto r = campaign_result_from_json(doc);
  EXPECT_EQ(r.name, "IM-RP");
  EXPECT_EQ(r.fold_tasks, 15u);
  ASSERT_EQ(r.trajectories.size(), 1u);
  EXPECT_EQ(r.trajectories[0].history.at(0).sequence, "ACDE");
  EXPECT_EQ(to_json(r).as_object().count("infer"), 0u);
}

TEST_F(Persistence, CheckpointLoaderRejectsSessionDumps) {
  CampaignResult result;
  result.name = "v1";
  const auto p = path("dump.json");
  save_session_dump(result, p);
  EXPECT_THROW((void)load_checkpoint(p), std::invalid_argument);
}

}  // namespace
}  // namespace impress::core
