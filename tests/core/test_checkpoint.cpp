// Checkpoint document round-trips: the serialized form must reproduce
// every bit the resume path consumes — rng stream positions, span ids,
// clock values — across parse(dump(x)).

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/dpo_generator.hpp"
#include "protein/datasets.hpp"
#include "protein/pdb.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("CKPT-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("CKPT-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

class CheckpointDoc : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs tests as parallel processes,
    // and object addresses repeat across them (TSan fixes the layout).
    dir_ = fs::temp_directory_path() /
           ("impress_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path() const { return (dir_ / "checkpoint.json").string(); }
  fs::path dir_;
};

// Cut a real checkpoint by running a campaign with a tight cadence; the
// last document written is a full mid-flight snapshot with live rng
// streams and observability state.
CampaignCheckpoint real_checkpoint(const std::string& dir,
                                   bool observability = false) {
  auto cfg = im_rp_campaign(42);
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_completions = 3;
  cfg.session.enable_tracing = observability;
  cfg.session.enable_metrics = observability;
  const auto targets = targets2();
  (void)Campaign(cfg).run(targets);
  return load_checkpoint(dir + "/checkpoint.json");
}

TEST_F(CheckpointDoc, RealCheckpointRoundTripsBitExactly) {
  const auto checkpoint = real_checkpoint(dir_.string());
  EXPECT_GT(checkpoint.ordinal, 0u);
  EXPECT_GT(checkpoint.now, 0.0);
  EXPECT_FALSE(checkpoint.coordinator.pipelines.empty());
  ASSERT_EQ(checkpoint.pilots.size(), 1u);

  // json -> struct -> json must be the identity on the document.
  const auto doc = to_json(checkpoint);
  const auto back = to_json(campaign_checkpoint_from_json(doc));
  EXPECT_EQ(doc.dump(), back.dump());
}

TEST_F(CheckpointDoc, ObservabilityStateRoundTrips) {
  const auto checkpoint =
      real_checkpoint(dir_.string(), /*observability=*/true);
  EXPECT_FALSE(checkpoint.trace.empty());
  EXPECT_NE(checkpoint.campaign_span, 0u);
  EXPECT_FALSE(checkpoint.metrics.empty());
  // The document records its own write marker (span + counter recorded
  // before the harvest), so a resumed tracer continues identically.
  EXPECT_GE(checkpoint.metrics.counter("impress_checkpoints_written"), 1u);

  const auto doc = to_json(checkpoint);
  const auto back = to_json(campaign_checkpoint_from_json(doc));
  EXPECT_EQ(doc.dump(), back.dump());
}

TEST_F(CheckpointDoc, SaveLoadPreservesDocument) {
  const auto checkpoint = real_checkpoint(dir_.string());
  const auto p = (dir_ / "copy.json").string();
  save_checkpoint(checkpoint, p);
  const auto loaded = load_checkpoint(p);
  EXPECT_EQ(to_json(checkpoint).dump(), to_json(loaded).dump());
}

TEST_F(CheckpointDoc, StreamedTextIsTheTreeDumpWithEveryOptionalMember) {
  // A real DPO-driven, traced and metered cut, then every optional member
  // forced present and strings that need escaping.
  auto cfg = im_rp_campaign(42);
  cfg.generator = std::make_shared<DpoGenerator>();
  cfg.checkpoint.directory = dir_.string();
  cfg.checkpoint.every_n_completions = 3;
  cfg.session.enable_tracing = true;
  cfg.session.enable_metrics = true;
  (void)Campaign(cfg).run(targets2());
  auto doc = load_checkpoint(path());
  ASSERT_TRUE(doc.generator_state.is_object());
  ASSERT_FALSE(doc.trace.empty());
  ASSERT_GE(doc.coordinator.pipelines.size(), 2u);

  const std::string odd = "say \"hi\"\\ \n\t\x01\x1f \xc3\xa9";
  doc.campaign_name += odd;
  auto& pipelines = doc.coordinator.pipelines;
  pipelines[0].last_metrics =
      fold::FoldMetrics{.plddt = 81.5, .ptm = 0.75, .ipae = 9.125};
  pipelines[1].last_metrics.reset();
  doc.coordinator.parked.push_back(CoordinatorCheckpoint::ParkedAction{
      .pipeline_id = pipelines[0].id,
      .kind = 1,
      .fold_input = pipelines[0].current,
      .reuse_features = true,
      .refined = false});
  doc.trace.front().attrs.emplace_back("note", odd);
  doc.profiler_events.push_back(
      obs::Mark{.time = 1.5, .entity = odd, .event = "e", .info = odd});
  doc.uid_counters[odd] = 7;
  doc.metrics.histograms.push_back(obs::HistogramSample{
      .name = "h", .bounds = {0.5, 1.0}, .buckets = {1, 2, 3}, .count = 6,
      .sum = 4.25});

  const std::string text = checkpoint_text(doc);
  EXPECT_EQ(text, to_json(doc).dump());
  for (const char* member : {"fold_input", "last_metrics", "attrs", "bounds",
                             "generator_state", "policy"})
    EXPECT_NE(text.find(std::string("\"") + member + "\":"), std::string::npos)
        << member;
  const auto parsed = campaign_checkpoint_from_json(common::Json::parse(text));
  EXPECT_EQ(checkpoint_text(parsed), text);
  save_checkpoint(doc, path());
  EXPECT_EQ(checkpoint_text(load_checkpoint(path())), text);
}

TEST_F(CheckpointDoc, LoaderRejectsWrongKindAndVersion) {
  common::Json::Object o;
  o["schema_version"] = 2;
  o["kind"] = std::string("impress.session_dump");
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  o["kind"] = std::string("impress.checkpoint");
  o["schema_version"] = 1;
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  // Version 2 stored every fold-memo prediction; v3 stores keys only.
  o["schema_version"] = 2;
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  // Version 3 printed every idealized trace; v4 names it by its origin.
  o["schema_version"] = 3;
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  // Version 4 carried the fold memo's keys; v5 has no memo section.
  o["schema_version"] = 4;
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(3.0)),
               std::invalid_argument);
}

// Bit-level equality of two chains' coordinates.
void expect_same_trace(const protein::Chain& a, const protein::Chain& b) {
  using Bits = std::array<std::uint64_t, 3>;
  ASSERT_EQ(a.ca.size(), b.ca.size());
  for (std::size_t i = 0; i < a.ca.size(); ++i)
    ASSERT_EQ(std::bit_cast<Bits>(a.ca[i]), std::bit_cast<Bits>(b.ca[i]));
}

TEST_F(CheckpointDoc, IdealTracesTravelAsOriginsOtherTracesAsCoordinates) {
  // A real cut (its pipelines' complexes are idealized) plus a parked fold
  // input read from PDB text, whose coordinates are explicit.
  auto doc = real_checkpoint(dir_.string());
  ASSERT_FALSE(doc.coordinator.pipelines.empty());
  const auto& pipeline = doc.coordinator.pipelines.front();
  const protein::Complex idealized = pipeline.current;
  const protein::Complex from_pdb{protein::from_pdb(
      protein::to_pdb(idealized.structure), idealized.structure.name())};
  doc.coordinator.parked.push_back(CoordinatorCheckpoint::ParkedAction{
      .pipeline_id = pipeline.id,
      .kind = 1,
      .fold_input = from_pdb,
      .reuse_features = false,
      .refined = false});

  save_checkpoint(doc, path());
  const auto loaded = load_checkpoint(path());
  const auto& current = loaded.coordinator.pipelines.front().current;
  const auto& parked = *loaded.coordinator.parked.back().fold_input;
  for (const char id : {'A', 'B'}) {
    SCOPED_TRACE(id);
    expect_same_trace(current.structure.chain(id),
                      idealized.structure.chain(id));
    expect_same_trace(parked.structure.chain(id), from_pdb.structure.chain(id));
    // The idealized chain comes back on ideal_trace's shared storage; the
    // PDB chain stays an explicit trace.
    const auto& ca = current.structure.chain(id).ca;
    ASSERT_TRUE(ca.ideal_origin().has_value());
    EXPECT_EQ(ca.span().data(),
              protein::ideal_trace(ca.size(), *ca.ideal_origin()).span().data());
    EXPECT_FALSE(parked.structure.chain(id).ca.ideal_origin().has_value());
  }

  const auto tree = to_json(loaded);
  EXPECT_EQ(tree.dump(), checkpoint_text(doc));
  const auto& ideal_chain = tree.at("coordinator")
                                .at("pipelines").at(0)
                                .at("current").at("chains").at(0);
  EXPECT_TRUE(ideal_chain.contains("ca_origin"));
  EXPECT_FALSE(ideal_chain.contains("ca"));
  const auto& parked_json = tree.at("coordinator").at("parked");
  const auto& pdb_chain = parked_json.at(parked_json.size() - 1)
                              .at("fold_input").at("chains").at(0);
  EXPECT_TRUE(pdb_chain.contains("ca"));
  EXPECT_FALSE(pdb_chain.contains("ca_origin"));
}

TEST_F(CheckpointDoc, LoaderRejectsMalformedTraces) {
  const auto good = to_json(real_checkpoint(dir_.string()));
  // Edit the first chain of the first pipeline's current complex.
  auto rejects = [&good](auto&& edit) {
    common::Json doc = good;
    auto& chain = doc.as_object()["coordinator"]
                      .as_object()["pipelines"].as_array().at(0)
                      .as_object()["current"]
                      .as_object()["chains"].as_array().at(0)
                      .as_object();
    ASSERT_TRUE(chain.contains("ca_origin"));
    edit(chain);
    EXPECT_THROW((void)campaign_checkpoint_from_json(doc),
                 std::invalid_argument);
  };
  using Array = common::Json::Array;
  rejects([](auto& chain) { chain["ca"] = Array{}; });  // both keys
  rejects([](auto& chain) { chain.erase("ca_origin"); });  // neither
  // ca_origin that is not three numbers.
  rejects([](auto& chain) { chain["ca_origin"] = Array{0.0, 0.0}; });
  rejects([](auto& chain) { chain["ca_origin"] = Array(4, 0.0); });
  rejects([](auto& chain) { chain["ca_origin"] = Array{0.0, 0.0, "0"}; });
  rejects([](auto& chain) { chain["ca_origin"] = 0.0; });
  EXPECT_NO_THROW((void)campaign_checkpoint_from_json(good));
}

TEST_F(CheckpointDoc, LoaderRejectsMissingOrMistypedMembers) {
  // Json's accessors throw out_of_range (missing) and bad_variant_access
  // (mistyped); the loader reports both as invalid_argument.
  const auto good = to_json(real_checkpoint(dir_.string()));
  auto rejects = [&good](auto&& edit) {
    common::Json doc = good;
    edit(doc.as_object());
    EXPECT_THROW((void)campaign_checkpoint_from_json(doc),
                 std::invalid_argument);
  };
  for (const char* member : {"seed", "pilots", "coordinator"}) {
    SCOPED_TRACE(member);
    rejects([member](auto& o) { ASSERT_EQ(o.erase(member), 1u); });
  }
  rejects([](auto& o) { o["now"] = std::string("later"); });
  EXPECT_NO_THROW((void)campaign_checkpoint_from_json(good));
}

// --- CheckpointWriter: each cut formatted from the previous one ---

// Every cut of one execution, and the bytes a writer following them copied.
struct Cuts {
  std::vector<std::string> texts;
  std::size_t copied = 0;
};

// Run `cfg` (checkpointing into `dir`, resuming from `resume_from` when set)
// and, at every cut, check the file the campaign wrote against a
// from-scratch format; a writer of our own follows the same cuts.
Cuts check_every_cut(CampaignConfig cfg,
                     const std::vector<protein::DesignTarget>& targets,
                     const fs::path& dir,
                     const CampaignCheckpoint* resume_from) {
  cfg.checkpoint.directory = dir.string();
  Cuts cuts;
  CheckpointWriter mine;
  cfg.checkpoint.sink = [&, path = cfg.checkpoint.path()](
                            const CampaignCheckpoint& doc) {
    std::string text = checkpoint_text(doc);
    std::ifstream is(path, std::ios::binary);
    const std::string file{std::istreambuf_iterator<char>(is), {}};
    EXPECT_EQ(file, text + '\n') << "cut " << doc.ordinal;
    EXPECT_EQ(mine.format(doc), text) << "cut " << doc.ordinal;
    cuts.copied += mine.copied_bytes();
    cuts.texts.push_back(std::move(text));
  };
  Campaign campaign(cfg);
  (void)(resume_from != nullptr ? campaign.resume(targets, *resume_from)
                                : campaign.run(targets));
  return cuts;
}

TEST_F(CheckpointDoc, EveryCutOnDiskIsTheFromScratchTextAlsoAfterResume) {
  const auto targets = protein::pdz_benchmark(8);
  for (auto cfg : {im_rp_campaign(5), cont_v_campaign(5)}) {
    SCOPED_TRACE(cfg.name);
    cfg.session.enable_tracing = true;
    cfg.session.enable_metrics = true;
    cfg.checkpoint.every_n_completions = 10;
    const Cuts run = check_every_cut(cfg, targets, dir_, nullptr);
    ASSERT_GE(run.texts.size(), 3u);
    // Later cuts copy the history the earlier ones wrote.
    EXPECT_GT(run.copied, 0u);

    const auto middle = campaign_checkpoint_from_json(
        common::Json::parse(run.texts[(run.texts.size() + 1) / 2 - 1]));
    const Cuts resumed = check_every_cut(cfg, targets, dir_, &middle);
    ASSERT_GE(resumed.texts.size(), 2u);
    EXPECT_GT(resumed.copied, 0u);
    // The resumed run cuts what the uninterrupted run cut after the middle.
    EXPECT_EQ(resumed.texts.back(), run.texts.back());
  }
}

// A cut of `tracer`'s log on top of `base`.
CampaignCheckpoint cut_of(const CampaignCheckpoint& base,
                          const obs::Tracer& tracer) {
  CampaignCheckpoint doc = base;
  doc.profiler_events = tracer.marks();
  doc.trace = tracer.spans();
  doc.trace_next_seq = tracer.next_seq();
  return doc;
}

// Format `doc` with `writer` and from scratch; both must agree.
void expect_from_scratch(CheckpointWriter& writer,
                         const CampaignCheckpoint& doc) {
  EXPECT_EQ(writer.format(doc), checkpoint_text(doc));
}

TEST_F(CheckpointDoc, WriterRewritesASpanClosedAfterThePreviousCut) {
  const auto base = real_checkpoint(dir_.string());
  obs::Tracer tracer(true);
  const obs::SpanId root = tracer.begin(0.0, "root", "campaign");
  const obs::SpanId done = tracer.begin(1.0, "done", "task", root);
  tracer.end(done, 2.0);
  const obs::SpanId open = tracer.begin(3.0, "open", "task", root);
  tracer.mark(3.0, "task.1", "exec_start");
  CheckpointWriter writer;
  expect_from_scratch(writer, cut_of(base, tracer));
  EXPECT_EQ(writer.copied_bytes(), 0u);

  tracer.end(open, 4.0);
  (void)tracer.begin(5.0, "new", "task", root);
  tracer.mark(4.0, "task.1", "exec_stop");
  auto doc = cut_of(base, tracer);
  doc.pilots.front().intervals.push_back(hpc::UsageInterval{
      .start = 3.0, .end = 4.0, .cores = 2, .task_uid = "task.1"});
  expect_from_scratch(writer, doc);
  EXPECT_GT(writer.copied_bytes(), 0u);
}

TEST_F(CheckpointDoc, WriterRewritesAClosedSpanThatGainsAnAttribute) {
  const auto base = real_checkpoint(dir_.string());
  obs::Tracer tracer(true);
  const obs::SpanId root = tracer.begin(0.0, "root", "campaign");
  const obs::SpanId done = tracer.begin(1.0, "done", "task", root);
  tracer.end(done, 2.0);
  (void)tracer.instant(2.5, "after", "decision", root);
  CheckpointWriter writer;
  expect_from_scratch(writer, cut_of(base, tracer));

  tracer.attr(done, "outcome", "DONE");
  expect_from_scratch(writer, cut_of(base, tracer));
  EXPECT_GT(writer.copied_bytes(), 0u);
  tracer.attr(root, "seed", "5");
  expect_from_scratch(writer, cut_of(base, tracer));
  EXPECT_GT(writer.copied_bytes(), 0u);
}

TEST_F(CheckpointDoc, WriterRewritesAPreloadedSpanClosedAfterResume) {
  // The campaign span stays open in every cut and closes only after the
  // resume.
  const auto base = real_checkpoint(dir_.string(), /*observability=*/true);
  ASSERT_NE(base.campaign_span, 0u);
  obs::Tracer tracer(true);
  tracer.preload(base.profiler_events, base.trace, base.trace_next_seq);
  CheckpointWriter writer;
  expect_from_scratch(writer, cut_of(base, tracer));
  tracer.end(base.campaign_span, base.now + 1.0);
  expect_from_scratch(writer, cut_of(base, tracer));
  EXPECT_GT(writer.copied_bytes(), 0u);
}

TEST_F(CheckpointDoc, WriterFormatsACutThatDoesNotExtendThePreviousOne) {
  const auto base = real_checkpoint(dir_.string(), /*observability=*/true);
  ASSERT_GE(base.profiler_events.size(), 2u);
  ASSERT_FALSE(base.pilots.front().intervals.empty());
  const auto extends_after = [&](auto&& edit) {
    CheckpointWriter writer;
    expect_from_scratch(writer, base);
    CampaignCheckpoint doc = base;
    edit(doc);
    expect_from_scratch(writer, doc);
    EXPECT_EQ(writer.copied_bytes(), 0u);
    // The writer goes on from the cut it formatted last.
    doc.profiler_events.push_back(doc.profiler_events.back());
    expect_from_scratch(writer, doc);
    EXPECT_GT(writer.copied_bytes(), 0u);
  };
  extends_after([](auto& doc) { doc.profiler_events.pop_back(); });
  extends_after([](auto& doc) { doc.profiler_events.back().info += "x"; });
  extends_after([](auto& doc) { doc.pilots.front().uid += "x"; });
  extends_after([](auto& doc) { doc.pilots.front().intervals.pop_back(); });
  extends_after([](auto& doc) {
    doc.pilots.front().intervals.back().end += 1.0;
  });
  extends_after([](auto& doc) { doc.pilots.push_back(doc.pilots.front()); });
}

}  // namespace
}  // namespace impress::core
