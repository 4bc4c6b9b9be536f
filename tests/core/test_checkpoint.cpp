// Checkpoint document round-trips: the serialized form must reproduce
// every bit the resume path consumes — rng stream positions, cache keys,
// span ids, clock values — across parse(dump(x)).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/dpo_generator.hpp"
#include "protein/datasets.hpp"

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
// streams, cache contents and observability state.
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
  ASSERT_TRUE(doc.fold_cache.has_value());
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
                             "fold_cache", "generator_state", "policy"})
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
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(3.0)),
               std::invalid_argument);
}

const protein::DesignTarget& snapshot_target() {
  static const auto t = protein::make_target(
      "SNAP", 64, protein::alpha_synuclein().tail(10));
  return t;
}

std::uint64_t cache_key(const fold::AlphaFold& folder, std::uint64_t seed) {
  const auto& t = snapshot_target();
  return fold::FoldCache::key(
      fold::FoldCache::content_key(t.start_complex(), t.landscape,
                                   folder.config()),
      common::Rng(seed));
}

void expect_same_bits(const fold::Prediction& a, const fold::Prediction& b) {
  EXPECT_EQ(a.best_index, b.best_index);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    const auto& ma = a.models[i];
    const auto& mb = b.models[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.metrics.plddt),
              std::bit_cast<std::uint64_t>(mb.metrics.plddt));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.metrics.ptm),
              std::bit_cast<std::uint64_t>(mb.metrics.ptm));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.metrics.ipae),
              std::bit_cast<std::uint64_t>(mb.metrics.ipae));
    EXPECT_EQ(ma.structure.plddt(), mb.structure.plddt());
  }
}

TEST(FoldCacheSnapshot, RoundTripPreservesKeysRecencyAndCounters) {
  // Predictions do not travel in a snapshot, so the cache is filled
  // through predict(): every restored key can then be recomputed.
  const auto& t = snapshot_target();
  const auto cx = t.start_complex();
  const fold::AlphaFold folder;
  const fold::FoldCache::Config config{.capacity = 16, .shards = 2};
  fold::FoldCache cache(config);
  std::vector<fold::Prediction> computed;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed);
    computed.push_back(cache.predict(folder, cx, t.landscape, rng));
  }
  // Hits on 2 and 5 perturb the recency order.
  for (const std::uint64_t seed : {2u, 5u}) {
    common::Rng rng(seed);
    (void)cache.predict(folder, cx, t.landscape, rng);
  }

  const auto snap = cache.snapshot();
  fold::FoldCache restored(config);
  restored.restore(snap);

  // Same keys in the same shards and MRU order; same counters.
  const auto again = restored.snapshot();
  EXPECT_EQ(again.shards, snap.shards);
  EXPECT_EQ(again.hits, snap.hits);
  EXPECT_EQ(again.misses, snap.misses);
  EXPECT_EQ(again.evictions, snap.evictions);
  EXPECT_EQ(again.duplicate_discards, snap.duplicate_discards);
  EXPECT_EQ(restored.stats().entries, cache.stats().entries);

  // lookup() has no prediction to serve for a key-only entry and counts
  // nothing; predict() recomputes it and counts a hit.
  EXPECT_FALSE(restored.lookup(cache_key(folder, 3)).has_value());
  EXPECT_EQ(restored.stats().hits, snap.hits);
  EXPECT_EQ(restored.stats().misses, snap.misses);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed);
    expect_same_bits(restored.predict(folder, cx, t.landscape, rng),
                     computed[seed - 1]);
  }
  EXPECT_EQ(restored.stats().hits, snap.hits + 6);
  EXPECT_EQ(restored.stats().misses, snap.misses);
  // Filled by those hits, the entries now serve lookup() too.
  EXPECT_TRUE(restored.lookup(cache_key(folder, 3)).has_value());
}

// Restoring `snap` must throw and leave the cache's one resident entry
// and its layout as they were.
void expect_restore_rejected(const fold::FoldCache::Config& config,
                             const fold::FoldCache::Snapshot& snap) {
  fold::FoldCache cache(config);
  fold::Prediction p;
  p.models.resize(1);
  cache.insert(0xabcdefULL, p);
  const auto before = cache.snapshot();
  EXPECT_THROW(cache.restore(snap), std::invalid_argument);
  // Rejected before any state changed.
  EXPECT_EQ(cache.snapshot().shards, before.shards);
  EXPECT_TRUE(cache.lookup(0xabcdefULL).has_value());
}

// Snapshot of a cache holding keys 1..n (a snapshot carries keys only, so
// placeholder predictions do).
fold::FoldCache::Snapshot filled_snapshot(const fold::FoldCache::Config& config,
                                          std::uint64_t n) {
  fold::FoldCache cache(config);
  fold::Prediction p;
  p.models.resize(1);
  for (std::uint64_t k = 1; k <= n; ++k) cache.insert(k, p);
  return cache.snapshot();
}

TEST(FoldCacheSnapshot, RestoreRejectsDuplicateKey) {
  const fold::FoldCache::Config config{.capacity = 8, .shards = 1};
  auto snap = filled_snapshot(config, 3);
  snap.shards[0].push_back(snap.shards[0].front());
  expect_restore_rejected(config, snap);
}

TEST(FoldCacheSnapshot, RestoreRejectsMisplacedKey) {
  const fold::FoldCache::Config config{.capacity = 16, .shards = 2};
  auto snap = filled_snapshot(config, 6);
  // Move one key into the shard that does not own it.
  const std::size_t from = snap.shards[0].empty() ? 1 : 0;
  snap.shards[1 - from].push_back(snap.shards[from].back());
  snap.shards[from].pop_back();
  expect_restore_rejected(config, snap);
}

TEST(FoldCacheSnapshot, RestoreRejectsOverCapacityShard) {
  // Resuming with a smaller fold_cache_capacity: 4 keys per shard
  // written, 1 per shard allowed.
  const auto snap =
      filled_snapshot(fold::FoldCache::Config{.capacity = 8, .shards = 2}, 8);
  ASSERT_GT(std::max(snap.shards[0].size(), snap.shards[1].size()), 1u);
  expect_restore_rejected(fold::FoldCache::Config{.capacity = 2, .shards = 2},
                          snap);
}

TEST(FoldCacheSnapshot, RestoreRejectsShardMismatch) {
  fold::FoldCache a(fold::FoldCache::Config{.capacity = 8, .shards = 2});
  fold::FoldCache b(fold::FoldCache::Config{.capacity = 8, .shards = 4});
  EXPECT_THROW(b.restore(a.snapshot()), std::invalid_argument);
}

}  // namespace
}  // namespace impress::core
