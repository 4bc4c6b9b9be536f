// FoldCache: content-addressed memoization of AlphaFold predictions.
// The load-bearing property is exactness — a hit must return bit-for-bit
// what the miss path would have computed — plus LRU bookkeeping and the
// key's sensitivity to every input the predictor actually reads.

#include "fold/fold_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "protein/datasets.hpp"

namespace impress::fold {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

const protein::DesignTarget& target() {
  static const auto t = protein::make_target(
      "CACHE", 64, protein::alpha_synuclein().tail(10));
  return t;
}

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.best_index, b.best_index);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    EXPECT_EQ(bits(a.models[i].metrics.plddt), bits(b.models[i].metrics.plddt));
    EXPECT_EQ(bits(a.models[i].metrics.ptm), bits(b.models[i].metrics.ptm));
    EXPECT_EQ(bits(a.models[i].metrics.ipae), bits(b.models[i].metrics.ipae));
  }
}

TEST(FoldCache, HitReturnsBitIdenticalPrediction) {
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  FoldCache cache;

  const common::Rng rng(123);
  common::Rng first = rng;
  common::Rng second = rng;  // equal fingerprint => same stream
  const auto a = cache.predict(folder, cx, t.landscape, first);
  const auto b = cache.predict(folder, cx, t.landscape, second);
  expect_identical(a, b);

  // And the hit really did come from the cache, not a recompute.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);

  // Reference: the uncached path with the same rng computes the same.
  common::Rng naive = rng;
  expect_identical(a, folder.predict(cx, t.landscape, naive));
}

TEST(FoldCache, HitLeavesRngUntouched) {
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  FoldCache cache;
  common::Rng warm(9);
  (void)cache.predict(folder, cx, t.landscape, warm);  // miss, fills cache
  common::Rng rng(9);
  const auto before = rng.fingerprint();
  (void)cache.predict(folder, cx, t.landscape, rng);  // hit
  EXPECT_EQ(rng.fingerprint(), before);
}

TEST(FoldCache, RestoredKeyHitMatchesOriginalPrediction) {
  // A checkpoint carries keys only. The first hit on a restored key
  // recomputes the prediction from a copy of the caller's rng, and must
  // be indistinguishable from the uninterrupted run's plain hit: the
  // same bits, one hit and no miss, the rng untouched, and no
  // fold.predict span under the fold.cache span.
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  FoldCache original;
  common::Rng first(77);
  const auto computed = original.predict(folder, cx, t.landscape, first);
  const auto snap = original.snapshot();

  FoldCache restored;
  restored.restore(snap);
  obs::Tracer tracer(true);
  const obs::SpanId attempt =
      tracer.begin(0.0, "attempt", obs::categories::kAttempt);
  common::Rng rng(77);
  const auto before = rng.fingerprint();
  Prediction hit;
  {
    const obs::AmbientContext ctx(&tracer, attempt);
    hit = restored.predict(folder, cx, t.landscape, rng);
  }
  expect_identical(computed, hit);
  EXPECT_EQ(rng.fingerprint(), before);
  const auto s = restored.stats();
  EXPECT_EQ(s.hits - snap.hits, 1u);
  EXPECT_EQ(s.misses - snap.misses, 0u);
  EXPECT_EQ(s.entries, 1u);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "fold.cache");
  EXPECT_EQ(spans[1].parent, attempt);
  const std::vector<std::pair<std::string, std::string>> hit_attr{
      {"cache", "hit"}};
  EXPECT_EQ(spans[1].attrs, hit_attr);
}

TEST(FoldCache, KeySensitiveToEveryInput) {
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  const common::Rng rng(1);
  const auto base_content =
      FoldCache::content_key(cx, t.landscape, folder.config());
  const auto base = FoldCache::key(base_content, rng);

  // Receptor sequence.
  const auto mutated = cx.with_receptor(
      cx.receptor().sequence.with_mutation(0, protein::AminoAcid::kTrp));
  EXPECT_NE(FoldCache::content_key(mutated, t.landscape, folder.config()),
            base_content);

  // Predictor config (each field).
  auto cfg = folder.config();
  cfg.metric_noise *= 0.65;
  EXPECT_NE(FoldCache::content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.num_models += 1;
  EXPECT_NE(FoldCache::content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.msa_quality = 0.5;
  EXPECT_NE(FoldCache::content_key(cx, t.landscape, cfg), base_content);
  cfg = folder.config();
  cfg.model_noise *= 2.0;
  EXPECT_NE(FoldCache::content_key(cx, t.landscape, cfg), base_content);

  // Landscape identity.
  const auto other = protein::make_target(
      "CACHE2", 64, protein::alpha_synuclein().tail(10));
  EXPECT_NE(FoldCache::content_key(cx, other.landscape, folder.config()),
            base_content);

  // Rng stream.
  common::Rng advanced(1);
  (void)advanced();
  EXPECT_NE(FoldCache::key(base_content, advanced), base);
}

TEST(FoldCache, LruEvictsLeastRecentlyUsed) {
  FoldCache cache(FoldCache::Config{.capacity = 3, .shards = 1});
  Prediction p;
  p.models.push_back(ModelPrediction{});
  cache.insert(1, p);
  cache.insert(2, p);
  cache.insert(3, p);
  EXPECT_TRUE(cache.lookup(1).has_value());  // refresh 1; 2 is now LRU
  cache.insert(4, p);                        // evicts 2
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_TRUE(cache.lookup(4).has_value());

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.lookups(), 5u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 4.0 / 5.0);
}

TEST(FoldCache, DuplicateInsertKeepsIncumbent) {
  FoldCache cache(FoldCache::Config{.capacity = 4, .shards = 1});
  Prediction a;
  a.models.push_back(ModelPrediction{});
  a.models[0].metrics.ptm = 0.25;
  Prediction b = a;
  b.models[0].metrics.ptm = 0.75;
  cache.insert(7, a);
  cache.insert(7, b);  // raced duplicate: must keep the incumbent
  const auto got = cache.lookup(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->models[0].metrics.ptm, 0.25);
  EXPECT_EQ(cache.stats().entries, 1u);
  // Regression (PR 10): the losing insert used to vanish from the stats —
  // neither hit nor discard — breaking conservation.
  EXPECT_EQ(cache.stats().duplicate_discards, 1u);
}

TEST(FoldCache, StatsConserveUnderThreadedDuplicateRaces) {
  // N threads all miss the same keys, compute, and insert concurrently.
  // Whatever the interleaving, every miss must be accounted for exactly
  // once: resident, evicted, or discarded as a duplicate — the
  // conservation law the BENCH_kernels hit-rate math relies on.
  FoldCache cache(FoldCache::Config{.capacity = 64, .shards = 4});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 16;
  Prediction p;
  p.models.push_back(ModelPrediction{});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, p] {
      for (std::uint64_t k = 1; k <= kKeys; ++k) {
        if (!cache.lookup(k).has_value()) cache.insert(k, p);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kKeys);
  // Every key fits (64 >= 16), so no evictions; each miss either created
  // the resident entry or was discarded as a duplicate.
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, kKeys);
  EXPECT_EQ(s.misses, s.entries + s.evictions + s.duplicate_discards);
}

TEST(FoldCache, SnapshotRoundTripsDuplicateDiscards) {
  FoldCache cache(FoldCache::Config{.capacity = 4, .shards = 1});
  Prediction p;
  p.models.push_back(ModelPrediction{});
  cache.insert(1, p);
  cache.insert(1, p);  // one duplicate discard
  const auto snap = cache.snapshot();
  EXPECT_EQ(snap.duplicate_discards, 1u);
  FoldCache restored(FoldCache::Config{.capacity = 4, .shards = 1});
  restored.restore(snap);
  EXPECT_EQ(restored.stats().duplicate_discards, 1u);
}

TEST(FoldCache, ClearResetsEverything) {
  const auto& t = target();
  const auto cx = t.start_complex();
  const AlphaFold folder;
  FoldCache cache;
  common::Rng rng(5);
  (void)cache.predict(folder, cx, t.landscape, rng);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(FoldCache, RejectsZeroCapacityOrShards) {
  EXPECT_THROW(FoldCache(FoldCache::Config{.capacity = 0, .shards = 1}),
               std::invalid_argument);
  EXPECT_THROW(FoldCache(FoldCache::Config{.capacity = 8, .shards = 0}),
               std::invalid_argument);
  // More shards than capacity is clamped, not an error.
  const FoldCache cache(FoldCache::Config{.capacity = 2, .shards = 64});
  EXPECT_EQ(cache.config().shards, 2u);
}

TEST(FoldCache, ShardedCapacityHolds) {
  // Distinct keys spread over shards; total entries never exceed the
  // configured capacity by more than the per-shard rounding slack.
  FoldCache cache(FoldCache::Config{.capacity = 16, .shards = 4});
  Prediction p;
  p.models.push_back(ModelPrediction{});
  for (std::uint64_t k = 1; k <= 200; ++k) cache.insert(k, p);
  EXPECT_LE(cache.stats().entries, 16u);
  EXPECT_GE(cache.stats().evictions, 200u - 16u);
}

}  // namespace
}  // namespace impress::fold
