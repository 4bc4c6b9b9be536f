#include "fold/fold_cache.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/trace.hpp"

namespace impress::fold {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return common::splitmix64(h ^ v);
}

std::uint64_t mix_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t mix_sequence(std::uint64_t h,
                           const protein::Sequence& seq) noexcept {
  h = mix(h, seq.size());
  for (const protein::AminoAcid aa : seq)
    h = mix(h, static_cast<std::uint64_t>(aa) + 1);
  return h;
}

}  // namespace

FoldCache::FoldCache() : FoldCache(Config{}) {}

FoldCache::FoldCache(Config config) : config_(config) {
  if (config_.capacity == 0)
    throw std::invalid_argument("FoldCache: capacity must be > 0");
  if (config_.shards == 0)
    throw std::invalid_argument("FoldCache: shards must be > 0");
  config_.shards = std::min(config_.shards, config_.capacity);
  per_shard_capacity_ =
      (config_.capacity + config_.shards - 1) / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t FoldCache::content_key(const protein::Complex& complex,
                                     const protein::FitnessLandscape& landscape,
                                     const PredictorConfig& config) noexcept {
  std::uint64_t h = 0x7f4a7c15u;  // arbitrary non-zero start
  h = mix(h, landscape.fingerprint());
  h = mix(h, common::stable_hash(complex.structure.name()));
  h = mix_sequence(h, complex.receptor().sequence);
  h = mix_sequence(h, complex.peptide().sequence);
  h = mix(h, config.num_models);
  h = mix_double(h, config.msa_quality);
  h = mix_double(h, config.model_noise);
  h = mix_double(h, config.metric_noise);
  return h;
}

std::uint64_t FoldCache::key(std::uint64_t content_key,
                             const common::Rng& rng) noexcept {
  return mix(content_key, rng.fingerprint());
}

FoldCache::Shard& FoldCache::shard_for(std::uint64_t key) noexcept {
  return *shards_[common::splitmix64(key) % shards_.size()];
}

void FoldCache::record_hit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (obs_hits_ != nullptr) obs_hits_->inc();
}

void FoldCache::record_miss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs_misses_ != nullptr) obs_misses_->inc();
}

std::optional<Prediction> FoldCache::lookup(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    record_miss();
    return std::nullopt;
  }
  if (!it->second->second) return std::nullopt;  // key-only: see header
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  record_hit();
  return it->second->second;
}

void FoldCache::insert(std::uint64_t key, Prediction prediction) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Duplicate insert (two threads raced the same miss): refresh LRU,
    // keep the incumbent — both computed identical predictions. The
    // loser's work is real, though: count the discard so the stats
    // conserve (misses == entries + evictions + duplicate_discards).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    duplicate_discards_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.lru.emplace_front(key, std::move(prediction));
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

Prediction FoldCache::predict(const AlphaFold& folder,
                              const protein::Complex& complex,
                              const protein::FitnessLandscape& landscape,
                              common::Rng& rng) {
  const std::uint64_t k =
      key(content_key(complex, landscape, folder.config()), rng);
  // Visible in the trace as a child of the executing attempt span.
  obs::ScopedSpan span = obs::ambient_span("fold.cache");
  Shard& shard = shard_for(k);
  bool present = false;
  std::optional<Prediction> cached;
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.index.find(k); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      present = true;
      cached = it->second->second;
    }
  }
  if (!present) {
    record_miss();
    span.attr("cache", "miss");
    Prediction fresh = folder.predict(complex, landscape, rng);
    insert(k, fresh);
    return fresh;
  }
  record_hit();
  span.attr("cache", "hit");
  if (cached) return std::move(*cached);

  // First hit on a key-only entry restored from a checkpoint. The
  // uninterrupted run returned its stored prediction here and left the
  // rng alone, so recompute from a copy of the rng (equal fingerprint,
  // equal stream) and without the fold.predict span that run never
  // opened.
  common::Rng replay = rng;
  Prediction fresh = folder.predict_untraced(complex, landscape, replay);
  {
    std::lock_guard lock(shard.mutex);
    // Fill only an entry still waiting. A racing thread may have filled
    // it with the same value (not a duplicate miss) or evicted it.
    if (const auto it = shard.index.find(k);
        it != shard.index.end() && !it->second->second)
      it->second->second = fresh;
  }
  return fresh;
}

hpc::CacheSummary FoldCache::stats() const {
  hpc::CacheSummary s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.duplicate_discards = duplicate_discards_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    s.entries += shard->index.size();
  }
  return s;
}

FoldCache::Snapshot FoldCache::snapshot() const {
  Snapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    std::vector<std::uint64_t> keys;
    keys.reserve(shard->lru.size());
    for (const auto& entry : shard->lru) keys.push_back(entry.first);
    snap.shards.push_back(std::move(keys));
  }
  snap.hits = hits_.load(std::memory_order_relaxed);
  snap.misses = misses_.load(std::memory_order_relaxed);
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  snap.duplicate_discards =
      duplicate_discards_.load(std::memory_order_relaxed);
  return snap;
}

void FoldCache::restore(const Snapshot& snap) {
  if (snap.shards.size() != shards_.size())
    throw std::invalid_argument(
        "FoldCache::restore: shard count mismatch (snapshot from a "
        "differently-configured cache)");
  // Validate every shard before touching any: a malformed snapshot would
  // otherwise leave unreachable or index-less LRU nodes behind.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& keys = snap.shards[s];
    if (keys.size() > per_shard_capacity_)
      throw std::invalid_argument(
          "FoldCache::restore: shard " + std::to_string(s) + " holds " +
          std::to_string(keys.size()) + " keys, capacity is " +
          std::to_string(per_shard_capacity_) + " per shard");
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(keys.size());
    for (const std::uint64_t k : keys) {
      if (&shard_for(k) != shards_[s].get())
        throw std::invalid_argument(
            "FoldCache::restore: key stored outside its shard");
      if (!seen.insert(k).second)
        throw std::invalid_argument(
            "FoldCache::restore: duplicate key within a shard");
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    for (const std::uint64_t k : snap.shards[s]) {  // MRU first
      shard.lru.emplace_back(k, std::nullopt);
      shard.index.emplace(k, std::prev(shard.lru.end()));
    }
  }
  hits_.store(snap.hits, std::memory_order_relaxed);
  misses_.store(snap.misses, std::memory_order_relaxed);
  evictions_.store(snap.evictions, std::memory_order_relaxed);
  duplicate_discards_.store(snap.duplicate_discards,
                            std::memory_order_relaxed);
}

void FoldCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  duplicate_discards_.store(0, std::memory_order_relaxed);
}

}  // namespace impress::fold
