// Content-addressed memoization of AlphaFold surrogate predictions.
//
// GA iterations, crossover recombinants and retry attempts routinely
// re-submit sequences the campaign has already folded. AlphaFold::predict
// is a pure function of (receptor sequence, peptide sequence, structure
// name, landscape, PredictorConfig, rng stream), so its result can be
// memoized under a key derived from exactly those inputs.
//
// Determinism contract: the key includes the task rng's fingerprint().
// The coordinator derives each fold task's rng from the *content* of the
// fold input (Coordinator::fold_rng_for), so two submissions of the same
// complex under the same config carry rngs with equal fingerprints — a
// cache hit therefore returns bit-for-bit the Prediction the miss path
// would have computed, and a cached campaign replays identically to an
// uncached one. On a hit the rng is left untouched (the task closure
// owns it and nothing observes it afterwards); on a miss it advances
// exactly as the uncached path does.
//
// Eviction: per-shard LRU. The cache is sharded (hash-partitioned) so
// concurrent executor threads contend only on 1/N of the structure; each
// shard holds capacity/N entries rounded up, evicting its own
// least-recently-used entry on overflow. Hit/miss/eviction counters are
// lock-free atomics surfaced as hpc::CacheSummary.
//
// Checkpoints carry keys, not predictions. A restored entry is key-only
// until its first hit, which recomputes the prediction from a copy of the
// caller's rng: the key covers the rng fingerprint, so that copy draws
// exactly the stream the original miss drew, and the recomputed value is
// bit-identical to the one the uninterrupted run kept in memory.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include <atomic>

#include "fold/fold.hpp"
#include "hpc/analytics.hpp"
#include "obs/metrics.hpp"

namespace impress::fold {

class FoldCache {
 public:
  struct Config {
    std::size_t capacity = 1024;  ///< max resident predictions (total)
    std::size_t shards = 8;       ///< lock-striping factor
  };

  FoldCache();  ///< default Config
  explicit FoldCache(Config config);

  /// Stable digest of every input AlphaFold::predict reads *except* the
  /// rng: receptor + peptide sequences, structure name, landscape
  /// identity, predictor config. This is also what the coordinator feeds
  /// to fork() to derive the task rng, which is what makes duplicate
  /// submissions cache-hittable in the first place.
  [[nodiscard]] static std::uint64_t content_key(
      const protein::Complex& complex,
      const protein::FitnessLandscape& landscape,
      const PredictorConfig& config) noexcept;

  /// Full cache key: content plus the rng stream identity.
  [[nodiscard]] static std::uint64_t key(std::uint64_t content_key,
                                         const common::Rng& rng) noexcept;

  /// Memoized AlphaFold::predict. Thread-safe.
  [[nodiscard]] Prediction predict(const AlphaFold& folder,
                                   const protein::Complex& complex,
                                   const protein::FitnessLandscape& landscape,
                                   common::Rng& rng);

  /// Direct probe, for tests. A hit refreshes recency and counts; a
  /// key-only entry restored from a checkpoint has no prediction to
  /// return, so it yields std::nullopt and counts nothing (predict()
  /// recomputes it instead).
  [[nodiscard]] std::optional<Prediction> lookup(std::uint64_t key);
  void insert(std::uint64_t key, Prediction prediction);

  [[nodiscard]] hpc::CacheSummary stats() const;
  void clear();

  /// Cache state for campaign checkpoints: per-shard keys in MRU→LRU
  /// order plus the lifetime counters. Predictions do not travel — a
  /// restored entry is recomputed on its first hit (see the header
  /// comment). Restoring reproduces the exact recency order, so
  /// post-resume hit/eviction patterns — and the CacheSummary in the
  /// final CampaignResult — match the uninterrupted run's bit for bit.
  struct Snapshot {
    std::vector<std::vector<std::uint64_t>> shards;  ///< keys, MRU first
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t duplicate_discards = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Load a snapshot into an empty cache with the same shard count,
  /// installing key-only entries. A snapshot read from a checkpoint is
  /// outside input: a shard-count mismatch, a key duplicated within a
  /// shard, a key stored outside its own shard, or a shard holding more
  /// keys than this cache's per-shard capacity throws
  /// std::invalid_argument before any state changes.
  void restore(const Snapshot& snap);

  /// Wire campaign-level hit/miss counters (obs metrics registry). Both
  /// may be nullptr (the default) to unhook — required before the
  /// counters' registry dies if the cache outlives it. Wire before
  /// concurrent use; the pointers are read by executor threads.
  void set_metrics(obs::Counter* hits, obs::Counter* misses) noexcept {
    obs_hits_ = hits;
    obs_misses_ = misses;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Shard {
    std::mutex mutex;
    using Lru = std::list<std::pair<std::uint64_t, std::optional<Prediction>>>;
    /// LRU order, most-recent first; the map points into the list. The
    /// prediction is empty for a restored entry not yet hit.
    Lru lru;
    std::unordered_map<std::uint64_t, Lru::iterator> index;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t key) noexcept;
  void record_hit();
  void record_miss();

  Config config_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  /// Inserts that found an incumbent under the same key (two threads
  /// raced the same miss; the loser's prediction is dropped). Without
  /// this the dropped computation is counted as neither hit nor
  /// discard and the stats stop conserving: misses must equal
  /// entries + evictions + duplicate_discards.
  std::atomic<std::uint64_t> duplicate_discards_{0};
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
};

}  // namespace impress::fold
