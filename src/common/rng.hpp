// Deterministic pseudo-random number generation for IMPRESS.
//
// Every stochastic component in the library (sequence sampling, surrogate
// metric noise, duration jitter) draws from a seeded Rng so that campaigns,
// tests and benchmark figures regenerate bit-identically. We implement
// PCG32 (O'Neill, 2014) rather than using std::mt19937 because PCG has a
// tiny state (16 bytes), excellent statistical quality, and — crucially —
// a *stream* parameter that lets us derive independent generators for each
// pipeline/task from one campaign seed without correlation.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace impress::common {

/// Mix a 64-bit value to a well-distributed 64-bit output (SplitMix64
/// finalizer). Used for seed derivation and stable hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Stable 64-bit hash of a string (FNV-1a folded through splitmix64).
/// Unlike std::hash, this is identical across platforms and runs, so
/// dataset generation keyed on names ("NHERF3", ...) is reproducible.
[[nodiscard]] std::uint64_t stable_hash(std::string_view s) noexcept;

/// PCG32: 64-bit state, 64-bit stream selector, 32-bit output.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Raw generator state for checkpoint/restore. The constructor scrambles
  /// its seed, so a generator's position in its stream cannot be recreated
  /// from the original (seed, stream) pair — checkpointing must capture the
  /// post-scramble words verbatim. `cached_normal` preserves the Box–Muller
  /// half-pair so restored generators replay bit-identically.
  struct State {
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    bool operator==(const State&) const = default;
  };

  /// Construct from a seed and an optional stream id. Different stream
  /// ids yield statistically independent sequences for the same seed.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL) noexcept;

  /// Derive a child generator whose stream is keyed on `tag`. Children
  /// derived with distinct tags are independent of each other and of the
  /// parent's future output.
  [[nodiscard]] Rng fork(std::string_view tag) const noexcept;
  [[nodiscard]] Rng fork(std::uint64_t tag) const noexcept;

  /// Snapshot / restore the exact stream position (see State).
  [[nodiscard]] State save_state() const noexcept {
    return {state_, inc_, cached_normal_, has_cached_normal_};
  }
  void restore_state(const State& s) noexcept {
    state_ = s.state;
    inc_ = s.inc;
    cached_normal_ = s.cached_normal;
    has_cached_normal_ = s.has_cached_normal;
  }
  [[nodiscard]] static Rng from_state(const State& s) noexcept {
    Rng r;
    r.restore_state(s);
    return r;
  }

  /// Next raw 32-bit value.
  result_type operator()() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection
  /// to avoid modulo bias.
  [[nodiscard]] std::uint32_t below(std::uint32_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] int range(int lo, int hi) noexcept;
  /// Standard normal variate (Box–Muller with caching).
  [[nodiscard]] double normal() noexcept;
  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;
  /// Sample an index from unnormalized non-negative weights. Returns
  /// weights.size() - 1 on degenerate (all-zero) input if non-empty.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights) noexcept;
  /// Exponential variate with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;
  /// Log-normal variate parameterized by the *target* mean and the sigma
  /// of the underlying normal. Handy for task-duration jitter.
  [[nodiscard]] double lognormal_mean(double mean, double sigma) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(static_cast<std::uint32_t>(i))]);
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace impress::common
