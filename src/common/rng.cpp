#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace impress::common {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t stable_hash(std::string_view s) noexcept {
  // FNV-1a over the bytes, then scrambled so short strings still produce
  // well-distributed seeds.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0), inc_((stream << 1u) | 1u) {
  (*this)();
  state_ += splitmix64(seed);
  (*this)();
}

Rng Rng::fork(std::string_view tag) const noexcept {
  return fork(stable_hash(tag));
}

Rng Rng::fork(std::uint64_t tag) const noexcept {
  // Seed the child from this generator's *identity* (state + stream),
  // not from its output, so forking is a const operation and repeated
  // forks with the same tag agree.
  const std::uint64_t seed = splitmix64(state_ ^ splitmix64(tag));
  const std::uint64_t stream = splitmix64(inc_ + tag);
  return Rng(seed, stream);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Rng::uniform() noexcept {
  // 53-bit mantissa from two draws for full double resolution.
  const std::uint64_t hi = (*this)();
  const std::uint64_t lo = (*this)();
  const std::uint64_t bits = ((hi << 32) | lo) >> 11;
  return static_cast<double>(bits) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint32_t Rng::below(std::uint32_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation.
  std::uint64_t m = static_cast<std::uint64_t>((*this)()) * n;
  auto l = static_cast<std::uint32_t>(m);
  if (l < n) {
    const std::uint32_t t = (0u - n) % n;
    while (l < t) {
      m = static_cast<std::uint64_t>((*this)()) * n;
      l = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

int Rng::range(int lo, int hi) noexcept {
  return lo + static_cast<int>(below(static_cast<std::uint32_t>(hi - lo + 1)));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 is kept away from zero to avoid log(0).
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t Rng::categorical(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return weights.empty() ? 0 : weights.size() - 1;
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (x < w) return i;
    x -= w;
  }
  return weights.size() - 1;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

double Rng::lognormal_mean(double mean, double sigma) noexcept {
  // Choose mu so that E[exp(N(mu, sigma^2))] == mean.
  if (mean <= 0.0) return 0.0;
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return std::exp(mu + sigma * normal());
}

}  // namespace impress::common
