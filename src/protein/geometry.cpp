#include "protein/geometry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace impress::protein {

double dot(const Vec3& a, const Vec3& b) noexcept {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

Vec3 cross(const Vec3& a, const Vec3& b) noexcept {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

double norm(const Vec3& v) noexcept { return std::sqrt(dot(v, v)); }

double distance(const Vec3& a, const Vec3& b) noexcept { return norm(a - b); }

Vec3 centroid(std::span<const Vec3> pts) noexcept {
  Vec3 c;
  if (pts.empty()) return c;
  for (const auto& p : pts) c += p;
  return c * (1.0 / static_cast<double>(pts.size()));
}

std::vector<Vec3> ideal_helix(std::size_t n, Vec3 origin) {
  // Canonical alpha-helix parameters: 3.6 residues/turn (100 deg twist),
  // 1.5 A rise per residue, 2.3 A C-alpha radius.
  constexpr double kRise = 1.5;
  constexpr double kRadius = 2.3;
  constexpr double kTwist = 100.0 * std::numbers::pi / 180.0;
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = kTwist * static_cast<double>(i);
    pts.push_back(Vec3{origin.x + kRadius * std::cos(a),
                       origin.y + kRadius * std::sin(a),
                       origin.z + kRise * static_cast<double>(i)});
  }
  return pts;
}

CaTrace::CaTrace(std::vector<Vec3> points)
    : data_(std::make_shared<const Data>(
          Data{std::move(points), std::nullopt})) {}

bool operator==(const CaTrace& a, const CaTrace& b) noexcept {
  return a.data_ == b.data_ || std::ranges::equal(a.span(), b.span());
}

CaTrace ideal_trace(std::size_t n, Vec3 origin) {
  // Keyed by the origin's bits, so two origins share a trace exactly when
  // ideal_helix would compute the same coordinates for them.
  using Key = std::array<std::uint64_t, 4>;
  struct Table {
    // Untracked leaf, like obs::Tracer's log lock (common/lockdep.hpp):
    // held only for the lookup and a first fill by ideal_helix.
    std::mutex mutex;  // guards traces
    std::map<Key, std::shared_ptr<const CaTrace::Data>> traces;
  };
  static Table table;
  const Key key{n, std::bit_cast<std::uint64_t>(origin.x),
                std::bit_cast<std::uint64_t>(origin.y),
                std::bit_cast<std::uint64_t>(origin.z)};
  const std::lock_guard lock(table.mutex);
  auto& data = table.traces[key];
  if (!data)
    data = std::make_shared<const CaTrace::Data>(
        CaTrace::Data{ideal_helix(n, origin), origin});
  return CaTrace(data);
}

double rmsd_raw(std::span<const Vec3> a, std::span<const Vec3> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("rmsd_raw: size mismatch");
  if (a.empty()) return 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec3 d = a[i] - b[i];
    ss += dot(d, d);
  }
  return std::sqrt(ss / static_cast<double>(a.size()));
}

namespace {

using Mat4 = std::array<std::array<double, 4>, 4>;

/// Jacobi eigenvalue iteration for a symmetric 4x4 matrix. Returns the
/// eigenvalues on the diagonal of `m` and accumulates eigenvectors in the
/// columns of `v`.
void jacobi_eigen4(Mat4& m, Mat4& v) {
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) v[r][c] = (r == c) ? 1.0 : 0.0;
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < 4; ++p)
      for (int q = p + 1; q < 4; ++q) off += m[p][q] * m[p][q];
    if (off < 1e-24) return;
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) {
        if (std::fabs(m[p][q]) < 1e-18) continue;
        const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < 4; ++k) {
          const double mkp = m[k][p], mkq = m[k][q];
          m[k][p] = c * mkp - s * mkq;
          m[k][q] = s * mkp + c * mkq;
        }
        for (int k = 0; k < 4; ++k) {
          const double mpk = m[p][k], mqk = m[q][k];
          m[p][k] = c * mpk - s * mqk;
          m[q][k] = s * mpk + c * mqk;
        }
        for (int k = 0; k < 4; ++k) {
          const double vkp = v[k][p], vkq = v[k][q];
          v[k][p] = c * vkp - s * vkq;
          v[k][q] = s * vkp + c * vkq;
        }
      }
    }
  }
}

struct Superposition {
  double rmsd = 0.0;
  std::array<std::array<double, 3>, 3> rotation{};  // maps mobile -> target
  Vec3 mobile_centroid;
  Vec3 target_centroid;
};

Superposition kabsch(std::span<const Vec3> mobile, std::span<const Vec3> target) {
  if (mobile.size() != target.size())
    throw std::invalid_argument("superpose: size mismatch");
  Superposition out;
  const std::size_t n = mobile.size();
  if (n == 0) return out;
  out.mobile_centroid = centroid(mobile);
  out.target_centroid = centroid(target);

  // Covariance of the centered point sets plus the total spreads.
  double S[3][3] = {};
  double ga = 0.0, gb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 a = mobile[i] - out.mobile_centroid;
    const Vec3 b = target[i] - out.target_centroid;
    const double av[3] = {a.x, a.y, a.z};
    const double bv[3] = {b.x, b.y, b.z};
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) S[r][c] += av[r] * bv[c];
    ga += dot(a, a);
    gb += dot(b, b);
  }

  // Horn's quaternion key matrix.
  Mat4 K{};
  K[0][0] = S[0][0] + S[1][1] + S[2][2];
  K[0][1] = K[1][0] = S[1][2] - S[2][1];
  K[0][2] = K[2][0] = S[2][0] - S[0][2];
  K[0][3] = K[3][0] = S[0][1] - S[1][0];
  K[1][1] = S[0][0] - S[1][1] - S[2][2];
  K[1][2] = K[2][1] = S[0][1] + S[1][0];
  K[1][3] = K[3][1] = S[2][0] + S[0][2];
  K[2][2] = -S[0][0] + S[1][1] - S[2][2];
  K[2][3] = K[3][2] = S[1][2] + S[2][1];
  K[3][3] = -S[0][0] - S[1][1] + S[2][2];

  Mat4 V{};
  jacobi_eigen4(K, V);
  int best = 0;
  for (int i = 1; i < 4; ++i)
    if (K[i][i] > K[best][best]) best = i;
  const double lambda = K[best][best];
  const double q0 = V[0][best], q1 = V[1][best], q2 = V[2][best],
               q3 = V[3][best];

  // Quaternion (q0; q1,q2,q3) -> rotation matrix.
  auto& R = out.rotation;
  R[0][0] = q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3;
  R[0][1] = 2.0 * (q1 * q2 - q0 * q3);
  R[0][2] = 2.0 * (q1 * q3 + q0 * q2);
  R[1][0] = 2.0 * (q1 * q2 + q0 * q3);
  R[1][1] = q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3;
  R[1][2] = 2.0 * (q2 * q3 - q0 * q1);
  R[2][0] = 2.0 * (q1 * q3 - q0 * q2);
  R[2][1] = 2.0 * (q2 * q3 + q0 * q1);
  R[2][2] = q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3;

  const double msd = std::max(0.0, (ga + gb - 2.0 * lambda) / static_cast<double>(n));
  out.rmsd = std::sqrt(msd);
  return out;
}

}  // namespace

double rmsd_superposed(std::span<const Vec3> a, std::span<const Vec3> b) {
  return kabsch(a, b).rmsd;
}

std::vector<Vec3> superpose(std::span<const Vec3> mobile,
                            std::span<const Vec3> target) {
  const auto sp = kabsch(mobile, target);
  std::vector<Vec3> out;
  out.reserve(mobile.size());
  for (const auto& p : mobile) {
    const Vec3 c = p - sp.mobile_centroid;
    const double v[3] = {c.x, c.y, c.z};
    Vec3 r;
    r.x = sp.rotation[0][0] * v[0] + sp.rotation[0][1] * v[1] + sp.rotation[0][2] * v[2];
    r.y = sp.rotation[1][0] * v[0] + sp.rotation[1][1] * v[1] + sp.rotation[1][2] * v[2];
    r.z = sp.rotation[2][0] * v[0] + sp.rotation[2][1] * v[1] + sp.rotation[2][2] * v[2];
    out.push_back(r + sp.target_centroid);
  }
  return out;
}

}  // namespace impress::protein
