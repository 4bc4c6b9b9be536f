// 3-D geometry for coarse (C-alpha) protein models: vector algebra,
// idealized backbone generation, and Kabsch superposition RMSD.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace impress::protein {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  Vec3 operator+(const Vec3& o) const noexcept { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const noexcept { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const noexcept { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) noexcept {
    x += o.x; y += o.y; z += o.z;
    return *this;
  }
  bool operator==(const Vec3&) const = default;
};

[[nodiscard]] double dot(const Vec3& a, const Vec3& b) noexcept;
[[nodiscard]] Vec3 cross(const Vec3& a, const Vec3& b) noexcept;
[[nodiscard]] double norm(const Vec3& v) noexcept;
[[nodiscard]] double distance(const Vec3& a, const Vec3& b) noexcept;

[[nodiscard]] Vec3 centroid(std::span<const Vec3> pts) noexcept;

/// Idealized alpha-helix C-alpha trace of n residues starting at `origin`:
/// rise 1.5 A per residue along z, 100 degrees twist, 2.3 A radius. Used
/// to give every generated structure physically plausible coordinates.
[[nodiscard]] std::vector<Vec3> ideal_helix(std::size_t n, Vec3 origin = {});

/// A C-alpha trace: immutable coordinates behind a shared pointer, so copies
/// of a chain, a structure or a prediction's models share one array. A trace
/// built by ideal_trace() also records its helix origin, which lets a
/// checkpoint name the trace instead of printing it.
class CaTrace {
 public:
  CaTrace() = default;
  /// An explicit trace (PDB input, hand-built geometry); records no origin.
  explicit CaTrace(std::vector<Vec3> points);

  [[nodiscard]] std::size_t size() const noexcept { return span().size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const Vec3& operator[](std::size_t i) const noexcept {
    return data_->points[i];
  }
  [[nodiscard]] std::span<const Vec3> span() const noexcept {
    if (!data_) return {};
    return data_->points;
  }
  [[nodiscard]] auto begin() const noexcept { return span().begin(); }
  [[nodiscard]] auto end() const noexcept { return span().end(); }

  /// The origin ideal_trace() built this trace at; empty for any other trace.
  [[nodiscard]] std::optional<Vec3> ideal_origin() const noexcept {
    return data_ ? data_->ideal_origin : std::nullopt;
  }

  /// Content equality: the same coordinates, however the traces were built.
  friend bool operator==(const CaTrace& a, const CaTrace& b) noexcept;

 private:
  struct Data {
    std::vector<Vec3> points;
    std::optional<Vec3> ideal_origin;
  };
  explicit CaTrace(std::shared_ptr<const Data> data) : data_(std::move(data)) {}
  friend CaTrace ideal_trace(std::size_t n, Vec3 origin);

  std::shared_ptr<const Data> data_;
};

/// ideal_helix(n, origin) as a shared trace. The helix is computed once per
/// (n, origin bit pattern) per process and kept in a table that only grows:
/// its size is the number of distinct (length, origin) pairs the process has
/// asked for. A pdz_benchmark campaign asks for at most 37 (receptors of
/// 80-115 residues at one origin, the peptide at another). Thread-safe.
[[nodiscard]] CaTrace ideal_trace(std::size_t n, Vec3 origin = {});

/// Root-mean-square deviation without superposition (same length required;
/// throws std::invalid_argument otherwise).
[[nodiscard]] double rmsd_raw(std::span<const Vec3> a, std::span<const Vec3> b);

/// Minimal RMSD after optimal rigid superposition (Kabsch, via the Horn
/// quaternion method). Same length required.
[[nodiscard]] double rmsd_superposed(std::span<const Vec3> a,
                                     std::span<const Vec3> b);

/// Apply the optimal rigid transform mapping `mobile` onto `target`,
/// returning the transformed copy of `mobile`.
[[nodiscard]] std::vector<Vec3> superpose(std::span<const Vec3> mobile,
                                          std::span<const Vec3> target);

}  // namespace impress::protein
