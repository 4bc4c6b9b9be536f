// Campaign execution handles for the multi-tenant service layer
// (src/service): what the front-end drives when it dispatches an admitted
// submission.
//
// CampaignExecutionModel is the closed-form cost/quality model of one
// campaign execution, distilled from the calibration duration models
// (core/calibration.hpp) and deterministic in the seed. The service's
// simulated backend and the bench_service load generator sample thousands
// of campaign handles per second through it without paying for full
// pipelines.

#pragma once

#include <cstddef>
#include <cstdint>

namespace impress::core {

/// Workload shape of one service-submitted campaign (the knobs tenants
/// are billed by: how many targets, how many design cycles).
struct CampaignShape {
  std::size_t targets = 1;
  int cycles = 4;
  std::size_t sequences_per_structure = 10;
};

class CampaignExecutionModel {
 public:
  struct Sample {
    /// Submit-side service time until the first scored design lands
    /// (pilot bootstrap + one MPNN + one full AlphaFold pass).
    double first_result_s = 0.0;
    /// Full campaign duration.
    double total_s = 0.0;
    /// End-of-campaign composite-quality proxy in [0, 1].
    double quality = 0.0;
  };

  explicit CampaignExecutionModel(CampaignShape shape = {}) noexcept;

  /// Deterministic, allocation-free: the same (shape, seed) pair yields
  /// the same sample on every machine.
  [[nodiscard]] Sample sample(std::uint64_t seed) const noexcept;

  [[nodiscard]] const CampaignShape& shape() const noexcept { return shape_; }

 private:
  CampaignShape shape_;
  double first_base_s_;  ///< bootstrap + MPNN + AF features + AF inference
  double step_base_s_;   ///< one cycle-step (MPNN + full AlphaFold)
};

}  // namespace impress::core
