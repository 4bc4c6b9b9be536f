#include "core/campaign_handle.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "core/calibration.hpp"

namespace impress::core {

CampaignExecutionModel::CampaignExecutionModel(CampaignShape shape) noexcept
    : shape_(shape) {
  const auto mpnn = calibration::mpnn_durations();
  const auto fold = calibration::fold_durations();
  const auto pilot = calibration::amarel_pilot();
  // One cycle-step = one ProteinMPNN call + one full AlphaFold pass; the
  // first result additionally pays pilot bootstrap and exec setup.
  step_base_s_ =
      mpnn.seconds_per_structure + fold.features_s + fold.inference_s;
  first_base_s_ =
      pilot.bootstrap_s + pilot.exec_overhead.setup_mean_s + step_base_s_;
}

CampaignExecutionModel::Sample CampaignExecutionModel::sample(
    std::uint64_t seed) const noexcept {
  common::Rng rng(common::splitmix64(seed), /*stream=*/0x5356435F45584543ULL);
  Sample s;
  // Wider sequence batches amortize slightly worse on one pilot.
  const double seq_factor =
      0.85 + 0.015 * static_cast<double>(shape_.sequences_per_structure);
  s.first_result_s = first_base_s_ * rng.lognormal_mean(1.0, 0.12);
  const double steps =
      static_cast<double>(shape_.targets) *
      static_cast<double>(std::max(shape_.cycles, 1)) * seq_factor;
  s.total_s = s.first_result_s + step_base_s_ * std::max(0.0, steps - 1.0) *
                                     rng.lognormal_mean(1.0, 0.08);
  const double q = 0.55 + 0.03 * static_cast<double>(shape_.cycles) +
                   0.05 * rng.normal();
  s.quality = std::clamp(q, 0.05, 0.99);
  return s;
}

}  // namespace impress::core
