// AlphaFold surrogate: structure prediction with confidence metrics.
//
// The protocol consumes three things from AlphaFold (pipeline Stages 4-5):
// a predicted complex, a ranking of 5 candidate models by pTM, and the
// confidence metrics pLDDT / pTM / inter-chain pAE. The surrogate emits
// all three as noisy monotone functions of the hidden landscape fitness —
// reproducing the empirical observation the paper leans on ([12], [13])
// that AlphaFold confidence acts as a classifier separating good binders
// from bad ones:
//
//   pLDDT ~ 60 + 20*f + noise     (0-100, higher better)
//   pTM   ~ 0.30 + 0.75*f + noise (0-1, higher better)
//   ipAE  ~ 21.5 - 18*f + noise   (A, lower better)
//
// MSA mode: `msa_quality` in (0,1] scales how much signal the model
// extracts. 1.0 is full-MSA AlphaFold; ~0.55 models EvoPro's accelerated
// single-sequence mode (paper §IV), whose predictions blur toward the
// mean and carry more noise — the basis of the msa-mode ablation bench.

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "protein/landscape.hpp"
#include "protein/msa.hpp"
#include "protein/structure.hpp"

namespace impress::fold {

/// Confidence metrics of one predicted model.
struct FoldMetrics {
  double plddt = 0.0;  ///< mean predicted LDDT, 0-100
  double ptm = 0.0;    ///< predicted TM-score, 0-1
  double ipae = 0.0;   ///< mean inter-chain predicted aligned error, A

  /// Composite quality used by Stage 6 comparisons: improvements mean
  /// higher pLDDT, higher pTM, lower pAE. Normalized to roughly [0,1].
  [[nodiscard]] double composite() const noexcept;
};

struct ModelPrediction {
  FoldMetrics metrics;
  protein::Structure structure;  ///< predicted complex (pLDDT in B-factors)
};

struct Prediction {
  std::vector<ModelPrediction> models;  ///< ranked candidates
  std::size_t best_index = 0;           ///< argmax pTM (Stage 4 ranking)

  [[nodiscard]] const ModelPrediction& best() const {
    return models.at(best_index);
  }
};

struct PredictorConfig {
  std::size_t num_models = 5;   ///< AlphaFold's 5 model heads
  double msa_quality = 1.0;     ///< 1 = full MSA; lower = single-seq mode
  double model_noise = 0.035;   ///< per-model fitness perturbation sigma
  /// Scales the per-metric noise terms. The default makes successive
  /// evaluations of similar designs disagree by a few pLDDT points —
  /// which is what triggers the protocol's Stage-6 declining branch at a
  /// realistic rate.
  double metric_noise = 3.5;
};

class AlphaFold {
 public:
  explicit AlphaFold(PredictorConfig config = {});

  /// Predict the structure of the complex and score it. Deterministic in
  /// `rng`. The returned structures carry idealized coordinates whose
  /// per-residue pLDDT reflects the model confidence.
  [[nodiscard]] Prediction predict(const protein::Complex& complex,
                                   const protein::FitnessLandscape& landscape,
                                   common::Rng& rng) const;

  /// predict() without its `fold.predict` span. FoldCache recomputes a
  /// checkpoint-restored entry through this on its first hit, so the
  /// resumed trace shows the plain hit the uninterrupted run recorded.
  [[nodiscard]] Prediction predict_untraced(
      const protein::Complex& complex,
      const protein::FitnessLandscape& landscape, common::Rng& rng) const;

  /// Predict with an explicit alignment: msa_quality is derived from the
  /// MSA's effective depth (protein::Msa::predictor_quality) instead of
  /// the configured constant. A deeper, less redundant alignment yields a
  /// sharper classifier — the §IV argument made executable.
  [[nodiscard]] Prediction predict_with_msa(
      const protein::Complex& complex, const protein::Msa& msa,
      const protein::FitnessLandscape& landscape, common::Rng& rng) const;

  [[nodiscard]] const PredictorConfig& config() const noexcept { return config_; }

 private:
  PredictorConfig config_;
};

}  // namespace impress::fold
