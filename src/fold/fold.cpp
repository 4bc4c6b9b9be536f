#include "fold/fold.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace impress::fold {

double FoldMetrics::composite() const noexcept {
  // Equal-weight blend of the three metrics, each normalized to ~[0,1].
  const double nl = std::clamp(plddt / 100.0, 0.0, 1.0);
  const double nt = std::clamp(ptm, 0.0, 1.0);
  const double ne = std::clamp(1.0 - ipae / 30.0, 0.0, 1.0);
  return (nl + nt + ne) / 3.0;
}

AlphaFold::AlphaFold(PredictorConfig config) : config_(config) {
  if (config_.num_models == 0)
    throw std::invalid_argument("AlphaFold: num_models must be > 0");
  if (config_.msa_quality <= 0.0 || config_.msa_quality > 1.0)
    throw std::invalid_argument("AlphaFold: msa_quality must be in (0,1]");
}

Prediction AlphaFold::predict_with_msa(
    const protein::Complex& complex, const protein::Msa& msa,
    const protein::FitnessLandscape& landscape, common::Rng& rng) const {
  PredictorConfig cfg = config_;
  cfg.msa_quality = msa.predictor_quality();
  return AlphaFold(cfg).predict(complex, landscape, rng);
}

Prediction AlphaFold::predict(const protein::Complex& complex,
                              const protein::FitnessLandscape& landscape,
                              common::Rng& rng) const {
  // Traced as a child of whatever span is ambient (the executing attempt,
  // or fold.cache when memoized); inert outside a traced task.
  const obs::ScopedSpan span = obs::ambient_span("fold.predict");
  return predict_untraced(complex, landscape, rng);
}

Prediction AlphaFold::predict_untraced(
    const protein::Complex& complex,
    const protein::FitnessLandscape& landscape, common::Rng& rng) const {
  const double f_true = landscape.fitness(complex.receptor().sequence);
  // Degraded MSA pulls the effective signal toward the mean (0.5) and
  // widens the noise — single-sequence mode sees less of the landscape.
  const double f_eff =
      config_.msa_quality * f_true + (1.0 - config_.msa_quality) * 0.5;
  const double noise_scale =
      config_.metric_noise * (1.0 + 1.5 * (1.0 - config_.msa_quality));

  Prediction out;
  out.models.reserve(config_.num_models);
  for (std::size_t m = 0; m < config_.num_models; ++m) {
    const double fm =
        std::clamp(f_eff + config_.model_noise * rng.normal(), 0.0, 1.0);
    FoldMetrics metrics;
    metrics.plddt =
        std::clamp(60.0 + 20.0 * fm + 1.2 * noise_scale * rng.normal(), 0.0, 100.0);
    metrics.ptm =
        std::clamp(0.30 + 0.75 * fm + 0.02 * noise_scale * rng.normal(), 0.0, 1.0);
    metrics.ipae =
        std::clamp(21.5 - 18.0 * fm + 0.8 * noise_scale * rng.normal(), 1.0, 30.0);

    // Predicted coordinates: the idealized complex, with per-residue
    // confidence tapering toward the chain termini as real pLDDT does.
    protein::Complex predicted =
        protein::Complex::make(complex.structure.name(),
                               complex.receptor().sequence,
                               complex.peptide().sequence);
    const std::size_t n = predicted.structure.size();
    std::vector<double> plddt(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double edge =
          std::min({i + 1, n - i, std::size_t{8}}) / 8.0;  // terminal taper
      plddt[i] = std::clamp(metrics.plddt * (0.8 + 0.2 * edge) +
                                2.0 * rng.normal(),
                            0.0, 100.0);
    }
    predicted.structure.set_plddt(std::move(plddt));
    out.models.push_back(
        ModelPrediction{metrics, std::move(predicted.structure)});
  }

  // Stage 4: rank candidate models by pTM; best complex is returned.
  out.best_index = 0;
  for (std::size_t m = 1; m < out.models.size(); ++m)
    if (out.models[m].metrics.ptm > out.models[out.best_index].metrics.ptm)
      out.best_index = m;
  return out;
}

}  // namespace impress::fold
