// Hidden fitness landscape: the synthetic ground truth that replaces the
// physical reality the paper's tools (ProteinMPNN + AlphaFold) probe.
//
// Each design target (a PDZ domain + peptide pair) owns one landscape,
// deterministically derived from its name. The landscape assigns every
// receptor sequence a binding fitness in [0, 1]:
//
//   fitness = 0.70 * pocket     (per-position preferences at the binding
//                                interface, biased toward physicochemical
//                                complementarity with the peptide)
//           + 0.15 * couplings  (pairwise epistasis between pocket
//                                positions — what makes greedy one-shot
//                                design insufficient and iteration useful)
//           + 0.15 * scaffold   (similarity of non-interface positions to
//                                the native scaffold: drifting the core
//                                destabilizes the fold)
//
// The surrogates consume this: ProteinMPNN's sampler sees a *noisy* view
// of the per-position preferences (informative but imperfect proposals and
// log-likelihoods), and AlphaFold's metrics are noisy monotone functions
// of the true fitness. The adaptive protocol never reads the landscape
// directly — it only sees what the paper's protocol saw.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sum_tree.hpp"
#include "protein/sequence.hpp"

namespace impress::protein {

class FitnessLandscape {
 public:
  /// Build the landscape for a named target. `receptor_length` fixes the
  /// domain size; `peptide` shapes the pocket preferences; `seed` (usually
  /// stable_hash(name)) makes it reproducible.
  FitnessLandscape(std::string target_name, std::size_t receptor_length,
                   Sequence peptide, std::uint64_t seed);

  [[nodiscard]] const std::string& target_name() const noexcept { return name_; }
  [[nodiscard]] std::size_t receptor_length() const noexcept { return length_; }
  [[nodiscard]] const Sequence& peptide() const noexcept { return peptide_; }

  /// Binding fitness of a receptor sequence, in [0, 1]. Throws
  /// std::invalid_argument if the length does not match.
  [[nodiscard]] double fitness(const Sequence& receptor) const;

  /// Pocket (interface) positions, ascending.
  [[nodiscard]] const std::vector<std::size_t>& interface_positions() const noexcept {
    return interface_;
  }

  /// Normalized preference for residue `aa` at receptor position `pos`,
  /// in [0, 1]; non-interface positions return the scaffold preference
  /// (1 for the native residue, a fraction for chemically similar ones).
  [[nodiscard]] double preference(std::size_t pos, AminoAcid aa) const;

  /// The native scaffold sequence (moderate fitness by construction).
  [[nodiscard]] const Sequence& native_sequence() const noexcept { return native_; }

  /// Per-position argmax of preference — a strong but (because couplings
  /// are ignored) not globally optimal sequence. Used by tests.
  [[nodiscard]] Sequence greedy_optimal_sequence() const;

  /// A random receptor whose fitness is roughly `target_fitness`:
  /// the greedy optimum with positions re-randomized until close. Used to
  /// make starting structures with controlled headroom.
  [[nodiscard]] Sequence seed_sequence(double target_fitness,
                                       common::Rng& rng) const;

  /// Stable 64-bit digest of the landscape's identity (name, size,
  /// peptide, seed). Equal fingerprints imply bit-identical fitness
  /// functions; fold::content_key feeds it to each fold task's rng.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  class MutationScorer;

 private:
  using Profile = std::array<double, kNumAminoAcids>;

  std::string name_;
  std::size_t length_;
  Sequence peptide_;
  std::vector<std::size_t> interface_;
  std::vector<Profile> pocket_pref_;  ///< one per interface position
  Sequence native_;
  struct Coupling {
    std::size_t a;        ///< interface index (into interface_)
    std::size_t b;
    bool want_hydrophobic;  ///< both-hydrophobic vs opposite-charge bonus
  };
  std::vector<Coupling> couplings_;

  // Derived lookup structure (built once in the constructor) that turns
  // the per-call searches of the naive implementation into O(1) indexing:
  //   pocket_index_[pos]   = index into interface_/pocket_pref_, or -1
  //   scaffold_index_[pos] = index into the scaffold-term leaf array, or -1
  //   couplings_at_[ii]    = coupling indices touching interface index ii
  std::vector<std::int32_t> pocket_index_;
  std::vector<std::int32_t> scaffold_index_;
  std::vector<std::size_t> scaffold_positions_;  ///< non-interface, ascending
  std::vector<std::vector<std::size_t>> couplings_at_;
  std::uint64_t fingerprint_ = 0;

  [[nodiscard]] double pocket_term(const Sequence& receptor) const;
  [[nodiscard]] double coupling_term(const Sequence& receptor) const;
  [[nodiscard]] double scaffold_term(const Sequence& receptor) const;
  /// Whether coupling `c` is satisfied by the given pocket residues.
  [[nodiscard]] bool coupling_satisfied(const Coupling& c, AminoAcid a,
                                        AminoAcid b) const noexcept;
  /// The weighted, clamped combination used by fitness() and the scorer.
  /// Shared so both paths perform the identical float operations.
  [[nodiscard]] static double combine_terms(double pocket, double coupling,
                                            double scaffold) noexcept;
  [[nodiscard]] double normalized_pocket(double sum) const noexcept;
  [[nodiscard]] double normalized_coupling(std::size_t satisfied) const noexcept;
  [[nodiscard]] double normalized_scaffold(double sum) const noexcept;
  [[nodiscard]] std::size_t count_satisfied(const Sequence& receptor) const;
};

/// Incremental fitness evaluation: caches the pocket/coupling/scaffold
/// decomposition of one sequence and scores a point mutation in O(log L)
/// instead of the O(L·exp) full recompute — the kernel behind
/// seed_sequence and the generator proposal loops. All partial sums use
/// the same canonical binary-tree association as FitnessLandscape::
/// fitness(), so score_mutation(pos, aa) is bit-identical to
/// fitness(seq.with_mutation(pos, aa)) and fitness() to fitness(seq).
class FitnessLandscape::MutationScorer {
 public:
  /// The landscape must outlive the scorer; `sequence` must match its
  /// receptor length (throws std::invalid_argument otherwise).
  MutationScorer(const FitnessLandscape& landscape, Sequence sequence);

  /// Fitness of the current sequence.
  [[nodiscard]] double fitness() const noexcept { return fitness_; }

  /// Fitness the sequence would have with `aa` at `pos`, without
  /// mutating. O(log L).
  [[nodiscard]] double score_mutation(std::size_t pos, AminoAcid aa) const;

  /// Commit the mutation, updating the cached decomposition. O(log L).
  void apply(std::size_t pos, AminoAcid aa);

  [[nodiscard]] const Sequence& sequence() const noexcept { return seq_; }
  /// Move the sequence out; the scorer must not be used afterwards.
  [[nodiscard]] Sequence take_sequence() && { return std::move(seq_); }

 private:
  const FitnessLandscape* land_;
  Sequence seq_;
  common::SumTree pocket_;    ///< leaf per interface position: preference
  common::SumTree scaffold_;  ///< leaf per scaffold position: similarity
  std::size_t satisfied_ = 0; ///< couplings currently satisfied
  double fitness_ = 0.0;

  /// satisfied_ if interface position ii held `aa` instead. Exact
  /// (integer) incremental recount over couplings_at_[ii].
  [[nodiscard]] std::size_t satisfied_with(std::size_t ii,
                                           AminoAcid aa) const noexcept;
};

}  // namespace impress::protein
