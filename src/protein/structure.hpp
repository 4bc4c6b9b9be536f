// Coarse-grained (C-alpha trace) protein structures and two-chain
// complexes: the objects that flow between pipeline stages. A Structure
// carries the sequence, per-residue coordinates, and optional per-residue
// confidence (the AlphaFold surrogate fills pLDDT in).

#pragma once

#include <map>
#include <string>
#include <vector>

#include "protein/geometry.hpp"
#include "protein/sequence.hpp"

namespace impress::protein {

struct Chain {
  char id = 'A';
  Sequence sequence;
  CaTrace ca;  ///< one C-alpha per residue; sizes must match

  /// Chain with an idealized helical trace for the given sequence (shared
  /// with every chain of the same length and origin, see ideal_trace).
  [[nodiscard]] static Chain idealized(char id, Sequence seq, Vec3 origin = {});

  [[nodiscard]] std::size_t size() const noexcept { return sequence.size(); }

  /// Throws std::invalid_argument when sequence/coordinates disagree.
  void validate() const;
};

class Structure {
 public:
  Structure() = default;
  Structure(std::string name, std::vector<Chain> chains);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] const std::vector<Chain>& chains() const noexcept { return chains_; }
  [[nodiscard]] std::vector<Chain>& chains() noexcept { return chains_; }

  [[nodiscard]] const Chain& chain(char id) const;
  [[nodiscard]] bool has_chain(char id) const noexcept;

  /// Total residues across chains.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Per-residue confidence (pLDDT, 0-100) in chain-then-residue order;
  /// empty when the structure is not a prediction.
  [[nodiscard]] const std::vector<double>& plddt() const noexcept { return plddt_; }
  void set_plddt(std::vector<double> p) { plddt_ = std::move(p); }

  /// All C-alpha positions in chain-then-residue order.
  [[nodiscard]] std::vector<Vec3> all_ca() const;

  bool operator==(const Structure&) const = default;

 private:
  std::string name_;
  std::vector<Chain> chains_;
  std::vector<double> plddt_;
};

/// Receptor+peptide two-chain complex (chain A = designable receptor,
/// chain B = fixed target peptide), the unit the IMPRESS pipeline designs.
struct Complex {
  Structure structure;  ///< exactly two chains, A then B

  [[nodiscard]] static Complex make(std::string name, Sequence receptor,
                                    Sequence peptide);

  [[nodiscard]] const Chain& receptor() const { return structure.chain('A'); }
  [[nodiscard]] const Chain& peptide() const { return structure.chain('B'); }

  /// Replace the receptor sequence (coordinates re-idealized).
  [[nodiscard]] Complex with_receptor(Sequence receptor) const;
};

}  // namespace impress::protein
