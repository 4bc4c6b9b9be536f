#include "protein/structure.hpp"

#include <stdexcept>

namespace impress::protein {

Chain Chain::idealized(char id, Sequence seq, Vec3 origin) {
  Chain c;
  c.id = id;
  c.ca = ideal_trace(seq.size(), origin);
  c.sequence = std::move(seq);
  return c;
}

void Chain::validate() const {
  if (sequence.size() != ca.size())
    throw std::invalid_argument("Chain: sequence/coordinate length mismatch");
}

Structure::Structure(std::string name, std::vector<Chain> chains)
    : name_(std::move(name)), chains_(std::move(chains)) {
  for (const auto& c : chains_) c.validate();
}

const Chain& Structure::chain(char id) const {
  for (const auto& c : chains_)
    if (c.id == id) return c;
  throw std::out_of_range(std::string("Structure: no chain '") + id + "'");
}

bool Structure::has_chain(char id) const noexcept {
  for (const auto& c : chains_)
    if (c.id == id) return true;
  return false;
}

std::size_t Structure::size() const noexcept {
  std::size_t n = 0;
  for (const auto& c : chains_) n += c.size();
  return n;
}

std::vector<Vec3> Structure::all_ca() const {
  std::vector<Vec3> out;
  out.reserve(size());
  for (const auto& c : chains_) out.insert(out.end(), c.ca.begin(), c.ca.end());
  return out;
}

Complex Complex::make(std::string name, Sequence receptor, Sequence peptide) {
  // Receptor helix at the origin; peptide offset to sit against it like a
  // bound ligand (8 A away in x).
  Chain a = Chain::idealized('A', std::move(receptor), Vec3{0.0, 0.0, 0.0});
  Chain b = Chain::idealized('B', std::move(peptide), Vec3{8.0, 0.0, 0.0});
  Complex cx;
  cx.structure = Structure(std::move(name), {std::move(a), std::move(b)});
  return cx;
}

Complex Complex::with_receptor(Sequence receptor) const {
  return make(structure.name(), std::move(receptor), peptide().sequence);
}

}  // namespace impress::protein
