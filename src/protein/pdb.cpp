#include "protein/pdb.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace impress::protein {

void write_pdb(std::ostream& os, const Structure& s) {
  int serial = 1;
  std::size_t global_res = 0;
  const auto& plddt = s.plddt();
  for (const auto& chain : s.chains()) {
    for (std::size_t i = 0; i < chain.size(); ++i, ++global_res) {
      const double b = global_res < plddt.size() ? plddt[global_res] : 0.0;
      char line[96];
      std::snprintf(line, sizeof line,
                    "ATOM  %5d  CA  %3s %c%4zu    %8.3f%8.3f%8.3f%6.2f%6.2f"
                    "           C",
                    serial++,
                    std::string(to_code3(chain.sequence[i])).c_str(), chain.id,
                    i + 1, chain.ca[i].x, chain.ca[i].y, chain.ca[i].z, 1.0, b);
      os << line << '\n';
    }
    os << "TER\n";
  }
  os << "END\n";
}

std::string to_pdb(const Structure& s) {
  std::ostringstream os;
  write_pdb(os, s);
  return os.str();
}

Structure from_pdb(const std::string& text, std::string name) {
  // Residues and coordinates per chain, in order of appearance; each Chain
  // is built once at the end.
  struct Records {
    char id;
    std::vector<AminoAcid> residues;
    std::vector<Vec3> ca;
  };
  std::vector<Records> chains;
  std::vector<double> plddt;

  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!common::starts_with(line, "ATOM")) continue;
    if (line.size() < 54)
      throw std::invalid_argument("from_pdb: truncated ATOM record");
    // PDB fixed columns (0-based): atom name 12-15, resName 17-19,
    // chainID 21, x 30-37, y 38-45, z 46-53, B-factor 60-65.
    const std::string atom_name(common::trim(line.substr(12, 4)));
    if (atom_name != "CA") continue;
    const auto aa = from_code3(common::trim(line.substr(17, 3)));
    if (!aa)
      throw std::invalid_argument("from_pdb: unknown residue '" +
                                  std::string(common::trim(line.substr(17, 3))) + "'");
    const char chain_id = line[21];
    Vec3 p;
    try {
      p.x = std::stod(line.substr(30, 8));
      p.y = std::stod(line.substr(38, 8));
      p.z = std::stod(line.substr(46, 8));
    } catch (const std::exception&) {
      throw std::invalid_argument("from_pdb: bad coordinates");
    }
    double b = 0.0;
    if (line.size() >= 66) {
      try {
        b = std::stod(line.substr(60, 6));
      } catch (const std::exception&) {
        b = 0.0;
      }
    }

    auto it = std::find_if(chains.begin(), chains.end(),
                           [&](const Records& r) { return r.id == chain_id; });
    if (it == chains.end())
      it = chains.insert(chains.end(), Records{chain_id, {}, {}});
    it->residues.push_back(*aa);
    it->ca.push_back(p);
    plddt.push_back(b);
  }

  std::vector<Chain> ordered;
  ordered.reserve(chains.size());
  for (auto& r : chains)
    ordered.push_back(Chain{.id = r.id,
                            .sequence = Sequence(std::move(r.residues)),
                            .ca = CaTrace(std::move(r.ca))});
  Structure out(std::move(name), std::move(ordered));
  // Only attach pLDDT when any record carried one.
  for (double b : plddt)
    if (b != 0.0) {
      out.set_plddt(std::move(plddt));
      break;
    }
  return out;
}

}  // namespace impress::protein
