// Fixture: hot-string-key (path ends in mpnn/mpnn.cpp, which the
// hot-path file list matches without its src/ prefix).

#include <map>
#include <string>

namespace fixture {

int score_proposal(const std::map<std::string, int>& index, int position) {
  // Temporary string key in a hot-path map lookup.
  const auto it = index.find(std::to_string(position));
  return it == index.end() ? 0 : it->second;
}

}  // namespace fixture
