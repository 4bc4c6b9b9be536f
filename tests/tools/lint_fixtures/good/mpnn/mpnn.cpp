// Good twin for hot-string-key: the same lookup keyed by the number
// itself, so no temporary string is built per proposal.

#include <map>

namespace fixture {

int score_proposal(const std::map<int, int>& index, int position) {
  const auto it = index.find(position);
  return it == index.end() ? 0 : it->second;
}

}  // namespace fixture
