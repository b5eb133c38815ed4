#include "support/reference_section_set.h"

#include "util/contracts.h"

namespace grophecy::brs {

void ReferenceSectionSet::add(const Section& section) {
  if (section.is_empty()) return;
  GROPHECY_EXPECTS(sections_.empty() ||
                   sections_.front().array == section.array);
  // Try to merge exactly with an existing member.
  for (Section& member : sections_) {
    if (contains(member, section)) return;
    const Section merged = unite(member, section);
    if (merged.exact) {
      member = merged;
      return;
    }
  }
  sections_.push_back(section);
}

bool ReferenceSectionSet::covers(const Section& section) const {
  if (section.is_empty()) return true;
  if (sections_.empty()) return false;
  for (const Section& member : sections_) {
    if (contains(member, section)) return true;
  }
  // Fall back to the exact union of everything.
  Section all = sections_.front();
  for (std::size_t i = 1; i < sections_.size(); ++i)
    all = unite(all, sections_[i]);
  return all.exact && contains(all, section);
}

std::vector<Section> ReferenceSectionSet::subtract_from(
    const Section& section) const {
  std::vector<Section> remaining{section};
  for (const Section& member : sections_) {
    std::vector<Section> next;
    for (const Section& piece : remaining) {
      std::vector<Section> difference = subtract(piece, member);
      next.insert(next.end(), difference.begin(), difference.end());
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
  return remaining;
}

Section ReferenceSectionSet::bounding_union() const {
  GROPHECY_EXPECTS(!sections_.empty());
  Section all = sections_.front();
  for (std::size_t i = 1; i < sections_.size(); ++i)
    all = unite(all, sections_[i]);
  return all;
}

}  // namespace grophecy::brs
