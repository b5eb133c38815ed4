// A set of Bounded Regular Sections over one array.
//
// The data-usage analyzer maintains, per array, the set of sections already
// written on the GPU; a later read only forces a host-to-device transfer if
// it is NOT provably covered by that set (paper §III-B). SectionSet provides
// the conservative `covers` query plus the bounding UNION used to size
// transfers.
//
// Representation: members are kept sorted by their first-dimension lower
// bound and canonically merged — add() cascades exact unions until no pair
// of members can merge. Together with two monotone bounds (the widest
// first-dimension span and the largest first-dimension stride ever seen),
// the sorted order confines every query to a small candidate window found
// by binary search:
//
//   * add/covers probe O(log n + window) members instead of scanning all n;
//   * subtract_from skips members whose first-dimension box cannot touch
//     the query (such members provably leave every piece unchanged), and
//     for rank-1 arrays walks members and remaining pieces with one
//     monotone merge pass — O((n + pieces) log n) overall where the
//     previous linear-scan implementation was O(n · pieces).
//
// The conservative contract is unchanged: covers never answers true for an
// uncovered section, subtract_from over-approximates the uncovered
// remainder, and cascade merging only applies provably exact unions, so the
// set always represents exactly the union of the added sections.
// The pinned pre-rewrite implementation lives in
// tests/support/reference_section_set.h for the randomized property suite
// and the micro_brs regression bench.
//
// Instances are not thread-safe (covers/bounding_union memoize the union
// fold); the analyzer uses one set per array per walk.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <vector>

#include "brs/section.h"

namespace grophecy::brs {

/// Grows monotonically; all member sections must refer to the same array.
class SectionSet {
 public:
  bool empty() const { return sections_.empty(); }
  /// Members in canonical order (sorted by first-dimension lower bound).
  const std::vector<Section>& sections() const { return sections_; }

  /// Adds a section, cascading exact merges with existing members (keeps
  /// the set small without losing precision).
  void add(const Section& section);

  /// True only if `section` is PROVABLY contained in the set: either in a
  /// single member, or in the exact union of all members. Conservative:
  /// may return false for covered sections, never true for uncovered ones.
  bool covers(const Section& section) const;

  /// The smallest single regular section enclosing the whole set.
  /// Requires a non-empty set.
  Section bounding_union() const;

  /// Conservative difference: sections that together contain every element
  /// of `section` NOT provably covered by the set (possibly more — the
  /// safe direction). An empty result proves coverage.
  std::vector<Section> subtract_from(const Section& section) const;

 private:
  /// Indices of members whose first-dimension lower bound lies in
  /// [lo, hi] — the only members any operation keyed on that range can
  /// interact with.
  struct Window {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  Window candidate_window(std::int64_t lo, std::int64_t hi) const;

  /// The memoized union fold over the members (recomputed after add).
  const Section& fold() const;

  std::vector<Section> sections_;  ///< Sorted by dims[0].lower.
  /// Monotone upper bounds over every member ever inserted; they never
  /// shrink when members merge, so windows stay conservative.
  std::int64_t max_span_ = 0;    ///< max over members of dim0 upper-lower.
  std::int64_t max_stride_ = 1;  ///< max over members of dim0 stride.
  mutable std::optional<Section> fold_;  ///< Cache; invalidated by add().
};

}  // namespace grophecy::brs
