// Randomized property tests pinning BOTH SectionSet implementations —
// the sorted-window rewrite (brs/section_set.h) and the pinned
// pre-rewrite ReferenceSectionSet — against a brute-force rasterized
// oracle on small arrays:
//
//   * soundness of covers: an answer of true implies the probe's raster
//     is a subset of the union's raster (never the reverse direction —
//     the contract allows conservative false);
//   * add() exactness: the set's rasterized union equals the union of
//     the added sections' rasters (merging never gains or loses
//     elements);
//   * subtract_from: every piece stays inside the query's raster, the
//     pieces jointly cover every query element outside the union (the
//     safe direction), and an empty result only occurs for genuinely
//     covered queries;
//   * bounding_union: encloses the union's raster, with identical
//     per-dimension boxes across the two implementations.
//
// Everything is seeded through util::Rng, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "brs/section.h"
#include "brs/section_set.h"
#include "skeleton/skeleton.h"
#include "support/reference_section_set.h"
#include "util/rng.h"

namespace grophecy::brs {
namespace {

using Coord = std::vector<std::int64_t>;
using Raster = std::set<Coord>;

/// Every element coordinate the section describes, brute-forced.
Raster rasterize(const Section& section, const skeleton::ArrayDecl& decl) {
  Raster out;
  const std::size_t rank = decl.dims.size();
  std::vector<std::vector<std::int64_t>> per_dim(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    if (section.whole_array) {
      for (std::int64_t v = 0; v < decl.dims[d]; ++v)
        per_dim[d].push_back(v);
    } else {
      const DimSection& dim = section.dims[d];
      for (std::int64_t v = dim.lower; v <= dim.upper; v += dim.stride)
        per_dim[d].push_back(v);
    }
    if (per_dim[d].empty()) return out;  // empty in one dim => empty
  }
  Coord coord(rank, 0);
  std::vector<std::size_t> idx(rank, 0);
  while (true) {
    for (std::size_t d = 0; d < rank; ++d) coord[d] = per_dim[d][idx[d]];
    out.insert(coord);
    std::size_t d = rank;
    while (d > 0) {
      --d;
      if (++idx[d] < per_dim[d].size()) break;
      idx[d] = 0;
      if (d == 0) return out;
    }
  }
}

Raster rasterize_all(const std::vector<Section>& sections,
                     const skeleton::ArrayDecl& decl) {
  Raster out;
  for (const Section& s : sections) {
    const Raster r = rasterize(s, decl);
    out.insert(r.begin(), r.end());
  }
  return out;
}

bool subset_of(const Raster& inner, const Raster& outer) {
  for (const Coord& c : inner)
    if (outer.find(c) == outer.end()) return false;
  return true;
}

/// A random in-bounds section over `decl` (never empty).
Section random_section(const skeleton::ArrayDecl& decl, util::Rng& rng) {
  Section s = Section::whole(0, decl);
  s.whole_array = false;
  for (std::size_t d = 0; d < decl.dims.size(); ++d) {
    const std::int64_t extent = decl.dims[d];
    const std::int64_t lo = rng.uniform_int(0, extent - 1);
    const std::int64_t hi = rng.uniform_int(lo, extent - 1);
    const std::int64_t stride = rng.uniform_int(1, 3);
    s.dims[d] = DimSection::range(lo, hi, stride);
  }
  return s;
}

/// Checks every property of one (members, probes) trial against `Set`.
template <typename Set>
void check_trial(const skeleton::ArrayDecl& decl,
                 const std::vector<Section>& members,
                 const std::vector<Section>& probes, std::uint64_t seed) {
  Set set;
  for (const Section& member : members) set.add(member);
  const Raster truth = rasterize_all(members, decl);

  // add() exactness: merging preserved the element set exactly.
  EXPECT_EQ(rasterize_all(set.sections(), decl), truth) << "seed " << seed;

  // bounding_union encloses the truth.
  if (!set.empty()) {
    const Raster bound = rasterize(set.bounding_union(), decl);
    EXPECT_TRUE(subset_of(truth, bound)) << "seed " << seed;
  }

  for (std::size_t p = 0; p < probes.size(); ++p) {
    const Section& probe = probes[p];
    const Raster probe_raster = rasterize(probe, decl);

    // covers soundness: true is a proof.
    if (set.covers(probe)) {
      EXPECT_TRUE(subset_of(probe_raster, truth))
          << "seed " << seed << " probe " << p;
    }

    const std::vector<Section> pieces = set.subtract_from(probe);
    const Raster piece_raster = rasterize_all(pieces, decl);
    // Every piece stays inside the query.
    EXPECT_TRUE(subset_of(piece_raster, probe_raster))
        << "seed " << seed << " probe " << p;
    // The pieces cover everything the set does not (the safe direction:
    // anything possibly uncovered must still be transferred).
    for (const Coord& c : probe_raster) {
      if (truth.find(c) == truth.end()) {
        EXPECT_TRUE(piece_raster.find(c) != piece_raster.end())
            << "seed " << seed << " probe " << p;
      }
    }
    // An empty result proves coverage.
    if (pieces.empty()) {
      EXPECT_TRUE(subset_of(probe_raster, truth))
          << "seed " << seed << " probe " << p;
    }
  }
}

/// Runs `trials` random trials over `decl` against both implementations
/// and pins their bounding boxes to each other.
void run_property_trials(const skeleton::ArrayDecl& decl, int trials,
                         std::uint64_t seed_base) {
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(trial);
    util::Rng rng(seed);
    const int member_count = static_cast<int>(rng.uniform_int(1, 6));
    const int probe_count = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<Section> members, probes;
    for (int i = 0; i < member_count; ++i)
      members.push_back(random_section(decl, rng));
    for (int i = 0; i < probe_count; ++i)
      probes.push_back(random_section(decl, rng));
    // Half the probes are shrunken members, so genuinely covered queries
    // are common (pure random probes are almost never covered).
    for (std::size_t i = 0; i + 1 < probes.size(); i += 2) {
      Section shrunk = members[i % members.size()];
      probes[i] = shrunk;
    }

    check_trial<SectionSet>(decl, members, probes, seed);
    check_trial<ReferenceSectionSet>(decl, members, probes, seed);

    // The two implementations agree on the bounding box (strides may
    // legitimately differ with merge order; boxes cannot — both sets
    // represent exactly the same element union).
    SectionSet fast;
    ReferenceSectionSet reference;
    for (const Section& member : members) {
      fast.add(member);
      reference.add(member);
    }
    const Section fast_bound = fast.bounding_union();
    const Section ref_bound = reference.bounding_union();
    ASSERT_EQ(fast_bound.dims.size(), ref_bound.dims.size());
    for (std::size_t d = 0; d < fast_bound.dims.size(); ++d) {
      EXPECT_EQ(fast_bound.dims[d].lower, ref_bound.dims[d].lower)
          << "seed " << seed;
      EXPECT_EQ(fast_bound.dims[d].upper, ref_bound.dims[d].upper)
          << "seed " << seed;
    }
  }
}

TEST(BrsProperty, Randomized1DAgainstRasterOracle) {
  const skeleton::ArrayDecl decl{"a", skeleton::ElemType::kF32, {24}, false};
  run_property_trials(decl, 300, 1000);
}

TEST(BrsProperty, Randomized2DAgainstRasterOracle) {
  const skeleton::ArrayDecl decl{"a", skeleton::ElemType::kF32, {12, 10},
                                 false};
  run_property_trials(decl, 150, 2000);
}

TEST(BrsProperty, WholeArraySectionsCoverAndSubtractToEmpty) {
  const skeleton::ArrayDecl decl{"a", skeleton::ElemType::kF32, {16}, false};
  const Section whole = Section::whole(0, decl);
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Section probe = random_section(decl, rng);
    SectionSet fast;
    ReferenceSectionSet reference;
    fast.add(whole);
    reference.add(whole);
    EXPECT_TRUE(fast.covers(probe));
    EXPECT_TRUE(reference.covers(probe));
    EXPECT_TRUE(fast.subtract_from(probe).empty());
    EXPECT_TRUE(reference.subtract_from(probe).empty());
  }
}

}  // namespace
}  // namespace grophecy::brs
