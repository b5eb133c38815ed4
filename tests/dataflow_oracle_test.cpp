// Property-based validation of the data-usage analyzer against a concrete
// oracle.
//
// The oracle executes a skeleton element by element: it enumerates every
// loop-index combination of every statement, evaluates the affine
// subscripts, and tracks per array exactly which elements are read before
// being written (must be transferred in) and which are written (must be
// transferred out unless hinted temporary). The BRS analyzer must be
// CONSERVATIVE with respect to this ground truth: its transfer sections
// must contain every element the oracle identifies. Hundreds of randomly
// generated skeletons are checked, plus directed cases where bounding
// unions are forced to over-approximate.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dataflow/usage_analyzer.h"
#include "skeleton/skeleton.h"
#include "util/rng.h"
#include "util/table.h"

namespace grophecy::dataflow {
namespace {

using skeleton::AffineExpr;
using skeleton::AppSkeleton;
using skeleton::ArrayDecl;
using skeleton::ArrayId;
using skeleton::ArrayRef;
using skeleton::ElemType;
using skeleton::KernelSkeleton;
using skeleton::Loop;
using skeleton::RefKind;
using skeleton::Statement;

/// Flattened element coordinates of one array.
using ElementSet = std::set<std::int64_t>;

struct OracleResult {
  std::map<ArrayId, ElementSet> needs_input;  ///< Read before written.
  std::map<ArrayId, ElementSet> written;
};

/// Flattens multi-dim coordinates row-major; returns -1 if out of bounds
/// (the analyzer clamps such accesses away, and real code guards them).
std::int64_t flatten(const std::vector<std::int64_t>& coords,
                     const ArrayDecl& decl) {
  std::int64_t index = 0;
  for (std::size_t d = 0; d < decl.dims.size(); ++d) {
    if (coords[d] < 0 || coords[d] >= decl.dims[d]) return -1;
    index = index * decl.dims[d] + coords[d];
  }
  return index;
}

/// Executes the whole application concretely (affine refs only).
OracleResult run_oracle(const AppSkeleton& app) {
  OracleResult result;
  std::map<ArrayId, ElementSet> written_so_far;

  for (const KernelSkeleton& kernel : app.kernels) {
    for (const Statement& stmt : kernel.body) {
      const std::size_t depth =
          stmt.depth < 0 ? kernel.loops.size()
                         : std::min<std::size_t>(stmt.depth,
                                                 kernel.loops.size());
      // Enumerate every loop-index combination for loops[0..depth).
      std::vector<std::int64_t> values(kernel.loops.size(), 0);
      for (std::size_t d = 0; d < depth; ++d)
        values[d] = kernel.loops[d].lower;

      bool done = depth == 0 ? false : false;
      bool executed_once = false;
      while (true) {
        if (depth == 0 && executed_once) break;
        executed_once = true;
        // Loads first, then stores (in-place updates read the old value).
        for (const ArrayRef& ref : stmt.refs) {
          if (ref.kind != RefKind::kLoad) continue;
          const ArrayDecl& decl = app.array(ref.array);
          std::vector<std::int64_t> coords;
          for (const AffineExpr& expr : ref.subscripts)
            coords.push_back(expr.evaluate(values));
          const std::int64_t idx = flatten(coords, decl);
          if (idx < 0) continue;
          if (!written_so_far[ref.array].count(idx))
            result.needs_input[ref.array].insert(idx);
        }
        for (const ArrayRef& ref : stmt.refs) {
          if (ref.kind != RefKind::kStore) continue;
          const ArrayDecl& decl = app.array(ref.array);
          std::vector<std::int64_t> coords;
          for (const AffineExpr& expr : ref.subscripts)
            coords.push_back(expr.evaluate(values));
          const std::int64_t idx = flatten(coords, decl);
          if (idx < 0) continue;
          written_so_far[ref.array].insert(idx);
          result.written[ref.array].insert(idx);
        }
        // Odometer increment over loops[0..depth).
        if (depth == 0) break;
        std::size_t d = depth;
        while (d-- > 0) {
          values[d] += kernel.loops[d].step;
          if (values[d] < kernel.loops[d].upper) break;
          values[d] = kernel.loops[d].lower;
          if (d == 0) {
            done = true;
            break;
          }
        }
        if (done) break;
      }
    }
  }
  return result;
}

/// True if the flattened element lies inside the (multi-dim) section.
bool section_contains(const brs::Section& section, std::int64_t flat_index,
                      const ArrayDecl& decl) {
  std::vector<std::int64_t> coords(decl.dims.size());
  std::int64_t rest = flat_index;
  for (std::size_t d = decl.dims.size(); d-- > 0;) {
    coords[d] = rest % decl.dims[d];
    rest /= decl.dims[d];
  }
  for (std::size_t d = 0; d < decl.dims.size(); ++d)
    if (!section.dims[d].contains_value(coords[d])) return false;
  return true;
}

/// Checks the analyzer's plan is a superset of the oracle's ground truth.
void expect_conservative(const AppSkeleton& app, std::uint64_t seed_label) {
  const OracleResult oracle = run_oracle(app);
  const TransferPlan plan = UsageAnalyzer().analyze(app);

  auto find_section = [&](const std::vector<Transfer>& list, ArrayId array)
      -> const brs::Section* {
    for (const Transfer& t : list)
      if (t.array == array) return &t.section;
    return nullptr;
  };

  for (const auto& [array, elements] : oracle.needs_input) {
    const brs::Section* section = find_section(plan.host_to_device, array);
    ASSERT_NE(section, nullptr)
        << "seed " << seed_label << ": array " << app.array(array).name
        << " needs input but has no H2D transfer";
    for (std::int64_t element : elements) {
      ASSERT_TRUE(section_contains(*section, element, app.array(array)))
          << "seed " << seed_label << ": element " << element << " of "
          << app.array(array).name << " missing from H2D section "
          << section->to_string();
    }
  }
  for (const auto& [array, elements] : oracle.written) {
    if (app.is_temporary(array)) continue;
    const brs::Section* section = find_section(plan.device_to_host, array);
    ASSERT_NE(section, nullptr)
        << "seed " << seed_label << ": array " << app.array(array).name
        << " is written but has no D2H transfer";
    for (std::int64_t element : elements) {
      ASSERT_TRUE(section_contains(*section, element, app.array(array)))
          << "seed " << seed_label << ": element " << element << " of "
          << app.array(array).name << " missing from D2H section";
    }
  }
}

/// Generates a random, valid, affine-only skeleton with small extents.
AppSkeleton random_skeleton(util::Rng& rng) {
  AppSkeleton app;
  app.name = "fuzz";

  const int num_arrays = static_cast<int>(rng.uniform_int(1, 3));
  for (int a = 0; a < num_arrays; ++a) {
    ArrayDecl decl;
    decl.name = "a" + std::to_string(a);
    decl.type = ElemType::kF32;
    const int rank = static_cast<int>(rng.uniform_int(1, 2));
    for (int d = 0; d < rank; ++d)
      decl.dims.push_back(rng.uniform_int(4, 12));
    app.arrays.push_back(std::move(decl));
    if (rng.bernoulli(0.15))
      app.temporaries.push_back(static_cast<ArrayId>(a));
  }

  const int num_kernels = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < num_kernels; ++k) {
    KernelSkeleton kernel;
    kernel.name = "k" + std::to_string(k);
    const int num_loops = static_cast<int>(rng.uniform_int(1, 3));
    for (int l = 0; l < num_loops; ++l) {
      Loop loop;
      loop.name = util::strfmt("v%d", l);
      loop.lower = 0;
      loop.upper = rng.uniform_int(2, 6);
      loop.step = rng.bernoulli(0.2) ? 2 : 1;
      loop.parallel = rng.bernoulli(0.6);
      kernel.loops.push_back(std::move(loop));
    }
    const int num_stmts = static_cast<int>(rng.uniform_int(1, 3));
    for (int s = 0; s < num_stmts; ++s) {
      Statement stmt;
      stmt.flops = 1.0;
      stmt.depth = rng.bernoulli(0.3)
                       ? static_cast<int>(rng.uniform_int(0, num_loops))
                       : -1;
      const std::size_t depth =
          stmt.depth < 0 ? kernel.loops.size()
                         : static_cast<std::size_t>(stmt.depth);
      const int num_refs = static_cast<int>(rng.uniform_int(1, 3));
      for (int r = 0; r < num_refs; ++r) {
        ArrayRef ref;
        ref.array = static_cast<ArrayId>(
            rng.uniform_int(0, static_cast<std::int64_t>(app.arrays.size()) -
                                   1));
        ref.kind = rng.bernoulli(0.5) ? RefKind::kLoad : RefKind::kStore;
        const ArrayDecl& decl =
            app.arrays[static_cast<std::size_t>(ref.array)];
        for (std::size_t d = 0; d < decl.dims.size(); ++d) {
          AffineExpr expr;
          expr.constant = rng.uniform_int(-3, 3);
          if (depth > 0 && rng.bernoulli(0.8)) {
            const auto loop = static_cast<skeleton::LoopId>(
                rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
            const std::int64_t coeff = rng.uniform_int(-2, 2);
            if (coeff != 0) expr.terms.emplace_back(loop, coeff);
          }
          ref.subscripts.push_back(std::move(expr));
        }
        stmt.refs.push_back(std::move(ref));
      }
      kernel.body.push_back(std::move(stmt));
    }
    app.kernels.push_back(std::move(kernel));
  }
  app.validate();
  return app;
}

class DataflowOracle : public ::testing::TestWithParam<int> {};

TEST_P(DataflowOracle, AnalyzerIsConservativeOnRandomSkeletons) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int trial = 0; trial < 60; ++trial) {
    const AppSkeleton app = random_skeleton(rng);
    expect_conservative(
        app, static_cast<std::uint64_t>(GetParam()) * 1000 + trial);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DataflowOracleDirected, StridedWritesDoNotCoverTheGaps) {
  // Kernel 1 writes even elements; kernel 2 reads all: odd elements are
  // read-before-write and must be in the H2D section.
  AppSkeleton app;
  app.name = "strided";
  app.arrays.push_back({"a", ElemType::kF32, {16}, false});
  app.arrays.push_back({"out", ElemType::kF32, {16}, false});

  KernelSkeleton k1;
  k1.name = "evens";
  k1.loops.push_back({"i", 0, 8, 1, true});
  Statement s1;
  s1.flops = 1.0;
  s1.refs.push_back({0, RefKind::kStore, {AffineExpr::make_var(0, 2)}, {},
                     {}, false});
  k1.body.push_back(std::move(s1));
  app.kernels.push_back(std::move(k1));

  KernelSkeleton k2;
  k2.name = "all";
  k2.loops.push_back({"i", 0, 16, 1, true});
  Statement s2;
  s2.flops = 1.0;
  s2.refs.push_back({0, RefKind::kLoad, {AffineExpr::make_var(0)}, {}, {},
                     false});
  s2.refs.push_back({1, RefKind::kStore, {AffineExpr::make_var(0)}, {}, {},
                     false});
  k2.body.push_back(std::move(s2));
  app.kernels.push_back(std::move(k2));
  app.validate();

  expect_conservative(app, 999);

  // And specifically: the H2D section for `a` must include odd elements.
  const TransferPlan plan = UsageAnalyzer().analyze(app);
  const brs::Section* section = nullptr;
  for (const Transfer& t : plan.host_to_device)
    if (t.array == 0) section = &t.section;
  ASSERT_NE(section, nullptr);
  EXPECT_TRUE(section_contains(*section, 7, app.arrays[0]));
}

TEST(DataflowOracleDirected, ReverseIterationInPlace) {
  // a[i] = a[15 - i]: every element is both read and written; reads of
  // the upper half happen "before" their writes in section terms. The
  // analyzer must transfer the whole array both ways.
  AppSkeleton app;
  app.name = "reverse";
  app.arrays.push_back({"a", ElemType::kF32, {16}, false});
  KernelSkeleton k;
  k.name = "rev";
  k.loops.push_back({"i", 0, 16, 1, true});
  Statement s;
  s.flops = 1.0;
  s.refs.push_back(
      {0, RefKind::kLoad, {AffineExpr::make_var(0, -1, 15)}, {}, {}, false});
  s.refs.push_back({0, RefKind::kStore, {AffineExpr::make_var(0)}, {}, {},
                    false});
  k.body.push_back(std::move(s));
  app.kernels.push_back(std::move(k));
  app.validate();

  expect_conservative(app, 1000);
}

}  // namespace
}  // namespace grophecy::dataflow
