// Tests for the .gskel text format: parsing, error reporting with line
// numbers, serialization, and round-trip equivalence for every bundled
// workload (parse(serialize(app)) reproduces the same structure and the
// same transfer plan / projection inputs).
#include <gtest/gtest.h>

#include <fstream>

#include "brs/footprint.h"
#include "dataflow/usage_analyzer.h"
#include "skeleton/parse.h"
#include "skeleton/serialize.h"
#include "workloads/workload.h"

namespace grophecy::skeleton {
namespace {

constexpr const char* kVectorAdd = R"(
# the paper's motivating example (section II-B)
app vector_add
array a f32[1024]
array b f32[1024]
array c f32[1024]

kernel add
  parallel for i in 0..1024
  stmt flops=1
    load a[i]
    load b[i]
    store c[i]
)";

TEST(Parse, VectorAddStructure) {
  const AppSkeleton app = parse_skeleton(kVectorAdd);
  EXPECT_EQ(app.name, "vector_add");
  EXPECT_EQ(app.iterations, 1);
  ASSERT_EQ(app.arrays.size(), 3u);
  ASSERT_EQ(app.kernels.size(), 1u);
  const KernelSkeleton& kernel = app.kernels[0];
  EXPECT_EQ(kernel.name, "add");
  ASSERT_EQ(kernel.loops.size(), 1u);
  EXPECT_TRUE(kernel.loops[0].parallel);
  EXPECT_EQ(kernel.loops[0].trip_count(), 1024);
  ASSERT_EQ(kernel.body.size(), 1u);
  EXPECT_EQ(kernel.body[0].refs.size(), 3u);
  EXPECT_DOUBLE_EQ(kernel.total_flops(), 1024.0);
}

TEST(Parse, StencilShiftsAndAttributes) {
  const AppSkeleton app = parse_skeleton(R"(
app stencil iterations=7
array in f32[64][64]
array out f32[64][64]
array scratch f32[64][64] temporary
kernel step syncs=2
  parallel for i in 0..64
  parallel for j in 0..64
  stmt flops=6 special=1.5
    load in[i-1][j]
    load in[i+1][j]
    load in[i][2*j+3]
    store out[i][j]
    store scratch[i][j]
)");
  EXPECT_EQ(app.iterations, 7);
  EXPECT_TRUE(app.is_temporary(app.array_id("scratch")));
  const KernelSkeleton& kernel = app.kernels[0];
  EXPECT_EQ(kernel.explicit_syncs, 2);
  const Statement& stmt = kernel.body[0];
  EXPECT_DOUBLE_EQ(stmt.special_ops, 1.5);
  EXPECT_EQ(stmt.refs[0].subscripts[0].constant, -1);
  EXPECT_EQ(stmt.refs[1].subscripts[0].constant, 1);
  EXPECT_EQ(stmt.refs[2].subscripts[1].coefficient(1), 2);
  EXPECT_EQ(stmt.refs[2].subscripts[1].constant, 3);
}

TEST(Parse, GatherWithHiddenDimsAndDeps) {
  const AppSkeleton app = parse_skeleton(R"(
app spmm
array vals f64[512] sparse
array B c128[64][128]
array C c128[64][128]
kernel k
  parallel for i in 0..64
  parallel for j in 0..128
  for k in 0..8
  stmt flops=4
    load vals[?] deps=i,k
    load B[?][j] deps=i,k
  stmt flops=2 depth=2
    load C[i][j]
    store C[i][j]
)");
  const KernelSkeleton& kernel = app.kernels[0];
  const ArrayRef& vals_ref = kernel.body[0].refs[0];
  EXPECT_EQ(vals_ref.indirect_dims, std::vector<int>{0});
  EXPECT_EQ(vals_ref.indirect_deps, (std::vector<LoopId>{0, 2}));
  const ArrayRef& b_ref = kernel.body[0].refs[1];
  EXPECT_EQ(b_ref.indirect_dims, std::vector<int>{0});
  EXPECT_EQ(b_ref.subscripts[1].coefficient(1), 1);
  EXPECT_EQ(kernel.body[1].depth, 2);
  EXPECT_TRUE(app.array(app.array_id("vals")).sparse);
}

TEST(Parse, FullyIndirectRefs) {
  const AppSkeleton app = parse_skeleton(R"(
app g
array a f32[100]
kernel k
  parallel for i in 0..10
  stmt flops=1
    load_indirect a
    store_indirect a
)");
  EXPECT_TRUE(app.kernels[0].body[0].refs[0].indirect);
  EXPECT_EQ(app.kernels[0].body[0].refs[1].kind, RefKind::kStore);
}

TEST(Parse, LoopStepAndNegativeBounds) {
  const AppSkeleton app = parse_skeleton(R"(
app s
array a f32[100]
kernel k
  for i in -8..8 step 2
  stmt flops=1
    load a[i+8]
)");
  const Loop& loop = app.kernels[0].loops[0];
  EXPECT_EQ(loop.lower, -8);
  EXPECT_EQ(loop.upper, 8);
  EXPECT_EQ(loop.step, 2);
  EXPECT_EQ(loop.trip_count(), 8);
}

struct BadDoc {
  const char* text;
  int line;
  const char* needle;
};

// Without this, gtest puts the struct's raw bytes, pointers included,
// into the test name, which then moves with the load address.
void PrintTo(const BadDoc& doc, std::ostream* os) {
  *os << "line " << doc.line << ": " << doc.needle;
}

class ParseErrors : public ::testing::TestWithParam<BadDoc> {};

TEST_P(ParseErrors, ReportsLineAndMessage) {
  const BadDoc& doc = GetParam();
  try {
    parse_skeleton(doc.text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), doc.line) << e.what();
    EXPECT_NE(std::string(e.what()).find(doc.needle), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Docs, ParseErrors,
    ::testing::Values(
        BadDoc{"", 1, "empty document"},
        BadDoc{"array a f32[4]", 1, "expected 'app'"},
        BadDoc{"app x\napp y", 2, "duplicate"},
        BadDoc{"app x\nkernel k\narray a f32[4]", 3, "before kernels"},
        BadDoc{"app x\narray a zz[4]", 2, "unknown element type"},
        BadDoc{"app x\narray a f32[4]\nkernel k\n  parallel for i in 0..4\n"
               "  stmt flops=1\n    load b[i]",
               6, "unknown array"},
        BadDoc{"app x\narray a f32[4]\nkernel k\n  parallel for i in 0..4\n"
               "    load a[i]",
               5, "before any 'stmt'"},
        BadDoc{"app x\narray a f32[4]\nkernel k\n  parallel for i in 0..4\n"
               "  stmt flops=1\n    load a[q]",
               6, "unknown loop"},
        BadDoc{"app x\narray a f32[4]\nkernel k\n  for i in 0-4\n", 4,
               "lo..hi"},
        BadDoc{"app x\narray a f32[4]\nkernel k\n  for i in 0..4\n"
               "  stmt flops=1\n    load a[i] deps=i",
               6, "deps= requires"},
        BadDoc{"app x\narray a f32[4]\nkernel k\nfrobnicate", 4,
               "unknown directive"}),
    [](const ::testing::TestParamInfo<BadDoc>& param_info) {
      return "doc_" + std::to_string(param_info.index);
    });

TEST(Serialize, VectorAddRoundTripsTextually) {
  const AppSkeleton app = parse_skeleton(kVectorAdd);
  const std::string text = serialize_skeleton(app);
  const AppSkeleton again = parse_skeleton(text);
  EXPECT_EQ(serialize_skeleton(again), text);
}

TEST(Serialize, RoundTripPreservesEveryWorkload) {
  for (const auto& workload : workloads::paper_workloads()) {
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      const AppSkeleton original = workload->make_skeleton(size, 3);
      const AppSkeleton reparsed =
          parse_skeleton(serialize_skeleton(original));

      // Textual fixed point.
      EXPECT_EQ(serialize_skeleton(reparsed), serialize_skeleton(original))
          << workload->name() << " " << size.label;

      // Semantic equivalence: identical transfer plans and footprints.
      dataflow::UsageAnalyzer analyzer;
      const auto plan_a = analyzer.analyze(original);
      const auto plan_b = analyzer.analyze(reparsed);
      EXPECT_EQ(plan_a.input_bytes(), plan_b.input_bytes());
      EXPECT_EQ(plan_a.output_bytes(), plan_b.output_bytes());
      ASSERT_EQ(original.kernels.size(), reparsed.kernels.size());
      for (std::size_t k = 0; k < original.kernels.size(); ++k) {
        const auto fp_a =
            brs::kernel_footprint(original, original.kernels[k]);
        const auto fp_b =
            brs::kernel_footprint(reparsed, reparsed.kernels[k]);
        EXPECT_EQ(fp_a.dynamic_loads, fp_b.dynamic_loads);
        EXPECT_EQ(fp_a.unique_bytes(), fp_b.unique_bytes());
        EXPECT_DOUBLE_EQ(fp_a.flops, fp_b.flops);
        EXPECT_EQ(fp_a.dynamic_random_gathers, fp_b.dynamic_random_gathers);
      }
    }
  }
}

TEST(ParseErrors, AreTypedParseErrors) {
  // skeleton::ParseError slots into the framework taxonomy: catchable as
  // grophecy::ParseError and as grophecy::Error with kind kParse.
  try {
    parse_skeleton("app x\nfrobnicate");
    FAIL() << "expected an error";
  } catch (const grophecy::Error& e) {
    EXPECT_EQ(e.kind(), grophecy::ErrorKind::kParse);
    EXPECT_FALSE(e.retryable());
  }
  try {
    parse_skeleton("app x\narray a f32[nope]");
    FAIL() << "expected an error";
  } catch (const grophecy::ParseError& e) {
    EXPECT_TRUE(e.file().empty());  // in-memory document, no file
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(e.message().find("expected integer"), std::string::npos);
  }
}

TEST(ParseErrors, OutOfRangeValuesAreParseErrors) {
  // Values that overflow the numeric types must be diagnosed, not UB.
  EXPECT_THROW(parse_skeleton("app x\narray a f32[99999999999999999999]"),
               ParseError);
  EXPECT_THROW(parse_skeleton("app x iterations=99999999999999999999"),
               ParseError);
  EXPECT_THROW(
      parse_skeleton("app x\narray a f32[4]\nkernel k\n"
                     "  for i in 0..4\n  stmt flops=1e999"),
      ParseError);
}

TEST(ParseFile, MissingFileThrows) {
  EXPECT_THROW(parse_skeleton_file("/nonexistent/path.gskel"), ParseError);
}

TEST(ParseFile, ErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "bad_app.gskel";
  {
    std::ofstream out(path);
    out << "app x\narray a zz[4]\n";
  }
  try {
    parse_skeleton_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(e.message().find("unknown element type"), std::string::npos);
  }
  try {
    parse_skeleton_file("/nonexistent/path.gskel");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "/nonexistent/path.gskel");
    EXPECT_EQ(e.line(), 0);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

}  // namespace
}  // namespace grophecy::skeleton
