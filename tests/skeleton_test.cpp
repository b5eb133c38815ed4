// Unit tests for the code-skeleton IR: affine expressions, loops,
// statement depths, the fluent builders, structural validation, and the
// pretty printer.
#include <gtest/gtest.h>

#include "skeleton/builder.h"
#include "skeleton/print.h"
#include "skeleton/skeleton.h"
#include "util/contracts.h"
#include "util/table.h"

namespace grophecy::skeleton {
namespace {

TEST(ElemType, SizesAndNames) {
  EXPECT_EQ(elem_size_bytes(ElemType::kF32), 4u);
  EXPECT_EQ(elem_size_bytes(ElemType::kF64), 8u);
  EXPECT_EQ(elem_size_bytes(ElemType::kI32), 4u);
  EXPECT_EQ(elem_size_bytes(ElemType::kI64), 8u);
  EXPECT_EQ(elem_size_bytes(ElemType::kComplexF32), 8u);
  EXPECT_EQ(elem_size_bytes(ElemType::kComplexF64), 16u);
  EXPECT_EQ(elem_type_name(ElemType::kComplexF64), "c128");
}

TEST(ArrayDecl, CountsAndBytes) {
  ArrayDecl decl{"m", ElemType::kF64, {4, 8, 2}, false};
  EXPECT_EQ(decl.element_count(), 64);
  EXPECT_EQ(decl.bytes(), 512u);
}

TEST(AffineExpr, BuildEvaluateShift) {
  const AffineExpr c = AffineExpr::make_constant(7);
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(c.evaluate(std::vector<std::int64_t>{}), 7);

  const AffineExpr e = AffineExpr::make_var(1, 3, 10);  // 3*loop1 + 10
  EXPECT_EQ(e.coefficient(1), 3);
  EXPECT_EQ(e.coefficient(0), 0);
  const std::vector<std::int64_t> values{100, 5};
  EXPECT_EQ(e.evaluate(values), 25);
  EXPECT_EQ(e.shifted(-2).evaluate(values), 23);
}

TEST(Loop, TripCounts) {
  Loop l{"i", 0, 10, 1, true};
  EXPECT_EQ(l.trip_count(), 10);
  l.step = 3;
  EXPECT_EQ(l.trip_count(), 4);  // 0,3,6,9
  l.upper = 0;
  EXPECT_EQ(l.trip_count(), 0);
}

AppSkeleton two_kernel_app(std::int64_t n) {
  AppBuilder app("demo");
  const ArrayId a = app.array("a", ElemType::kF32, {n});
  const ArrayId b = app.array("b", ElemType::kF32, {n});
  KernelBuilder& k1 = app.kernel("produce");
  k1.parallel_loop("i", n);
  k1.statement(2.0).load(a, {k1.var("i")}).store(b, {k1.var("i")});
  KernelBuilder& k2 = app.kernel("consume");
  k2.parallel_loop("i", n);
  k2.statement(1.0).load(b, {k2.var("i")}).store(a, {k2.var("i")});
  return app.build();
}

TEST(Builder, BuildsValidTwoKernelApp) {
  const AppSkeleton app = two_kernel_app(64);
  EXPECT_EQ(app.kernels.size(), 2u);
  EXPECT_EQ(app.arrays.size(), 2u);
  EXPECT_EQ(app.array_id("b"), 1);
  EXPECT_EQ(app.kernels[0].total_iterations(), 64);
  EXPECT_EQ(app.kernels[0].parallel_iterations(), 64);
  EXPECT_DOUBLE_EQ(app.kernels[0].total_flops(), 128.0);
}

TEST(Builder, ManyKernelsKeepBuildersValid) {
  // KernelBuilder handles must survive vector reallocation.
  AppBuilder app("many");
  const ArrayId a = app.array("a", ElemType::kF32, {16});
  std::vector<KernelBuilder*> builders;
  for (int k = 0; k < 20; ++k)
    builders.push_back(&app.kernel(util::strfmt("k%d", k)));
  for (KernelBuilder* k : builders) {
    k->parallel_loop("i", 16);
    k->statement(1.0).load(a, {k->var("i")});
  }
  const AppSkeleton skel = app.build();
  EXPECT_EQ(skel.kernels.size(), 20u);
  for (const KernelSkeleton& kernel : skel.kernels)
    EXPECT_EQ(kernel.body.size(), 1u);
}

TEST(Builder, StatementDepthControlsIterations) {
  AppBuilder app("depth");
  const ArrayId a = app.array("a", ElemType::kF32, {8});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8).loop("j", 5);
  k.statement(1.0).at_depth(1).load(a, {k.var("i")});
  k.statement(1.0);
  const AppSkeleton skel = app.build();
  EXPECT_EQ(skel.kernels[0].statement_iterations(skel.kernels[0].body[0]), 8);
  EXPECT_EQ(skel.kernels[0].statement_iterations(skel.kernels[0].body[1]),
            40);
  EXPECT_DOUBLE_EQ(skel.kernels[0].total_flops(), 48.0);
}

TEST(Builder, TemporariesAndIterations) {
  AppBuilder app("t");
  const ArrayId a = app.array("a", ElemType::kF32, {8});
  const ArrayId tmp = app.array("tmp", ElemType::kF32, {8});
  app.temporary(tmp).iterations(5);
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0).load(a, {k.var("i")}).store(tmp, {k.var("i")});
  const AppSkeleton skel = app.build();
  EXPECT_TRUE(skel.is_temporary(tmp));
  EXPECT_FALSE(skel.is_temporary(a));
  EXPECT_EQ(skel.iterations, 5);
}

TEST(Builder, RejectsUnknownLoopName) {
  AppBuilder app("bad");
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  EXPECT_THROW(k.var("nope"), ContractViolation);
}

TEST(Builder, RejectsRefBeforeStatement) {
  AppBuilder app("bad");
  const ArrayId a = app.array("a", ElemType::kF32, {8});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  EXPECT_THROW(k.load(a, {k.var("i")}), ContractViolation);
}

TEST(Builder, RejectsLoopAfterStatement) {
  AppBuilder app("bad");
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0);
  EXPECT_THROW(k.loop("j", 4), ContractViolation);
}

TEST(Validate, RejectsSubscriptArityMismatch) {
  AppBuilder app("bad");
  const ArrayId a = app.array("a", ElemType::kF32, {8, 8});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0).load(a, {k.var("i")});  // 1 subscript for 2D array
  EXPECT_THROW(app.build(), ContractViolation);
}

TEST(Validate, RejectsDeepRefAtShallowStatement) {
  AppBuilder app("bad");
  const ArrayId a = app.array("a", ElemType::kF32, {8});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8).loop("j", 4);
  k.statement(1.0).load(a, {k.var("j")}).at_depth(1);
  EXPECT_THROW(app.build(), ContractViolation);
}

TEST(Validate, RejectsGatherDepsWithoutDims) {
  AppBuilder app("bad");
  const ArrayId a = app.array("a", ElemType::kF32, {8});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0);
  k.load_gather(a, {AffineExpr::make_constant(0)}, /*indirect_dims=*/{},
                /*dep_loops=*/{"i"});
  EXPECT_THROW(app.build(), ContractViolation);
}

TEST(Print, RendersLoopsRefsAndMarkers) {
  AppBuilder builder("printable");
  const ArrayId a = builder.array("img", ElemType::kF32, {8, 8});
  const ArrayId t = builder.array("tmp", ElemType::kF32, {8, 8});
  builder.temporary(t);
  KernelBuilder& k = builder.kernel("stencil");
  k.parallel_loop("i", 8).parallel_loop("j", 8);
  k.statement(3.0)
      .load(a, {k.var("i").shifted(-1), k.var("j")})
      .store(t, {k.var("i"), k.var("j")});
  const AppSkeleton app = builder.build();

  const std::string text = to_string(app);
  EXPECT_NE(text.find("app printable"), std::string::npos);
  EXPECT_NE(text.find("parallel_for i"), std::string::npos);
  EXPECT_NE(text.find("img[i-1][j]"), std::string::npos);
  EXPECT_NE(text.find("store tmp[i][j]"), std::string::npos);
  EXPECT_NE(text.find("temporary"), std::string::npos);
}

TEST(Print, AffineExpressionForms) {
  AppBuilder builder("e");
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 8).loop("j", 4);
  const AppSkeleton app = builder.build();
  const KernelSkeleton& kernel = app.kernels[0];
  EXPECT_EQ(to_string(AffineExpr::make_constant(3), kernel), "3");
  EXPECT_EQ(to_string(AffineExpr::make_var(0), kernel), "i");
  EXPECT_EQ(to_string(AffineExpr::make_var(1, 2, 1), kernel), "2*j+1");
  EXPECT_EQ(to_string(AffineExpr::make_var(0, -1), kernel), "-i");
}

}  // namespace
}  // namespace grophecy::skeleton
