// Tests for the data-usage analyzer (paper §III-B): read-before-write
// detection, inter-kernel reuse, temporary hints, the conservative sparse
// rule, iteration independence — and the paper-tied checks that the four
// workloads' transfer volumes match Table I.
#include <gtest/gtest.h>

#include "dataflow/usage_analyzer.h"
#include "skeleton/builder.h"
#include "util/units.h"
#include "workloads/workload.h"

namespace grophecy::dataflow {
namespace {

using skeleton::AffineExpr;
using skeleton::AppBuilder;
using skeleton::AppSkeleton;
using skeleton::ArrayId;
using skeleton::ElemType;
using skeleton::KernelBuilder;

const Transfer* find_transfer(const std::vector<Transfer>& list,
                              const std::string& name) {
  for (const Transfer& t : list)
    if (t.array_name == name) return &t;
  return nullptr;
}

TEST(UsageAnalyzer, InputOutputClassification) {
  AppBuilder builder("io");
  const ArrayId in = builder.array("in", ElemType::kF32, {128});
  const ArrayId out = builder.array("out", ElemType::kF32, {128});
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 128);
  k.statement(1.0).load(in, {k.var("i")}).store(out, {k.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  ASSERT_EQ(plan.host_to_device.size(), 1u);
  ASSERT_EQ(plan.device_to_host.size(), 1u);
  EXPECT_EQ(plan.host_to_device[0].array, in);
  EXPECT_EQ(plan.device_to_host[0].array, out);
  EXPECT_EQ(plan.input_bytes(), 512u);
  EXPECT_EQ(plan.output_bytes(), 512u);
  EXPECT_EQ(plan.transfer_count(), 2u);
}

TEST(UsageAnalyzer, ProducerConsumerArrayNeverCrossesTheBus) {
  // Kernel 1 writes mid; kernel 2 reads mid: the data stays on the GPU.
  AppBuilder builder("chain");
  const ArrayId in = builder.array("in", ElemType::kF32, {64});
  const ArrayId mid = builder.array("mid", ElemType::kF32, {64});
  const ArrayId out = builder.array("out", ElemType::kF32, {64});
  KernelBuilder& k1 = builder.kernel("produce");
  k1.parallel_loop("i", 64);
  k1.statement(1.0).load(in, {k1.var("i")}).store(mid, {k1.var("i")});
  KernelBuilder& k2 = builder.kernel("consume");
  k2.parallel_loop("i", 64);
  k2.statement(1.0).load(mid, {k2.var("i")}).store(out, {k2.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  EXPECT_EQ(find_transfer(plan.host_to_device, "mid"), nullptr);
  // mid is written and not hinted temporary -> still copied back.
  EXPECT_NE(find_transfer(plan.device_to_host, "mid"), nullptr);
  EXPECT_NE(find_transfer(plan.host_to_device, "in"), nullptr);
}

TEST(UsageAnalyzer, PartialWriteShrinksTheTransferToTheUncoveredHalf) {
  // Kernel 1 writes the first half; kernel 2 reads everything: only the
  // unwritten second half must be transferred in (section subtraction —
  // the paper's "read but not previously written" taken per piece).
  AppBuilder builder("partial");
  const ArrayId a = builder.array("a", ElemType::kF32, {100});
  const ArrayId out = builder.array("out", ElemType::kF32, {100});
  KernelBuilder& k1 = builder.kernel("half");
  k1.parallel_loop("i", 50);
  k1.statement(1.0).store(a, {k1.var("i")});
  KernelBuilder& k2 = builder.kernel("all");
  k2.parallel_loop("i", 100);
  k2.statement(1.0).load(a, {k2.var("i")}).store(out, {k2.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  const Transfer* t = find_transfer(plan.host_to_device, "a");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->bytes, 200u);  // elements [50, 99] only
  EXPECT_EQ(t->section.dims[0].lower, 50);
  EXPECT_EQ(t->section.dims[0].upper, 99);
}

TEST(UsageAnalyzer, CoveredReadNeedsNoInput) {
  // Kernel 1 writes all of a; kernel 2 reads a subrange: covered.
  AppBuilder builder("covered");
  const ArrayId a = builder.array("a", ElemType::kF32, {100});
  KernelBuilder& k1 = builder.kernel("fill");
  k1.parallel_loop("i", 100);
  k1.statement(1.0).store(a, {k1.var("i")});
  KernelBuilder& k2 = builder.kernel("read");
  k2.parallel_loop("i", 40);
  k2.statement(1.0).load(a, {k2.var("i", 1, 10)});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  EXPECT_EQ(find_transfer(plan.host_to_device, "a"), nullptr);
}

TEST(UsageAnalyzer, InPlaceUpdateIsBothInputAndOutput) {
  AppBuilder builder("inplace");
  const ArrayId a = builder.array("a", ElemType::kF32, {64});
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 64);
  k.statement(1.0).load(a, {k.var("i")}).store(a, {k.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  EXPECT_NE(find_transfer(plan.host_to_device, "a"), nullptr);
  EXPECT_NE(find_transfer(plan.device_to_host, "a"), nullptr);
}

TEST(UsageAnalyzer, TemporaryHintSkipsCopyBack) {
  AppBuilder builder("tmp");
  const ArrayId in = builder.array("in", ElemType::kF32, {64});
  const ArrayId scratch = builder.array("scratch", ElemType::kF32, {64});
  builder.temporary(scratch);
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 64);
  k.statement(1.0).load(in, {k.var("i")}).store(scratch, {k.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  EXPECT_EQ(find_transfer(plan.device_to_host, "scratch"), nullptr);
  EXPECT_TRUE(plan.device_to_host.empty());
}

TEST(UsageAnalyzer, SparseArraysUseConservativeWholeArrayRule) {
  AppBuilder builder("sparse");
  const ArrayId vals =
      builder.array("vals", ElemType::kF64, {1000}, /*sparse=*/true);
  const ArrayId out = builder.array("out", ElemType::kF32, {8});
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0)
      .load(vals, {AffineExpr::make_constant(0)})
      .store(out, {k.var("i")});
  const AppSkeleton app = builder.build();

  const TransferPlan plan = UsageAnalyzer().analyze(app);
  const Transfer* t = find_transfer(plan.host_to_device, "vals");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->bytes, 8000u);  // every element, though only [0] is named
}

TEST(UsageAnalyzer, PlanIsIndependentOfIterationCount) {
  // Paper §IV-B: input moves once before the first iteration, output once
  // after the last, so the plan must not scale with iterations.
  for (const auto& workload : workloads::paper_workloads()) {
    const auto sizes = workload->paper_data_sizes();
    const AppSkeleton once = workload->make_skeleton(sizes.front(), 1);
    const AppSkeleton many = workload->make_skeleton(sizes.front(), 64);
    const TransferPlan plan_once = UsageAnalyzer().analyze(once);
    const TransferPlan plan_many = UsageAnalyzer().analyze(many);
    EXPECT_EQ(plan_once.input_bytes(), plan_many.input_bytes())
        << workload->name();
    EXPECT_EQ(plan_once.output_bytes(), plan_many.output_bytes())
        << workload->name();
  }
}

TEST(UsageAnalyzer, ClassifySummarizesRoles) {
  AppBuilder builder("roles");
  const ArrayId in = builder.array("in", ElemType::kF32, {8});
  const ArrayId tmp = builder.array("tmp", ElemType::kF32, {8});
  builder.temporary(tmp);
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 8);
  k.statement(1.0).load(in, {k.var("i")}).store(tmp, {k.var("i")});
  const AppSkeleton app = builder.build();

  const auto usages = UsageAnalyzer().classify(app);
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_TRUE(usages[0].read_before_write);
  EXPECT_FALSE(usages[0].written);
  EXPECT_TRUE(usages[1].written);
  EXPECT_TRUE(usages[1].temporary);
}

// --- paper-tied transfer volumes (Table I, decimal MB, ±7%) ---

struct TableOneVolume {
  const char* workload;
  std::size_t size_index;
  double input_mb;
  double output_mb;
};

// Without this, gtest puts the struct's raw bytes, the workload pointer
// included, into the test name, which then moves with the load address.
void PrintTo(const TableOneVolume& v, std::ostream* os) {
  *os << v.input_mb << " MB in, " << v.output_mb << " MB out";
}

class TransferVolumes : public ::testing::TestWithParam<TableOneVolume> {};

TEST_P(TransferVolumes, MatchTableOne) {
  const TableOneVolume expected = GetParam();
  const auto all = workloads::paper_workloads();
  const workloads::Workload* workload = nullptr;
  for (const auto& w : all)
    if (w->name() == expected.workload) workload = w.get();
  ASSERT_NE(workload, nullptr);

  const auto sizes = workload->paper_data_sizes();
  const AppSkeleton app =
      workload->make_skeleton(sizes[expected.size_index], 1);
  const TransferPlan plan = UsageAnalyzer().analyze(app);

  const double in_mb = util::bytes_to_mb(
      static_cast<double>(plan.input_bytes()));
  const double out_mb = util::bytes_to_mb(
      static_cast<double>(plan.output_bytes()));
  EXPECT_NEAR(in_mb, expected.input_mb, expected.input_mb * 0.07);
  EXPECT_NEAR(out_mb, expected.output_mb, expected.output_mb * 0.07);
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, TransferVolumes,
    ::testing::Values(TableOneVolume{"CFD", 0, 6.3, 1.9},
                      TableOneVolume{"CFD", 1, 12.6, 3.7},
                      TableOneVolume{"CFD", 2, 15.1, 4.4},
                      TableOneVolume{"HotSpot", 1, 2.0, 1.0},
                      TableOneVolume{"HotSpot", 2, 8.0, 4.0},
                      TableOneVolume{"SRAD", 0, 4.2, 4.2},
                      TableOneVolume{"SRAD", 1, 16.8, 16.8},
                      TableOneVolume{"SRAD", 2, 67.1, 67.1},
                      TableOneVolume{"Stassuij", 0, 8.7, 4.3}),
    [](const ::testing::TestParamInfo<TableOneVolume>& param_info) {
      return std::string(param_info.param.workload) + "_" +
             std::to_string(param_info.param.size_index);
    });

}  // namespace
}  // namespace grophecy::dataflow
