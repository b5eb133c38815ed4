// Tests for the GPU-side modeling stack: occupancy, coalescing math,
// characteristic synthesis (classification, staging, fusion), the
// analytical kernel-time model, and the transformation explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "gpumodel/characteristics.h"
#include "gpumodel/explorer.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/occupancy.h"
#include "hw/registry.h"
#include "sim/cohort_sim.h"
#include "skeleton/builder.h"
#include "util/contracts.h"
#include "util/units.h"
#include "workloads/workload.h"

namespace grophecy::gpumodel {
namespace {

using skeleton::AffineExpr;
using skeleton::AppBuilder;
using skeleton::AppSkeleton;
using skeleton::ArrayId;
using skeleton::ElemType;
using skeleton::KernelBuilder;

hw::GpuSpec g80() { return hw::anl_eureka().gpu; }

TEST(Occupancy, ThreadLimited) {
  // G80: 768 threads/SM; 256-thread blocks -> 3 blocks, 24 warps.
  const Occupancy occ = compute_occupancy(g80(), 256, 10, 0);
  EXPECT_EQ(occ.blocks_per_sm, 3);
  EXPECT_EQ(occ.active_warps, 24);
  EXPECT_DOUBLE_EQ(occ.fraction, 1.0);
  EXPECT_STREQ(occ.limiter, "threads");
}

TEST(Occupancy, BlockCountLimited) {
  // 64-thread blocks: the 8-blocks/SM cap binds before 768 threads.
  const Occupancy occ = compute_occupancy(g80(), 64, 10, 0);
  EXPECT_EQ(occ.blocks_per_sm, 8);
  EXPECT_EQ(occ.active_warps, 16);
  EXPECT_STREQ(occ.limiter, "blocks");
}

TEST(Occupancy, RegisterLimited) {
  // 32 regs x 256 threads = 8192 regs = exactly one block per SM.
  const Occupancy occ = compute_occupancy(g80(), 256, 32, 0);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_STREQ(occ.limiter, "regs");
}

TEST(Occupancy, SharedMemoryLimitedAndInfeasible) {
  const Occupancy occ = compute_occupancy(g80(), 128, 10, 9 * 1024);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_STREQ(occ.limiter, "smem");
  const Occupancy none = compute_occupancy(g80(), 128, 10, 20 * 1024);
  EXPECT_EQ(none.blocks_per_sm, 0);
}

TEST(WarpAccessCost, CoalescedStridedScatteredUniform) {
  const hw::GpuSpec gpu = g80();
  MemAccess access;
  access.elem_bytes = 4;

  access.cls = AccessClass::kCoalesced;
  WarpAccessCost cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 1.0);   // 32 x 4B = one 128B segment
  EXPECT_DOUBLE_EQ(cost.bytes_moved, 128.0);

  access.cls = AccessClass::kStrided;
  access.stride_elems = 2;
  cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 2.0);   // spans 256B
  EXPECT_DOUBLE_EQ(cost.bytes_moved, 256.0);

  access.stride_elems = 1000;                  // fully spread
  cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 32.0);

  access.cls = AccessClass::kScattered;
  cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 32.0);
  EXPECT_DOUBLE_EQ(cost.bytes_moved, 32.0 * 32.0);  // 32B granules

  access.cls = AccessClass::kUniform;
  cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 1.0);
}

TEST(WarpAccessCost, WideElementsNeedMoreSegments) {
  const hw::GpuSpec gpu = g80();
  MemAccess access;
  access.cls = AccessClass::kCoalesced;
  access.elem_bytes = 16;  // complex double
  const WarpAccessCost cost = warp_access_cost(access, gpu);
  EXPECT_DOUBLE_EQ(cost.transactions, 4.0);  // 512B / 128B
  EXPECT_DOUBLE_EQ(cost.bytes_moved, 512.0);
}

AppSkeleton saxpy_app(std::int64_t n) {
  AppBuilder app("saxpy");
  const ArrayId x = app.array("x", ElemType::kF32, {n});
  const ArrayId y = app.array("y", ElemType::kF32, {n});
  KernelBuilder& k = app.kernel("saxpy");
  k.parallel_loop("i", n);
  k.statement(2.0).load(x, {k.var("i")}).load(y, {k.var("i")}).store(
      y, {k.var("i")});
  return app.build();
}

AppSkeleton stencil_app(std::int64_t n) {
  AppBuilder app("stencil");
  const ArrayId in = app.array("in", ElemType::kF32, {n, n});
  const ArrayId out = app.array("out", ElemType::kF32, {n, n});
  KernelBuilder& k = app.kernel("stencil");
  k.parallel_loop("i", n).parallel_loop("j", n);
  const AffineExpr i = k.var("i"), j = k.var("j");
  k.statement(6.0)
      .load(in, {i, j})
      .load(in, {i.shifted(-1), j})
      .load(in, {i.shifted(1), j})
      .load(in, {i, j.shifted(-1)})
      .load(in, {i, j.shifted(1)})
      .store(out, {i, j});
  return app.build();
}

TEST(Characteristics, SaxpyGeometryAndClassification) {
  const AppSkeleton app = saxpy_app(10000);
  Variant variant;
  variant.block_size = 256;
  const KernelCharacteristics kc =
      characterize(app, app.kernels[0], variant, g80());
  EXPECT_EQ(kc.total_threads, 10000);
  EXPECT_EQ(kc.num_blocks, 40);  // ceil(10000/256)
  EXPECT_DOUBLE_EQ(kc.work_per_thread, 1.0);
  EXPECT_DOUBLE_EQ(kc.flops_per_thread, 2.0);
  ASSERT_EQ(kc.accesses.size(), 3u);
  for (const MemAccess& access : kc.accesses)
    EXPECT_EQ(access.cls, AccessClass::kCoalesced);
  EXPECT_EQ(kc.syncs_per_thread, 0);
  EXPECT_EQ(kc.smem_per_block_bytes, 0u);
}

TEST(Characteristics, ColumnAccessOfRowMajorIsStrided) {
  AppBuilder app("col");
  const ArrayId a = app.array("a", ElemType::kF32, {64, 64});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 64);
  // a[i][0]: adjacent threads stride a whole row (64 elements).
  k.statement(1.0).load(a, {k.var("i"), AffineExpr::make_constant(0)});
  const AppSkeleton skel = app.build();
  const KernelCharacteristics kc =
      characterize(skel, skel.kernels[0], Variant{}, g80());
  ASSERT_EQ(kc.accesses.size(), 1u);
  EXPECT_EQ(kc.accesses[0].cls, AccessClass::kStrided);
  EXPECT_EQ(kc.accesses[0].stride_elems, 64);
}

TEST(Characteristics, IndirectThreadDependentIsScattered) {
  AppBuilder app("gather");
  const ArrayId a = app.array("a", ElemType::kF32, {5, 1000});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 1000);
  k.statement(1.0);
  k.load_gather(a, {AffineExpr::make_constant(0), AffineExpr::make_constant(0)},
                /*indirect_dims=*/{1}, /*dep_loops=*/{"i"});
  const AppSkeleton skel = app.build();
  const KernelCharacteristics kc =
      characterize(skel, skel.kernels[0], Variant{}, g80());
  EXPECT_EQ(kc.accesses[0].cls, AccessClass::kScattered);
}

TEST(Characteristics, GatherUniformAcrossWarpIsNotScattered) {
  // CSR pattern: hidden index depends on a sequential loop only; the warp
  // (thread loop j) sees a uniform value / a coalesced row.
  AppBuilder app("csr");
  const ArrayId vals = app.array("vals", ElemType::kF64, {512}, true);
  const ArrayId b = app.array("B", ElemType::kComplexF64, {64, 256});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", 64).parallel_loop("j", 256).loop("kk", 4);
  k.statement(2.0);
  k.load_gather(vals, {AffineExpr::make_constant(0)}, {0}, {"i", "kk"});
  k.load_gather(b, {AffineExpr::make_constant(0), k.var("j")}, {0},
                {"i", "kk"});
  const AppSkeleton skel = app.build();
  const KernelCharacteristics kc =
      characterize(skel, skel.kernels[0], Variant{}, g80());
  ASSERT_EQ(kc.accesses.size(), 2u);
  EXPECT_EQ(kc.accesses[0].cls, AccessClass::kUniform);
  EXPECT_EQ(kc.accesses[1].cls, AccessClass::kCoalesced);
  EXPECT_TRUE(kc.accesses[1].gathered_stream);
  EXPECT_FALSE(kc.accesses[0].gathered_stream);
}

TEST(Characteristics, SmemStagingCollapsesStencilLoads) {
  const AppSkeleton app = stencil_app(512);
  Variant plain;
  plain.block_size = 256;
  Variant staged = plain;
  staged.smem_staging = true;

  const KernelCharacteristics kc_plain =
      characterize(app, app.kernels[0], plain, g80());
  const KernelCharacteristics kc_staged =
      characterize(app, app.kernels[0], staged, g80());

  EXPECT_EQ(kc_plain.accesses.size(), 6u);  // 5 loads + 1 store
  // Staged: 1 cooperative load + 1 store.
  EXPECT_EQ(kc_staged.accesses.size(), 2u);
  EXPECT_GT(kc_staged.smem_per_block_bytes, 0u);
  EXPECT_EQ(kc_staged.syncs_per_thread, 1);
  // Halo amplification: (16+2)(16+2)/(16*16) = 1.27 loads per thread.
  const MemAccess* coop = nullptr;
  for (const MemAccess& access : kc_staged.accesses)
    if (access.is_load) coop = &access;
  ASSERT_NE(coop, nullptr);
  EXPECT_NEAR(coop->count_per_thread, 18.0 * 18.0 / 256.0, 1e-9);
}

TEST(Characteristics, FusionAddsRedundancyAndScalesWork) {
  const AppSkeleton app = stencil_app(512);
  Variant fused;
  fused.block_size = 256;
  fused.smem_staging = true;
  fused.fuse_iterations = 4;
  const KernelCharacteristics kc =
      characterize(app, app.kernels[0], fused, g80());
  EXPECT_GT(kc.redundant_work_fraction, 0.0);
  const KernelCharacteristics kc1 = characterize(
      app, app.kernels[0],
      Variant{.block_size = 256, .smem_staging = true}, g80());
  EXPECT_NEAR(kc.flops_per_thread,
              kc1.flops_per_thread * 4.0 *
                  (1.0 + kc.redundant_work_fraction),
              1e-9);
}

TEST(Characteristics, RejectsBadVariants) {
  const AppSkeleton app = saxpy_app(100);
  Variant bad;
  bad.block_size = 8;  // below warp size
  EXPECT_THROW(characterize(app, app.kernels[0], bad, g80()),
               ContractViolation);
  bad = Variant{};
  bad.unroll = 0;
  EXPECT_THROW(characterize(app, app.kernels[0], bad, g80()),
               ContractViolation);
}

TEST(KernelModel, BandwidthBoundSaxpyMatchesHandMath) {
  const AppSkeleton app = saxpy_app(1 << 22);
  const hw::GpuSpec gpu = g80();
  KernelTimeModel model(gpu);
  Variant variant;
  variant.block_size = 256;
  const KernelCharacteristics kc =
      characterize(app, app.kernels[0], variant, gpu);
  const KernelTimeBreakdown time = model.project(kc);
  EXPECT_STREQ(time.bound, "bandwidth");
  // 3 accesses x 4B x N at the calibrated streaming efficiency.
  const double traffic = 3.0 * 4.0 * (1 << 22);
  const double expected =
      traffic / (gpu.mem_bandwidth_gbps * util::kGB *
                 model.options().streaming_bw_efficiency);
  EXPECT_NEAR(time.bandwidth_s, expected, expected * 0.01);
  EXPECT_NEAR(time.total_s, expected + gpu.kernel_launch_overhead_s,
              expected * 0.01);
}

TEST(KernelModel, TimeScalesLinearlyWithDataSize) {
  KernelTimeModel model(g80());
  Variant variant;
  auto body_time = [&](std::int64_t n) {
    const AppSkeleton app = saxpy_app(n);
    const KernelTimeBreakdown t =
        model.project(characterize(app, app.kernels[0], variant, g80()));
    return t.total_s - t.launch_s;
  };
  EXPECT_NEAR(body_time(1 << 22) / body_time(1 << 20), 4.0, 0.05);
}

TEST(KernelModel, InfeasibleVariantReported) {
  const AppSkeleton app = stencil_app(64);
  KernelTimeModel model(g80());
  KernelCharacteristics kc =
      characterize(app, app.kernels[0], Variant{}, g80());
  kc.smem_per_block_bytes = 64 * 1024;  // larger than the SM
  const KernelTimeBreakdown time = model.project(kc);
  EXPECT_FALSE(time.feasible);
  EXPECT_TRUE(std::isinf(time.total_s));
}

TEST(KernelModel, OneInstanceServesConcurrentThreads) {
  // KernelTimeModel holds no mutable state, so threads may share one
  // const instance (the --tsan pass checks the sharing). The inputs are
  // every variant explore() enumerates for the paper kernels at every
  // paper size.
  const hw::GpuSpec gpu = g80();
  const Explorer explorer(gpu);
  std::vector<KernelCharacteristics> variants;
  for (const auto& workload : workloads::paper_workloads()) {
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      const AppSkeleton app = workload->make_skeleton(size, 1);
      for (const skeleton::KernelSkeleton& kernel : app.kernels)
        for (const ProjectedKernel& projected : explorer.explore(app, kernel))
          variants.push_back(projected.characteristics);
    }
  }
  ASSERT_FALSE(variants.empty());

  const KernelTimeModel model(gpu);
  const auto project_all = [&] {
    std::vector<double> totals;
    totals.reserve(variants.size());
    for (const KernelCharacteristics& kc : variants)
      totals.push_back(model.project(kc).total_s);
    return totals;
  };
  const std::vector<double> serial = project_all();

  std::vector<std::vector<double>> concurrent(8);
  std::vector<std::thread> threads;
  for (std::vector<double>& totals : concurrent)
    threads.emplace_back([&] { totals = project_all(); });
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<double>& totals : concurrent) {
    ASSERT_EQ(totals.size(), serial.size());
    EXPECT_EQ(std::memcmp(totals.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0);
  }
}

TEST(Explorer, LoopInterchangeMakesLoopOrderIrrelevant) {
  // The same 2D copy written with both loop orders: the "wrong" order
  // (outer parallel loop indexes the contiguous dimension) must be
  // rescued by parallel-loop interchange and cost the same as the natural
  // order.
  auto copy_app = [](bool natural_order) {
    AppBuilder app(natural_order ? "natural" : "wrong");
    const ArrayId src = app.array("src", ElemType::kF32, {1024, 1024});
    const ArrayId dst = app.array("dst", ElemType::kF32, {1024, 1024});
    KernelBuilder& k = app.kernel("copy");
    // Natural: i rows, j columns (j innermost -> coalesced by default).
    // Wrong: j declared first, i innermost -> default mapping strides.
    k.parallel_loop(natural_order ? "i" : "j", 1024)
        .parallel_loop(natural_order ? "j" : "i", 1024);
    const AffineExpr i = k.var("i"), j = k.var("j");
    k.statement(1.0).load(src, {i, j}).store(dst, {i, j});
    return app.build();
  };

  Explorer explorer(g80());
  const AppSkeleton natural = copy_app(true);
  const AppSkeleton wrong = copy_app(false);
  const ProjectedKernel best_natural =
      explorer.best(natural, natural.kernels[0]);
  const ProjectedKernel best_wrong = explorer.best(wrong, wrong.kernels[0]);

  EXPECT_FALSE(best_natural.variant.swap_parallel_loops);
  EXPECT_TRUE(best_wrong.variant.swap_parallel_loops);
  EXPECT_NEAR(best_wrong.time.total_s, best_natural.time.total_s,
              best_natural.time.total_s * 0.01);

  // Without interchange the wrong order pays the strided penalty.
  ExplorerOptions no_swap;
  no_swap.explore_loop_interchange = false;
  Explorer crippled(g80(), no_swap);
  EXPECT_GT(crippled.best(wrong, wrong.kernels[0]).time.total_s,
            best_wrong.time.total_s * 1.5);
}

TEST(Explorer, PicksSmemStagingForStencils) {
  const AppSkeleton app = stencil_app(1024);
  Explorer explorer(g80());
  const ProjectedKernel best = explorer.best(app, app.kernels[0]);
  EXPECT_TRUE(best.variant.smem_staging);
  EXPECT_TRUE(best.time.feasible);
}

TEST(Explorer, BestIsNoWorseThanEveryVariant) {
  const AppSkeleton app = stencil_app(256);
  Explorer explorer(g80());
  const ProjectedKernel best = explorer.best(app, app.kernels[0]);
  for (const ProjectedKernel& candidate :
       explorer.explore(app, app.kernels[0]))
    EXPECT_LE(best.time.total_s, candidate.time.total_s);
}

TEST(Explorer, RestrictingTheSpaceCannotImproveTheBest) {
  const AppSkeleton app = stencil_app(1024);
  Explorer full(g80());
  ExplorerOptions narrow_options;
  narrow_options.block_sizes = {64};
  narrow_options.explore_smem_staging = false;
  narrow_options.unroll_factors = {1};
  Explorer narrow(g80(), narrow_options);
  EXPECT_LE(full.best(app, app.kernels[0]).time.total_s,
            narrow.best(app, app.kernels[0]).time.total_s);
}

TEST(WarpDemands, OneFormulaFeedsBothSimulators) {
  // gpumodel::warp_demands is the single source of per-warp demand math
  // for the wave simulator AND the event simulator; this test pins its
  // outputs to the documented formulas and pins the event simulator's
  // block demands to exact compositions of them.
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "pin";
  kc.variant.block_size = 200;  // ragged so warps_per_block rounds up
  kc.regs_per_thread = 10;
  kc.num_blocks = 64;
  kc.flops_per_thread = 10.0;
  kc.special_per_thread = 2.0;
  kc.index_insts_per_thread = 3.0;
  kc.syncs_per_thread = 1;
  MemAccess coalesced;
  coalesced.count_per_thread = 2.0;
  MemAccess strided;
  strided.cls = AccessClass::kStrided;
  strided.stride_elems = 4;
  kc.accesses = {coalesced, strided};

  const WarpDemands wd = warp_demands(kc, gpu);
  EXPECT_EQ(wd.warps_per_block,
            (200 + gpu.warp_size - 1) / gpu.warp_size);
  EXPECT_DOUBLE_EQ(wd.issue_cycles,
                   static_cast<double>(gpu.warp_size) / gpu.cores_per_sm);
  EXPECT_DOUBLE_EQ(kSpecialInstCost, 4.0);
  EXPECT_DOUBLE_EQ(wd.insts_per_thread,
                   (10.0 / gpu.flops_per_core_per_cycle +
                    2.0 * kSpecialInstCost + 3.0) *
                       gpu.instruction_overhead);
  EXPECT_DOUBLE_EQ(wd.compute_cycles,
                   wd.insts_per_thread * wd.issue_cycles);

  const WarpAccessCost c0 = warp_access_cost(coalesced, gpu);
  const WarpAccessCost c1 = warp_access_cost(strided, gpu);
  EXPECT_DOUBLE_EQ(wd.traffic_bytes,
                   2.0 * c0.bytes_moved +
                       c1.bytes_moved * gpu.uncoalesced_replay_factor);
  EXPECT_DOUBLE_EQ(wd.mem_insts, 3.0);
  EXPECT_DOUBLE_EQ(wd.latency_cycles, 3.0 * gpu.dram_latency_cycles);

  // The event simulator's block demands compose exactly these numbers.
  const Occupancy occ = compute_occupancy(gpu, 200, 10, 0);
  const sim::BlockDemands bd = sim::block_demands(kc, gpu, occ);
  EXPECT_DOUBLE_EQ(bd.compute_cycles,
                   wd.warps_per_block * wd.insts_per_thread *
                       wd.issue_cycles);
  EXPECT_DOUBLE_EQ(bd.memory_bytes, wd.warps_per_block * wd.traffic_bytes);
  EXPECT_GT(bd.floor_s, 0.0);
}

AppSkeleton memo_matmul_app(std::int64_t n) {
  AppBuilder app("memo_matmul");
  const ArrayId a = app.array("a", ElemType::kF32, {n, n});
  const ArrayId b = app.array("b", ElemType::kF32, {n, n});
  const ArrayId c = app.array("c", ElemType::kF32, {n, n});
  KernelBuilder& k = app.kernel("matmul");
  k.parallel_loop("i", n).parallel_loop("j", n).loop("k", n);
  AffineExpr i = k.var("i"), j = k.var("j"), kk = k.var("k");
  k.statement(2.0).load(a, {i, kk}).load(b, {kk, j}).store(c, {i, j});
  return app.build();
}

TEST(ExplorerMemo, BestMatchesExploreMinElement) {
  // best() prunes and memoizes; it must still pick exactly the variant
  // min_element over explore() picks, including the first-of-equals
  // tie-break, with a bitwise-identical projected time.
  const AppSkeleton app = memo_matmul_app(512);
  Explorer explorer(g80());
  for (int fuse : {1, 2}) {
    const std::vector<ProjectedKernel> all =
        explorer.explore(app, app.kernels[0], fuse);
    ASSERT_FALSE(all.empty());
    const auto fastest = std::min_element(
        all.begin(), all.end(),
        [](const ProjectedKernel& a, const ProjectedKernel& b) {
          return a.time.total_s < b.time.total_s;
        });
    const ProjectedKernel best = explorer.best(app, app.kernels[0], fuse);
    EXPECT_EQ(best.time.total_s, fastest->time.total_s);
    EXPECT_TRUE(best.variant == fastest->variant);
  }
}

TEST(ExplorerMemo, ReusesOccupancyPrunesAndRepeatsItsAnswer) {
  const AppSkeleton app = memo_matmul_app(512);
  Explorer explorer(g80());

  const ProjectedKernel first = explorer.best(app, app.kernels[0]);
  const ExploreStats after_first = explorer.stats();
  EXPECT_GT(after_first.variants, 0u);
  // Many variants share a (block_size, regs, smem) triple.
  EXPECT_GT(after_first.occupancy_hits, 0u);
  // Dominance pruning fires once an incumbent exists: dominated variants
  // never pay for a full projection.
  EXPECT_GT(after_first.pruned, 0u);

  const ProjectedKernel second = explorer.best(app, app.kernels[0]);
  EXPECT_EQ(first.time.total_s, second.time.total_s);
  EXPECT_TRUE(first.variant == second.variant);
}

TEST(Variant, DescribeMentionsEveryAxis) {
  Variant v{.block_size = 128, .smem_staging = true, .unroll = 4,
            .fuse_iterations = 2};
  const std::string text = v.describe();
  EXPECT_NE(text.find("block=128"), std::string::npos);
  EXPECT_NE(text.find("smem"), std::string::npos);
  EXPECT_NE(text.find("unroll=4"), std::string::npos);
  EXPECT_NE(text.find("fuse=2"), std::string::npos);
  EXPECT_TRUE(v == v);
  EXPECT_FALSE(v == Variant{});
}

}  // namespace
}  // namespace grophecy::gpumodel
