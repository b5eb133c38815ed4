// Equivalence suite: the cohort event engine vs the reference engine in
// tests/support. Jitter-free results must match BITWISE (the cohort engine
// replays the reference's exact floating-point expressions in the same
// event order); jittered results must match per-run to rounding accuracy
// (same placement policy, same draw order, different but equivalent
// arithmetic) and distributionally.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "gpumodel/characteristics.h"
#include "gpumodel/occupancy.h"
#include "hw/registry.h"
#include "sim/cohort_sim.h"
#include "sim/event_sim.h"
#include "support/reference_event_sim.h"
#include "util/rng.h"

namespace grophecy::sim {
namespace {

using gpumodel::AccessClass;
using gpumodel::KernelCharacteristics;
using gpumodel::MemAccess;

hw::GpuSpec g80() { return hw::anl_eureka().gpu; }

/// Random but always-valid characteristics: varying access classes, block
/// sizes, degenerate zero-demand blocks, and partial final waves.
KernelCharacteristics random_kc(util::Rng& rng) {
  static const int kBlockSizes[] = {32, 64, 96, 128, 192, 256};
  static const AccessClass kClasses[] = {
      AccessClass::kCoalesced, AccessClass::kStrided, AccessClass::kScattered,
      AccessClass::kUniform};

  KernelCharacteristics kc;
  kc.kernel_name = "random";
  kc.variant.block_size =
      kBlockSizes[rng.uniform_int(0, 5)];
  kc.regs_per_thread = static_cast<std::uint32_t>(rng.uniform_int(4, 20));
  kc.smem_per_block_bytes =
      static_cast<std::uint32_t>(rng.uniform_int(0, 2) * 1024);
  // Biased toward partial final waves: small counts and counts just off a
  // multiple of the chip capacity both occur.
  kc.num_blocks = rng.uniform_int(1, 3000);
  kc.total_threads = kc.num_blocks * kc.variant.block_size;
  if (!rng.bernoulli(0.2)) {  // 20%: zero compute (degenerate candidates)
    kc.flops_per_thread = rng.uniform(1.0, 200.0);
    kc.special_per_thread = rng.uniform(0.0, 8.0);
    kc.index_insts_per_thread = rng.uniform(0.0, 20.0);
  }
  kc.syncs_per_thread = static_cast<int>(rng.uniform_int(0, 2));
  const int accesses = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < accesses; ++i) {
    MemAccess access;
    access.cls = kClasses[rng.uniform_int(0, 3)];
    access.is_load = rng.bernoulli(0.7);
    access.stride_elems = rng.uniform_int(1, 8);
    access.elem_bytes = rng.bernoulli(0.5) ? 4 : 8;
    access.count_per_thread = rng.uniform(0.25, 4.0);
    access.gathered_stream =
        access.cls == AccessClass::kCoalesced && rng.bernoulli(0.2);
    kc.accesses.push_back(access);
  }
  return kc;
}

bool feasible(const KernelCharacteristics& kc, const hw::GpuSpec& gpu) {
  return gpumodel::compute_occupancy(gpu, kc.variant.block_size,
                                     kc.regs_per_thread,
                                     kc.smem_per_block_bytes)
             .blocks_per_sm > 0;
}

TEST(SimEquivalence, JitterFreeIsBitwiseEqualOnRandomKernels) {
  const hw::GpuSpec gpu = g80();
  EventGpuSimulator cohort(gpu, 1);
  ReferenceEventSimulator reference(gpu, 1);
  util::Rng rng(2024);
  int tested = 0;
  for (int i = 0; i < 200; ++i) {
    const KernelCharacteristics kc = random_kc(rng);
    if (!feasible(kc, gpu)) continue;
    ++tested;
    const double fast = cohort.expected_launch(kc).total_s;
    const double slow = reference.expected_launch(kc).total_s;
    // EXPECT_EQ on doubles is exact equality — bitwise, not approximate.
    EXPECT_EQ(fast, slow) << "kernel " << i << " blocks=" << kc.num_blocks
                          << " block_size=" << kc.variant.block_size;
  }
  EXPECT_GT(tested, 150);  // the generator must not collapse to infeasible
}

TEST(SimEquivalence, JitterFreeCoversPartialAndDegenerateShapes) {
  const hw::GpuSpec gpu = g80();
  EventGpuSimulator cohort(gpu, 1);
  ReferenceEventSimulator reference(gpu, 1);

  KernelCharacteristics kc;
  kc.kernel_name = "shapes";
  kc.variant.block_size = 128;
  kc.regs_per_thread = 10;
  kc.flops_per_thread = 50.0;
  MemAccess access;
  kc.accesses.push_back(access);

  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu, kc.variant.block_size, kc.regs_per_thread, 0);
  const std::int64_t capacity =
      static_cast<std::int64_t>(occ.blocks_per_sm) * gpu.num_sms;
  // One block, one wave minus one, exactly one wave, one wave plus one,
  // a ragged tail, and a large multiple.
  for (const std::int64_t blocks :
       {std::int64_t{1}, capacity - 1, capacity, capacity + 1,
        7 * capacity + 3, 64 * capacity}) {
    kc.num_blocks = blocks;
    EXPECT_EQ(cohort.expected_launch(kc).total_s,
              reference.expected_launch(kc).total_s)
        << "blocks=" << blocks;
  }

  // Fully degenerate kernel: zero demands everywhere. Both engines retire
  // every block instantly and report just the launch overhead.
  KernelCharacteristics zero;
  zero.kernel_name = "degenerate";
  zero.variant.block_size = 64;
  zero.regs_per_thread = 8;
  zero.num_blocks = 5000;
  EXPECT_EQ(cohort.expected_launch(zero).total_s,
            reference.expected_launch(zero).total_s);
  EXPECT_EQ(cohort.expected_launch(zero).total_s,
            gpu.kernel_launch_overhead_s);
}

TEST(SimEquivalence, JitteredRunsTrackTheReferencePerRun) {
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "jittered";
  kc.variant.block_size = 256;
  kc.num_blocks = 2000;
  kc.flops_per_thread = 80.0;
  MemAccess access;
  access.count_per_thread = 2.0;
  kc.accesses.push_back(access);

  // 12 registers fit two blocks per SM (the general loop); 32 registers
  // use all 8,192 of an SM's registers, so one block fits (the solo path).
  for (const auto& [regs, blocks_per_sm] :
       {std::pair{12u, 2}, std::pair{32u, 1}}) {
    kc.regs_per_thread = regs;
    ASSERT_EQ(gpumodel::compute_occupancy(gpu, kc.variant.block_size, regs, 0)
                  .blocks_per_sm,
              blocks_per_sm);
    // Same seed => same per-block draw sequence (identical placement
    // order), so each run pair simulates the same jittered workload. The
    // engines' arithmetic differs (drain-level coordinates vs per-event
    // decrements), so allow rounding-scale drift only.
    EventGpuSimulator cohort(gpu, 99);
    ReferenceEventSimulator reference(gpu, 99);
    for (int run = 0; run < 20; ++run) {
      const double fast = cohort.run_launch_seconds(kc);
      const double slow = reference.run_launch_seconds(kc);
      EXPECT_NEAR(fast, slow, std::abs(slow) * 1e-9)
          << "regs " << regs << " run " << run;
    }
  }
}

TEST(SimEquivalence, JitteredDistributionsAgree) {
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "distribution";
  kc.variant.block_size = 128;
  kc.regs_per_thread = 10;
  kc.num_blocks = 500;
  kc.flops_per_thread = 40.0;
  MemAccess access;
  access.cls = AccessClass::kStrided;
  access.stride_elems = 4;
  kc.accesses.push_back(access);

  // Different seeds per engine: only the distributions should agree.
  auto stats = [&](KernelTimer& sim) {
    double mean = 0.0, m2 = 0.0;
    const int n = 150;
    for (int i = 1; i <= n; ++i) {
      const double x = sim.run_launch_seconds(kc);
      const double delta = x - mean;
      mean += delta / i;
      m2 += delta * (x - mean);
    }
    return std::pair<double, double>{mean, std::sqrt(m2 / (n - 1))};
  };
  EventGpuSimulator cohort(gpu, 7);
  ReferenceEventSimulator reference(gpu, 1234);
  const auto [fast_mean, fast_sd] = stats(cohort);
  const auto [slow_mean, slow_sd] = stats(reference);
  EXPECT_NEAR(fast_mean, slow_mean, 0.03 * slow_mean);
  EXPECT_NEAR(fast_sd, slow_sd, 0.5 * slow_sd);
}

TEST(SimEquivalence, ContinuousJitterGivesEveryBlockItsOwnCohort) {
  // No two blocks share a cohort: each non-degenerate block opens its own
  // and retires alone, over one placement batch or many.
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "singletons";
  kc.variant.block_size = 128;
  kc.regs_per_thread = 10;
  kc.flops_per_thread = 60.0;
  MemAccess access;
  kc.accesses.push_back(access);

  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu, kc.variant.block_size, kc.regs_per_thread, 0);
  const std::int64_t capacity =
      static_cast<std::int64_t>(occ.blocks_per_sm) * gpu.num_sms;
  // Exactly one wave (a single placement batch), then a ragged multiple.
  for (const std::int64_t blocks : {capacity, 3 * capacity + 7}) {
    kc.num_blocks = blocks;
    EventGpuSimulator continuous(gpu, 21);
    (void)continuous.run_launch_seconds(kc);
    EXPECT_EQ(continuous.last_stats().blocks, blocks);
    EXPECT_EQ(continuous.last_stats().cohorts,
              static_cast<std::uint64_t>(blocks));
  }
}

TEST(SimEquivalence, JitteredRunsAreDeterministicAndIsolated) {
  // Same seed => bitwise-identical run sequence, and the engine-owned
  // scratch a launch leaves behind (heaps, cohort slots, rate tables) must
  // not leak into the next launch of another shape.
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "iso";
  kc.variant.block_size = 128;
  kc.regs_per_thread = 10;
  kc.num_blocks = 2500;
  kc.flops_per_thread = 30.0;
  MemAccess access;
  kc.accesses.push_back(access);

  KernelCharacteristics other = kc;
  other.kernel_name = "iso-other";
  other.variant.block_size = 64;
  other.num_blocks = 700;

  EventGpuSimulator first(gpu, 31);
  EventGpuSimulator second(gpu, 31);
  for (int run = 0; run < 5; ++run) {
    const double a = first.run_launch_seconds(kc);
    const double b = second.run_launch_seconds(kc);
    EXPECT_EQ(a, b) << "run " << run;
    const double oa = first.run_launch_seconds(other);
    const double ob = second.run_launch_seconds(other);
    EXPECT_EQ(oa, ob) << "run " << run;
  }

  // An engine churned by other shapes answers bitwise like a fresh one
  // given the same draw stream.
  const double sigma = gpu.timing_jitter_sigma;
  CohortEngine churned;
  util::Rng churn_rng(77);
  KernelCharacteristics solo = kc;
  solo.variant.block_size = 256;
  solo.regs_per_thread = 32;  // one block per SM: the solo path
  for (const KernelCharacteristics* shape : {&other, &solo, &other})
    (void)churned.simulate_jittered(*shape, gpu, sigma, churn_rng);
  CohortEngine fresh;
  util::Rng churned_rng(31);
  util::Rng fresh_rng(31);
  EXPECT_EQ(churned.simulate_jittered(kc, gpu, sigma, churned_rng),
            fresh.simulate_jittered(kc, gpu, sigma, fresh_rng));
}

TEST(SimEquivalence, CohortStatsReflectTheLastSimulation) {
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics kc;
  kc.kernel_name = "stats";
  kc.variant.block_size = 128;
  kc.regs_per_thread = 10;
  kc.num_blocks = 1000;
  kc.flops_per_thread = 10.0;

  EventGpuSimulator sim(gpu, 3);
  (void)sim.expected_launch(kc);
  const CohortSimStats expected_stats = sim.last_stats();
  EXPECT_EQ(expected_stats.blocks, kc.num_blocks);
  EXPECT_GT(expected_stats.generations, 0u);
  EXPECT_GT(expected_stats.events, 0u);
  // Closed-form generations: far fewer events than the reference's
  // per-block event count.
  EXPECT_LT(expected_stats.events,
            static_cast<std::uint64_t>(kc.num_blocks));

  (void)sim.run_launch_seconds(kc);
  const CohortSimStats jittered_stats = sim.last_stats();
  EXPECT_EQ(jittered_stats.blocks, kc.num_blocks);
  EXPECT_GT(jittered_stats.cohorts, 0u);
  EXPECT_EQ(jittered_stats.generations, 0u);
}

// A jittered launch draws exactly one normal per block, degenerate
// zero-demand blocks included, on either placement path.
// EventGpuSimulator::measure_launch_seconds computes where each of its
// parallel runs starts from this count.
TEST(CohortEngine, JitteredRunDrawsOneNormalPerBlock) {
  const hw::GpuSpec gpu = g80();
  KernelCharacteristics busy;
  busy.kernel_name = "busy";
  busy.flops_per_thread = 40.0;
  busy.accesses.push_back(MemAccess{});
  KernelCharacteristics zero;  // no compute, memory or floor demand
  zero.kernel_name = "zero";

  // 10 registers fit several 128-thread blocks per SM (the general loop);
  // 32 registers at 256 threads fit one (the solo path).
  for (const auto& [block_size, regs, solo] :
       {std::tuple{128, 10u, false}, std::tuple{256, 32u, true}}) {
    const gpumodel::Occupancy occ =
        gpumodel::compute_occupancy(gpu, block_size, regs, 0);
    ASSERT_EQ(occ.blocks_per_sm == 1, solo);
    const std::int64_t capacity =
        static_cast<std::int64_t>(occ.blocks_per_sm) * gpu.num_sms;
    for (KernelCharacteristics kc : {busy, zero}) {
      kc.variant.block_size = block_size;
      kc.regs_per_thread = regs;
      for (const std::int64_t blocks :
           {std::int64_t{1}, std::int64_t{2}, capacity - 1, capacity,
            3 * capacity + 7}) {
        kc.num_blocks = blocks;
        for (const bool cached : {false, true}) {
          util::Rng simulated(5);
          util::Rng skipped(5);
          if (cached) {
            (void)simulated.normal();
            (void)skipped.normal();
          }
          CohortEngine engine;
          (void)engine.simulate_jittered(kc, gpu, gpu.timing_jitter_sigma,
                                         simulated);
          // The zero kernel's blocks all retire at placement.
          EXPECT_EQ(engine.stats().cohorts,
                    kc.kernel_name == "zero"
                        ? 0u
                        : static_cast<std::uint64_t>(blocks));
          skipped.discard_normals(static_cast<std::uint64_t>(blocks));
          for (int i = 0; i < 2; ++i)
            ASSERT_EQ(simulated.normal(), skipped.normal())
                << kc.kernel_name << " solo=" << solo << " blocks=" << blocks
                << " cached=" << cached;
          ASSERT_EQ(simulated.next_u64(), skipped.next_u64())
              << kc.kernel_name << " solo=" << solo << " blocks=" << blocks
              << " cached=" << cached;
        }
      }
    }
  }
}

}  // namespace
}  // namespace grophecy::sim
