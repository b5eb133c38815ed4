// Tests for the discrete-event fluid GPU simulator, including
// cross-validation against the wave-based simulator: two independent
// implementations of "the machine" must agree closely for regular kernels
// and diverge in the documented directions for tails and jitter.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/grophecy.h"
#include "gpumodel/explorer.h"
#include "hw/registry.h"
#include "sim/event_sim.h"
#include "sim/gpu_sim.h"
#include "skeleton/builder.h"
#include "support/reference_event_sim.h"
#include "util/contracts.h"
#include "workloads/srad.h"
#include "workloads/workload.h"

namespace grophecy::sim {
namespace {

using gpumodel::KernelCharacteristics;
using gpumodel::Variant;

hw::GpuSpec g80() { return hw::anl_eureka().gpu; }

skeleton::AppSkeleton streaming_app(std::int64_t n) {
  skeleton::AppBuilder builder("stream");
  const auto a = builder.array("a", skeleton::ElemType::kF32, {n});
  const auto b = builder.array("b", skeleton::ElemType::kF32, {n});
  skeleton::KernelBuilder& k = builder.kernel("copy");
  k.parallel_loop("i", n);
  k.statement(1.0).load(a, {k.var("i")}).store(b, {k.var("i")});
  return builder.build();
}

KernelCharacteristics characterize_first(const skeleton::AppSkeleton& app,
                                         int block = 256) {
  Variant variant;
  variant.block_size = block;
  return gpumodel::characterize(app, app.kernels[0], variant, g80());
}

TEST(EventSim, EngineFlagSelectsReferenceWithIdenticalExpectation) {
  const auto app = streaming_app(1 << 20);
  const KernelCharacteristics kc = characterize_first(app);
  EventGpuSimulator fast(g80(), 1);
  ReferenceEventSimulator reference(g80(), 1);
  // Jitter-free results are bitwise-equal across engines (the dedicated
  // equivalence suite covers randomized shapes and the jittered paths).
  EXPECT_EQ(fast.expected_launch(kc).total_s,
            reference.expected_launch(kc).total_s);
}

TEST(EventSim, Deterministic) {
  EventGpuSimulator sim(g80(), 1);
  const auto app = streaming_app(1 << 20);
  const KernelCharacteristics kc = characterize_first(app);
  EXPECT_DOUBLE_EQ(sim.expected_launch(kc).total_s,
                   sim.expected_launch(kc).total_s);
  EventGpuSimulator a(g80(), 9), b(g80(), 9);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.run_launch_seconds(kc), b.run_launch_seconds(kc));
}

TEST(EventSim, AgreesWithWaveSimOnLargeRegularKernels) {
  // Homogeneous bandwidth-bound kernel, thousands of blocks: greedy vs
  // wave scheduling converge.
  GpuSimulator wave(g80(), 1);
  EventGpuSimulator fluid(g80(), 1);
  for (std::int64_t n : {1 << 20, 1 << 22, 1 << 24}) {
    const auto app = streaming_app(n);
    const KernelCharacteristics kc = characterize_first(app);
    const double wave_time = wave.expected_launch(kc).total_s;
    const double fluid_time = fluid.expected_launch(kc).total_s;
    EXPECT_NEAR(fluid_time, wave_time, wave_time * 0.15) << n;
  }
}

TEST(EventSim, AgreesOnThePaperWorkloads) {
  GpuSimulator wave(g80(), 1);
  EventGpuSimulator fluid(g80(), 1);
  for (const auto& workload : workloads::paper_workloads()) {
    const auto size = workload->paper_data_sizes().back();
    const skeleton::AppSkeleton app = workload->make_skeleton(size, 1);
    gpumodel::Explorer explorer(g80());
    for (const skeleton::KernelSkeleton& kernel : app.kernels) {
      const auto best = explorer.best(app, kernel);
      const double wave_time =
          wave.expected_launch(best.characteristics).total_s;
      const double fluid_time =
          fluid.expected_launch(best.characteristics).total_s;
      EXPECT_NEAR(fluid_time, wave_time, wave_time * 0.30)
          << workload->name() << "/" << kernel.name;
    }
  }
}

TEST(EventSim, GreedySchedulerBeatsWavesOnPartialTails) {
  // One block beyond a full wave: the wave model charges a whole second
  // wave; the greedy scheduler backfills and finishes sooner.
  GpuSimulator wave(g80(), 1);
  EventGpuSimulator fluid(g80(), 1);
  const auto probe = characterize_first(streaming_app(1 << 20));
  const auto occ = gpumodel::compute_occupancy(
      g80(), 256, probe.regs_per_thread, probe.smem_per_block_bytes);
  const std::int64_t wave_threads =
      static_cast<std::int64_t>(occ.blocks_per_sm) * g80().num_sms * 256;
  const auto spill = characterize_first(streaming_app(wave_threads + 256));
  const double wave_body = wave.expected_launch(spill).total_s -
                           g80().kernel_launch_overhead_s;
  const double fluid_body = fluid.expected_launch(spill).total_s -
                            g80().kernel_launch_overhead_s;
  // The tail block backfills immediately and gets the whole chip's
  // bandwidth, but its latency floor does not shrink — so the greedy win
  // is real yet bounded.
  EXPECT_LT(fluid_body, wave_body * 0.95);
  const double full_body = fluid.expected_launch(
                               characterize_first(streaming_app(
                                   wave_threads))).total_s -
                           g80().kernel_launch_overhead_s;
  EXPECT_GT(fluid_body, full_body);
}

TEST(EventSim, JitterAveragesNearExpectation) {
  EventGpuSimulator sim(g80(), 7);
  const auto app = streaming_app(1 << 20);
  const KernelCharacteristics kc = characterize_first(app);
  const double expected = sim.expected_launch(kc).total_s;
  EXPECT_NEAR(sim.measure_launch_seconds(kc, 300), expected,
              expected * 0.03);
}

TEST(EventSim, PluggedIntoTheProjectionPipeline) {
  core::ProjectionOptions detailed;
  detailed.detailed_sim = true;
  core::Grophecy wave_engine(hw::anl_eureka());
  core::Grophecy fluid_engine(hw::anl_eureka(), detailed);

  const skeleton::AppSkeleton app = workloads::srad_skeleton(1024, 1);
  const core::ProjectionReport wave_report = wave_engine.project(app);
  const core::ProjectionReport fluid_report = fluid_engine.project(app);
  // Same predictions (model side untouched); measured kernels close.
  EXPECT_DOUBLE_EQ(wave_report.predicted_kernel_s,
                   fluid_report.predicted_kernel_s);
  EXPECT_NEAR(fluid_report.measured_kernel_s, wave_report.measured_kernel_s,
              wave_report.measured_kernel_s * 0.30);
  // And the paper's conclusion is simulator-agnostic.
  EXPECT_LT(fluid_report.speedup_error_both_pct(),
            fluid_report.speedup_error_kernel_only_pct());
}

// The per-run loop every parallel measurement must reproduce: one
// run_launch_seconds call per run on the calling thread.
double per_run_loop(EventGpuSimulator& sim, const KernelCharacteristics& kc,
                    int runs) {
  return sim.KernelTimer::measure_launch_seconds(kc, runs);
}

// measure_launch_seconds runs big measurements on helper threads, each
// run starting from a stream computed up front; the mean must be the
// per-run loop's, bit for bit, and leave the stream in the same place.
TEST(EventGpuSimulator, MeasureEqualsThePerRunLoopBitForBit) {
  // 64 and 65 blocks stay below the helper threshold at every run count;
  // 4,096 and 4,097 cross it from two runs on. A jittered run draws
  // num_blocks + 1 normals, so with an even block count the Box-Muller
  // cache carries across run boundaries.
  const KernelCharacteristics kernels[] = {
      characterize_first(streaming_app(64 * 256)),
      characterize_first(streaming_app(65 * 256)),
      characterize_first(streaming_app(4096 * 256)),
      characterize_first(streaming_app(4097 * 256))};
  ASSERT_EQ(kernels[1].num_blocks, 65);
  ASSERT_EQ(kernels[3].num_blocks, 4097);
  hw::GpuSpec quiet = g80();
  quiet.timing_jitter_sigma = 0.0;
  for (const hw::GpuSpec& gpu : {g80(), quiet}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xFEEDULL}) {
      EventGpuSimulator parallel(gpu, seed);
      EventGpuSimulator serial(gpu, seed);
      for (const KernelCharacteristics& kc : kernels) {
        for (const int runs : {1, 3, 10, 17}) {
          // Measure once as the stream stands and once after a run that
          // draws an odd count (65, or 1 without jitter), so every
          // measurement starts both with and without a cached normal.
          for (const bool flip : {false, true}) {
            if (flip) {
              ASSERT_EQ(parallel.run_launch_seconds(kernels[0]),
                        serial.run_launch_seconds(kernels[0]));
            }
            const double mean = parallel.measure_launch_seconds(kc, runs);
            const double oracle = per_run_loop(serial, kc, runs);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(mean),
                      std::bit_cast<std::uint64_t>(oracle))
                << "sigma " << gpu.timing_jitter_sigma << ", seed " << seed
                << ", blocks " << kc.num_blocks << ", runs " << runs
                << ", flip " << flip;
          }
        }
      }
      EXPECT_EQ(parallel.run_launch_seconds(kernels[0]),
                serial.run_launch_seconds(kernels[0]));
    }
  }
}

// A kernel no block of which fits on an SM fails every run; the
// measurement must throw the per-run loop's first failure and leave the
// stream where that loop leaves it.
TEST(EventGpuSimulator, InfeasibleKernelThrowsLikeThePerRunLoop) {
  KernelCharacteristics kc = characterize_first(streaming_app(4096 * 256));
  kc.regs_per_thread = 64;  // 256 threads x 64 registers > one SM's file
  ASSERT_EQ(gpumodel::compute_occupancy(g80(), kc.variant.block_size,
                                        kc.regs_per_thread,
                                        kc.smem_per_block_bytes)
                .blocks_per_sm,
            0);
  EventGpuSimulator parallel(g80(), 3);
  EventGpuSimulator serial(g80(), 3);
  auto failure = [&](auto&& measure) -> std::string {
    try {
      (void)measure();
    } catch (const ContractViolation& error) {
      return error.what();
    }
    return "no exception";
  };
  const std::string oracle =
      failure([&] { return per_run_loop(serial, kc, 10); });
  EXPECT_NE(oracle, "no exception");
  EXPECT_EQ(failure([&] { return parallel.measure_launch_seconds(kc, 10); }),
            oracle);
  const KernelCharacteristics feasible =
      characterize_first(streaming_app(1 << 20));
  EXPECT_EQ(parallel.run_launch_seconds(feasible),
            serial.run_launch_seconds(feasible));
}

// Concurrent measurements share one process-wide helper budget, so most
// calls here get no helper and run the per-run loop; every mean must
// still equal the loop's.
TEST(EventGpuSimulator, ConcurrentMeasurementsMatchThePerRunLoop) {
  constexpr int kThreads = 8;
  constexpr int kMeasurements = 3;
  constexpr int kRuns = 10;
  const KernelCharacteristics kc = characterize_first(streaming_app(1 << 20));
  double oracle[kThreads][kMeasurements] = {};
  for (int t = 0; t < kThreads; ++t) {
    EventGpuSimulator serial(g80(), 100 + static_cast<std::uint64_t>(t));
    for (double& mean : oracle[t]) mean = per_run_loop(serial, kc, kRuns);
  }
  double measured[kThreads][kMeasurements] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      EventGpuSimulator sim(g80(), 100 + static_cast<std::uint64_t>(t));
      for (double& mean : measured[t])
        mean = sim.measure_launch_seconds(kc, kRuns);
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    for (int m = 0; m < kMeasurements; ++m)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(measured[t][m]),
                std::bit_cast<std::uint64_t>(oracle[t][m]))
          << "thread " << t << ", measurement " << m;
}

}  // namespace
}  // namespace grophecy::sim
