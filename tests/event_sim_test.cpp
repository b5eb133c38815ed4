// Tests for the discrete-event fluid GPU simulator, including
// cross-validation against the wave-based simulator: two independent
// implementations of "the machine" must agree closely for regular kernels
// and diverge in the documented directions for tails and jitter.
#include <gtest/gtest.h>

#include "core/grophecy.h"
#include "gpumodel/explorer.h"
#include "hw/registry.h"
#include "sim/event_sim.h"
#include "sim/gpu_sim.h"
#include "skeleton/builder.h"
#include "support/reference_event_sim.h"
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

}  // namespace
}  // namespace grophecy::sim
