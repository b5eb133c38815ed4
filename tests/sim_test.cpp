// Tests for the GPU timing simulator: determinism, jitter statistics, wave
// quantization, and the structural relationship to the analytical model
// (the simulator charges for everything the model does, plus realism).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gpumodel/explorer.h"
#include "hw/registry.h"
#include "sim/gpu_sim.h"
#include "skeleton/builder.h"
#include "util/error.h"
#include "util/stats.h"

namespace grophecy::sim {
namespace {

using gpumodel::KernelCharacteristics;
using gpumodel::Variant;
using skeleton::AffineExpr;
using skeleton::AppBuilder;
using skeleton::AppSkeleton;
using skeleton::ArrayId;
using skeleton::ElemType;
using skeleton::KernelBuilder;

hw::GpuSpec g80() { return hw::anl_eureka().gpu; }

AppSkeleton streaming_app(std::int64_t n) {
  AppBuilder app("stream");
  const ArrayId x = app.array("x", ElemType::kF32, {n});
  const ArrayId y = app.array("y", ElemType::kF32, {n});
  KernelBuilder& k = app.kernel("copy");
  k.parallel_loop("i", n);
  k.statement(1.0).load(x, {k.var("i")}).store(y, {k.var("i")});
  return app.build();
}

AppSkeleton gather_app(std::int64_t n) {
  AppBuilder app("gather");
  const ArrayId x = app.array("x", ElemType::kF32, {n});
  const ArrayId y = app.array("y", ElemType::kF32, {n});
  KernelBuilder& k = app.kernel("gather");
  k.parallel_loop("i", n);
  k.statement(1.0);
  k.load_gather(x, {AffineExpr::make_constant(0)}, {0}, {"i"});
  k.store(y, {k.var("i")});
  return app.build();
}

KernelCharacteristics characterize_first(const AppSkeleton& app,
                                         int block = 256) {
  Variant variant;
  variant.block_size = block;
  return gpumodel::characterize(app, app.kernels[0], variant, g80());
}

TEST(GpuSimulator, ExpectedLaunchIsDeterministic) {
  GpuSimulator sim(g80(), 1);
  const AppSkeleton app = streaming_app(1 << 20);
  const KernelCharacteristics kc = characterize_first(app);
  EXPECT_DOUBLE_EQ(sim.expected_launch(kc).total_s,
                   sim.expected_launch(kc).total_s);
}

TEST(GpuSimulator, JitterAveragesToExpected) {
  GpuSimulator sim(g80(), 7);
  const AppSkeleton app = streaming_app(1 << 20);
  const KernelCharacteristics kc = characterize_first(app);
  const double expected = sim.expected_launch(kc).total_s;
  EXPECT_NEAR(sim.measure_launch_seconds(kc, 2000), expected,
              expected * 0.01);
}

TEST(GpuSimulator, SameSeedSameRuns) {
  GpuSimulator a(g80(), 42), b(g80(), 42);
  const AppSkeleton app = streaming_app(1 << 18);
  const KernelCharacteristics kc = characterize_first(app);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.run_launch_seconds(kc), b.run_launch_seconds(kc));
}

TEST(GpuSimulator, SimulatedTimeExceedsModelProjection) {
  // The machine charges for realism the best-achievable model omits, so
  // simulated time must be at least the projected time for any kernel.
  GpuSimulator sim(g80(), 1);
  gpumodel::KernelTimeModel model(g80());
  for (const AppSkeleton& app :
       {streaming_app(1 << 20), gather_app(1 << 18)}) {
    const KernelCharacteristics kc = characterize_first(app);
    EXPECT_GE(sim.expected_launch(kc).total_s,
              model.project(kc).total_s * 0.999)
        << app.name;
  }
}

TEST(GpuSimulator, GatherGapExceedsStreamingGap) {
  // The model-vs-machine gap must be structurally larger for irregular
  // kernels (the paper's CFD behaviour, Fig. 6).
  GpuSimulator sim(g80(), 1);
  gpumodel::KernelTimeModel model(g80());
  auto gap = [&](const AppSkeleton& app) {
    const KernelCharacteristics kc = characterize_first(app);
    return sim.expected_launch(kc).total_s / model.project(kc).total_s;
  };
  EXPECT_GT(gap(gather_app(1 << 18)), gap(streaming_app(1 << 20)) * 1.1);
}

TEST(GpuSimulator, WaveQuantizationPenalizesPartialWaves) {
  // One extra block beyond a full wave costs a whole extra wave.
  const hw::GpuSpec gpu = g80();
  GpuSimulator sim(gpu, 1);
  // Derive the chip's wave capacity from the actual occupancy of this
  // kernel (register pressure caps blocks per SM).
  const KernelCharacteristics probe =
      characterize_first(streaming_app(1 << 20));
  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu, 256, probe.regs_per_thread, probe.smem_per_block_bytes);
  const std::int64_t wave_threads =
      static_cast<std::int64_t>(occ.blocks_per_sm) * gpu.num_sms * 256;
  const KernelCharacteristics exactly_one =
      characterize_first(streaming_app(wave_threads));
  const KernelCharacteristics one_more =
      characterize_first(streaming_app(wave_threads + 256));
  const SimBreakdown full = sim.expected_launch(exactly_one);
  const SimBreakdown spill = sim.expected_launch(one_more);
  EXPECT_EQ(full.waves, 1);
  EXPECT_EQ(spill.waves, 2);
  // Compare kernel bodies (launch overhead dwarfs a single wave).
  EXPECT_GT(spill.total_s - spill.launch_s,
            (full.total_s - full.launch_s) * 1.3);
}

TEST(GpuSimulator, SyncsCostTime) {
  GpuSimulator sim(g80(), 1);
  const AppSkeleton app = streaming_app(1 << 18);
  KernelCharacteristics kc = characterize_first(app);
  const double before = sim.expected_launch(kc).total_s;
  kc.syncs_per_thread = 8;
  EXPECT_GT(sim.expected_launch(kc).total_s, before);
}

TEST(GpuSimulator, LaunchOverheadFloorsTinyKernels) {
  GpuSimulator sim(g80(), 1);
  const AppSkeleton app = streaming_app(64);
  const KernelCharacteristics kc = characterize_first(app, 64);
  const SimBreakdown out = sim.expected_launch(kc);
  EXPECT_GE(out.total_s, g80().kernel_launch_overhead_s);
  EXPECT_LT(out.total_s, g80().kernel_launch_overhead_s * 2.0);
}

/// KernelTimer whose runs replay a scripted sample sequence, for testing
/// measure_launch_seconds' averaging in isolation.
class ScriptedTimer final : public KernelTimer {
 public:
  explicit ScriptedTimer(std::vector<double> samples)
      : samples_(std::move(samples)) {}

  double run_launch_seconds(const KernelCharacteristics&) override {
    return samples_.at(next_++);
  }

 private:
  std::vector<double> samples_;
  std::size_t next_ = 0;
};

TEST(KernelTimer, MeasureAveragesWithRunningMean) {
  ScriptedTimer timer({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(timer.measure_launch_seconds(KernelCharacteristics{}, 4),
                   2.5);
}

TEST(KernelTimer, HugeSamplesDoNotOverflowTheMean) {
  // A plain sum of these samples overflows to infinity before dividing;
  // the running mean never leaves the representable range.
  ScriptedTimer timer({1e308, 1e308, 1e308});
  const double mean =
      timer.measure_launch_seconds(KernelCharacteristics{}, 3);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_DOUBLE_EQ(mean, 1e308);
}

TEST(KernelTimer, NonFiniteSampleThrowsMeasurementError) {
  ScriptedTimer inf_timer(
      {1.0, std::numeric_limits<double>::infinity(), 1.0});
  EXPECT_THROW(inf_timer.measure_launch_seconds(KernelCharacteristics{}, 3),
               MeasurementError);
  ScriptedTimer nan_timer(
      {std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW(nan_timer.measure_launch_seconds(KernelCharacteristics{}, 1),
               MeasurementError);
}

// GpuSimulator computes the expected time once per measurement; the
// mean must be the per-run loop's, bit for bit, and leave the stream in
// the same place.
TEST(GpuSimulator, MeasureEqualsThePerRunLoopBitForBit) {
  const AppSkeleton stream = streaming_app(1 << 20);
  const AppSkeleton gather = gather_app(1 << 18);
  const KernelCharacteristics kernels[] = {characterize_first(stream),
                                           characterize_first(stream, 64),
                                           characterize_first(gather, 128)};
  hw::GpuSpec quiet = g80();
  quiet.timing_jitter_sigma = 0.0;
  for (const hw::GpuSpec& gpu : {g80(), quiet}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xFEEDULL}) {
      GpuSimulator batched(gpu, seed);
      GpuSimulator per_run(gpu, seed);
      for (const KernelCharacteristics& kc : kernels) {
        for (const int runs : {1, 3, 10}) {
          const double mean = batched.measure_launch_seconds(kc, runs);
          // The base class's loop: one run_launch_seconds call per run.
          const double oracle =
              per_run.KernelTimer::measure_launch_seconds(kc, runs);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(mean),
                    std::bit_cast<std::uint64_t>(oracle))
              << "seed " << seed << ", runs " << runs;
        }
      }
      EXPECT_EQ(batched.run_launch_seconds(kernels[0]),
                per_run.run_launch_seconds(kernels[0]));
    }
  }
}

}  // namespace
}  // namespace grophecy::sim
