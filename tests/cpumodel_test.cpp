// Tests for the CPU roofline model and CPU timing simulator.
#include <gtest/gtest.h>

#include "cpumodel/cpu_model.h"
#include "cpumodel/cpu_sim.h"
#include "hw/registry.h"
#include "skeleton/builder.h"
#include "util/units.h"

namespace grophecy::cpumodel {
namespace {

using skeleton::AppBuilder;
using skeleton::AppSkeleton;
using skeleton::ArrayId;
using skeleton::ElemType;
using skeleton::KernelBuilder;

hw::CpuSpec e5405() { return hw::anl_eureka().cpu; }

AppSkeleton streaming_app(std::int64_t n, double flops_per_elem) {
  AppBuilder app("stream");
  const ArrayId x = app.array("x", ElemType::kF32, {n});
  const ArrayId y = app.array("y", ElemType::kF32, {n});
  KernelBuilder& k = app.kernel("k");
  k.parallel_loop("i", n);
  k.statement(flops_per_elem).load(x, {k.var("i")}).store(y, {k.var("i")});
  return app.build();
}

TEST(CpuMemoryTraffic, CacheResidentUsesUniqueBytes) {
  brs::KernelFootprint fp;
  fp.unique_bytes_read = 1000;
  fp.unique_bytes_written = 500;
  fp.dynamic_load_bytes = 100000;
  fp.dynamic_store_bytes = 50000;
  // Fits in a 1 MB cache: unique read + 2x written (write-allocate).
  EXPECT_DOUBLE_EQ(cpu_memory_traffic_bytes(fp, 1 << 20), 2000.0);
}

TEST(CpuMemoryTraffic, StreamingWorkingSetPaysDynamicTraffic) {
  brs::KernelFootprint fp;
  fp.unique_bytes_read = 64 << 20;
  fp.unique_bytes_written = 64 << 20;
  fp.dynamic_load_bytes = 512 << 20;
  fp.dynamic_store_bytes = 64 << 20;
  const double small_cache = cpu_memory_traffic_bytes(fp, 1 << 20);
  const double big_cache = cpu_memory_traffic_bytes(fp, 256 << 20);
  EXPECT_GT(small_cache, big_cache);
  // Never below the unique-byte floor.
  EXPECT_GE(small_cache, 64.0 * (1 << 20) + 2.0 * 64.0 * (1 << 20));
}

TEST(CpuMemoryTraffic, BlendIsMonotonicInCacheSize) {
  brs::KernelFootprint fp;
  fp.unique_bytes_read = 16 << 20;
  fp.unique_bytes_written = 0;
  fp.dynamic_load_bytes = 256 << 20;
  double prev = cpu_memory_traffic_bytes(fp, 1 << 20);
  for (std::uint64_t llc = 2 << 20; llc <= 64 << 20; llc *= 2) {
    const double t = cpu_memory_traffic_bytes(fp, llc);
    EXPECT_LE(t, prev + 1.0);
    prev = t;
  }
}

TEST(CpuModel, BandwidthBoundForStreaming) {
  CpuModel model(e5405());
  const AppSkeleton app = streaming_app(1 << 24, 1.0);
  const CpuKernelEstimate est = model.estimate_kernel(app, app.kernels[0]);
  EXPECT_GT(est.memory_s, est.compute_s);
  EXPECT_GT(est.total_s, est.memory_s);  // efficiency + overhead
}

TEST(CpuModel, ComputeBoundForHeavyArithmetic) {
  CpuModel model(e5405());
  const AppSkeleton app = streaming_app(1 << 20, 2000.0);
  const CpuKernelEstimate est = model.estimate_kernel(app, app.kernels[0]);
  EXPECT_GT(est.compute_s, est.memory_s);
}

TEST(CpuModel, AppTimeScalesWithIterations) {
  CpuModel model(e5405());
  AppBuilder builder("iter");
  const ArrayId x = builder.array("x", ElemType::kF32, {1 << 20});
  KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 1 << 20);
  k.statement(1.0).load(x, {k.var("i")}).store(x, {k.var("i")});
  builder.iterations(10);
  const AppSkeleton app10 = builder.build();
  AppSkeleton app1 = app10;
  app1.iterations = 1;
  EXPECT_NEAR(model.estimate_app_seconds(app10),
              10.0 * model.estimate_app_seconds(app1), 1e-12);
}

TEST(CpuSimulator, JitterAveragesToExpected) {
  CpuSimulator sim(e5405(), 3);
  const AppSkeleton app = streaming_app(1 << 22, 2.0);
  const double expected = sim.expected_app_seconds(app);
  EXPECT_NEAR(sim.measure_app_seconds(app, 2000), expected,
              expected * 0.01);
}

TEST(CpuSimulator, SlowerThanTheIdealModel) {
  // The simulated machine achieves less than the analytical roofline.
  CpuModel model(e5405());
  CpuSimulator sim(e5405(), 3);
  const AppSkeleton app = streaming_app(1 << 24, 1.0);
  EXPECT_GT(sim.expected_app_seconds(app),
            model.estimate_app_seconds(app));
}

TEST(CpuSimulator, DeterministicAcrossInstances) {
  CpuSimulator a(e5405(), 9), b(e5405(), 9);
  const AppSkeleton app = streaming_app(1 << 20, 1.0);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.run_app_seconds(app), b.run_app_seconds(app));

  // A measurement is bitwise the mean of as many single runs drawn from a
  // same-seed instance: computing the expected time once per measurement
  // changes no draw.
  CpuSimulator measured(e5405(), 9), single(e5405(), 9);
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += single.run_app_seconds(app);
  EXPECT_EQ(measured.measure_app_seconds(app, 10), sum / 10);
}

}  // namespace
}  // namespace grophecy::cpumodel
