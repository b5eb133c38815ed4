// Tests for the process-wide calibration cache: key construction (stable
// for equal inputs and across releases, sensitive to every input the
// calibrator reads) and the Grophecy-level wiring (a second engine for the
// same system reuses the first one's calibration bit-for-bit, engines
// built at once measure once, and use_artifact_caches = false bypasses
// the cache). The cache itself is a util::ArtifactCache, whose
// single-flight, eviction and counter contracts artifact_cache_test
// covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/grophecy.h"
#include "hw/registry.h"
#include "pcie/calibration_cache.h"

namespace grophecy::pcie {
namespace {

/// The singleton is shared by every test in this binary (and by any
/// engine a test constructs), so each test starts from a clean slate.
class CalibrationCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { CalibrationCache::instance().clear(); }
  void TearDown() override { CalibrationCache::instance().clear(); }
};

// --- the key ---

TEST(CalibrationCacheKey, StableForEqualInputs) {
  const hw::MachineSpec machine = hw::anl_eureka();
  const CalibrationOptions options = CalibrationOptions::robust();
  const std::uint64_t a = calibration_cache_key(
      machine.pcie, options, hw::HostMemory::kPinned, 42);
  const std::uint64_t b = calibration_cache_key(
      machine.pcie, options, hw::HostMemory::kPinned, 42);
  EXPECT_EQ(a, b);
  // The fold is fixed: these are the keys every earlier release computed
  // for the Argonne testbed.
  EXPECT_EQ(a, 0xf9a23997204e0019ULL);
  EXPECT_EQ(calibration_cache_key(machine.pcie, CalibrationOptions{},
                                  hw::HostMemory::kPinned, 42),
            0x42f9aa86722c8370ULL);
}

TEST(CalibrationCacheKey, SensitiveToEveryInputTheCalibratorReads) {
  const hw::MachineSpec machine = hw::anl_eureka();
  const CalibrationOptions options;
  const std::uint64_t base = calibration_cache_key(
      machine.pcie, options, hw::HostMemory::kPinned, 42);

  // A different calibration seed produces different samples.
  EXPECT_NE(base, calibration_cache_key(machine.pcie, options,
                                        hw::HostMemory::kPinned, 43));

  // A different memory mode reads a different profile.
  EXPECT_NE(base, calibration_cache_key(machine.pcie, options,
                                        hw::HostMemory::kPageable, 42));

  // Any procedure knob: replication, fit, probe sweep, robustness.
  CalibrationOptions more_replicates = options;
  more_replicates.replicates += 1;
  EXPECT_NE(base, calibration_cache_key(machine.pcie, more_replicates,
                                        hw::HostMemory::kPinned, 42));
  CalibrationOptions theil_sen = options;
  theil_sen.fit = FitMethod::kTheilSen;
  EXPECT_NE(base, calibration_cache_key(machine.pcie, theil_sen,
                                        hw::HostMemory::kPinned, 42));
  CalibrationOptions sweep = options;
  sweep.sweep_bytes = {1, 4096};
  EXPECT_NE(base, calibration_cache_key(machine.pcie, sweep,
                                        hw::HostMemory::kPinned, 42));
  CalibrationOptions retries = options;
  retries.robustness.max_retries = 3;
  EXPECT_NE(base, calibration_cache_key(machine.pcie, retries,
                                        hw::HostMemory::kPinned, 42));

  // Any physical link parameter: the simulated bus would time transfers
  // differently, so the cached model would be wrong for the new machine.
  hw::PcieSpec slower = machine.pcie;
  slower.pinned_h2d.latency_s *= 2.0;
  EXPECT_NE(base, calibration_cache_key(slower, options,
                                        hw::HostMemory::kPinned, 42));
  hw::PcieSpec noisy = machine.pcie;
  noisy.noise.outlier_probability = 0.5;
  EXPECT_NE(base, calibration_cache_key(noisy, options,
                                        hw::HostMemory::kPinned, 42));
}

// --- Grophecy wiring ---

TEST_F(CalibrationCacheTest, SecondEngineReusesTheFirstOnesCalibration) {
  const core::Grophecy first(hw::anl_eureka());
  EXPECT_FALSE(first.calibration_report().from_cache);
  EXPECT_EQ(first.calibration_report().cache_misses, 1u);

  const core::Grophecy second(hw::anl_eureka());
  EXPECT_TRUE(second.calibration_report().from_cache);
  EXPECT_EQ(second.calibration_report().cache_hits, 1u);

  // The cached model is bit-identical to a fresh measurement (calibration
  // is a pure function of machine, options, and seed).
  EXPECT_DOUBLE_EQ(second.bus_model().h2d.alpha_s,
                   first.bus_model().h2d.alpha_s);
  EXPECT_DOUBLE_EQ(second.bus_model().h2d.beta_s_per_byte,
                   first.bus_model().h2d.beta_s_per_byte);
  EXPECT_DOUBLE_EQ(second.bus_model().d2h.alpha_s,
                   first.bus_model().d2h.alpha_s);
  EXPECT_DOUBLE_EQ(second.bus_model().d2h.beta_s_per_byte,
                   first.bus_model().d2h.beta_s_per_byte);
}

TEST_F(CalibrationCacheTest, CalibrationSeedDecouplesJobsFromTheCache) {
  // The parallel-sweep arrangement: every job gets a distinct measurement
  // seed but pins calibration_seed to the shared base, so the whole sweep
  // shares one calibration entry.
  core::ProjectionOptions job_a;
  job_a.seed = 1111;
  job_a.calibration_seed = 42;
  core::ProjectionOptions job_b;
  job_b.seed = 2222;
  job_b.calibration_seed = 42;

  const core::Grophecy engine_a(hw::anl_eureka(), job_a);
  const core::Grophecy engine_b(hw::anl_eureka(), job_b);
  EXPECT_FALSE(engine_a.calibration_report().from_cache);
  EXPECT_TRUE(engine_b.calibration_report().from_cache);
  EXPECT_DOUBLE_EQ(engine_b.bus_model().h2d.alpha_s,
                   engine_a.bus_model().h2d.alpha_s);
  EXPECT_EQ(CalibrationCache::instance().size(), 1u);
}

TEST_F(CalibrationCacheTest, SingleFlightUnderConcurrentCallers) {
  // Engines for one system constructed at once, as a parallel sweep's
  // workers do: exactly one measures, every other one receives its
  // report and records a hit.
  constexpr int kThreads = 8;
  std::vector<std::optional<core::Grophecy>> engines(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&engines, i] { engines[i].emplace(hw::anl_eureka()); });
  for (std::thread& t : threads) t.join();

  int measured = 0;
  for (const std::optional<core::Grophecy>& engine : engines) {
    if (!engine->calibration_report().from_cache) ++measured;
    EXPECT_EQ(engine->bus_model().h2d.alpha_s,
              engines[0]->bus_model().h2d.alpha_s);
  }
  EXPECT_EQ(measured, 1);
  const CalibrationCache::Stats stats = CalibrationCache::instance().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST_F(CalibrationCacheTest, BypassLeavesTheCacheUntouched) {
  core::ProjectionOptions bypass;
  bypass.use_artifact_caches = false;
  const core::Grophecy uncached(hw::anl_eureka(), bypass);
  EXPECT_FALSE(uncached.calibration_report().from_cache);
  EXPECT_EQ(uncached.calibration_report().cache_hits, 0u);
  EXPECT_EQ(uncached.calibration_report().cache_misses, 0u);
  EXPECT_EQ(CalibrationCache::instance().size(), 0u);
  EXPECT_EQ(CalibrationCache::instance().stats().misses, 0u);

  // Bypassing changes where the work happens, never the numbers.
  const core::Grophecy cached(hw::anl_eureka());
  EXPECT_DOUBLE_EQ(uncached.bus_model().h2d.alpha_s,
                   cached.bus_model().h2d.alpha_s);
  EXPECT_DOUBLE_EQ(uncached.bus_model().d2h.beta_s_per_byte,
                   cached.bus_model().d2h.beta_s_per_byte);
}

}  // namespace
}  // namespace grophecy::pcie
