// Tests for the PCIe substrate: the simulated bus's physical behaviour,
// the two-point calibrator, and the linear model's accuracy profile —
// including the paper's shape claims (errors peak mid-size, vanish above
// 1 MB, pinned beats pageable except tiny H2D transfers).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "pcie/linear_model.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/units.h"

namespace grophecy::pcie {
namespace {

using hw::Direction;
using hw::HostMemory;

hw::PcieSpec eureka_pcie() { return hw::anl_eureka().pcie; }

TEST(SimulatedBus, ExpectedTimeIsMonotonicInSize) {
  SimulatedBus bus(eureka_pcie(), 1);
  for (Direction dir : {Direction::kHostToDevice, Direction::kDeviceToHost}) {
    for (HostMemory mem : {HostMemory::kPinned, HostMemory::kPageable}) {
      double prev = 0.0;
      for (std::uint64_t bytes = 1; bytes <= 512 * util::kMiB; bytes *= 4) {
        const double t = bus.expected_time(bytes, dir, mem);
        EXPECT_GT(t, prev);
        prev = t;
      }
    }
  }
}

// measure_mean computes the expected time once per measurement; the mean
// must be the per-run time_transfer loop's, bit for bit, with and without
// the paper's occasional 2x-slow outlier transfers (§V-A).
TEST(SimulatedBus, MeasureMeanEqualsThePerRunLoopBitForBit) {
  hw::PcieNoiseProfile outliers = eureka_pcie().noise;
  outliers.outlier_probability = 0.2;
  outliers.outlier_factor = 2.0;
  for (const bool with_outliers : {false, true}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xFEEDULL}) {
      SimulatedBus batched(eureka_pcie(), seed);
      SimulatedBus per_run(eureka_pcie(), seed);
      if (with_outliers) {
        batched.set_noise(outliers);
        per_run.set_noise(outliers);
      }
      for (const std::uint64_t bytes :
           {std::uint64_t{1}, std::uint64_t{4096}, 3 * util::kMiB + 17}) {
        for (const HostMemory mem :
             {HostMemory::kPinned, HostMemory::kPageable}) {
          for (const int runs : {1, 3, 10}) {
            const Direction dir = Direction::kDeviceToHost;
            double sum = 0.0;
            for (int i = 0; i < runs; ++i)
              sum += per_run.time_transfer(bytes, dir, mem);
            const double oracle = sum / runs;
            const double mean = batched.measure_mean(bytes, dir, mem, runs);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(mean),
                      std::bit_cast<std::uint64_t>(oracle))
                << "seed " << seed << ", " << bytes << " B, runs " << runs;
          }
        }
      }
      EXPECT_EQ(batched.time_transfer(64, Direction::kHostToDevice,
                                      HostMemory::kPinned),
                per_run.time_transfer(64, Direction::kHostToDevice,
                                      HostMemory::kPinned));
    }
  }
}

TEST(SimulatedBus, LatencyFloorAndAsymptoteMatchSpec) {
  const hw::PcieSpec spec = eureka_pcie();
  SimulatedBus bus(spec, 1);
  // 1 B is essentially the latency floor.
  EXPECT_NEAR(bus.expected_time(1, Direction::kHostToDevice,
                                HostMemory::kPinned),
              spec.pinned_h2d.latency_s, spec.pinned_h2d.latency_s * 0.05);
  // 512 MB runs at the asymptotic bandwidth.
  const double t = bus.expected_time(512 * util::kMiB,
                                     Direction::kHostToDevice,
                                     HostMemory::kPinned);
  EXPECT_NEAR(util::bandwidth_gbps(512.0 * util::kMiB, t),
              spec.pinned_h2d.asymptotic_gbps, 0.05);
}

TEST(SimulatedBus, SameSeedReproducesExactly) {
  SimulatedBus a(eureka_pcie(), 99), b(eureka_pcie(), 99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.time_transfer(4096, Direction::kHostToDevice,
                                     HostMemory::kPinned),
                     b.time_transfer(4096, Direction::kHostToDevice,
                                     HostMemory::kPinned));
  }
}

TEST(SimulatedBus, NoiseAveragesToExpectedTime) {
  SimulatedBus bus(eureka_pcie(), 5);
  const double expected = bus.expected_time(util::kMiB,
                                            Direction::kDeviceToHost,
                                            HostMemory::kPinned);
  const double mean = bus.measure_mean(util::kMiB, Direction::kDeviceToHost,
                                       HostMemory::kPinned, 2000);
  EXPECT_NEAR(mean, expected, expected * 0.01);
}

TEST(SimulatedBus, RelativeNoiseShrinksWithSize) {
  SimulatedBus bus(eureka_pcie(), 5);
  auto relative_spread = [&](std::uint64_t bytes) {
    std::vector<double> samples;
    for (int i = 0; i < 400; ++i)
      samples.push_back(bus.time_transfer(bytes, Direction::kHostToDevice,
                                          HostMemory::kPinned));
    return util::stddev(samples) / util::mean(samples);
  };
  EXPECT_GT(relative_spread(64), relative_spread(64 * util::kMiB) * 3.0);
}

TEST(SimulatedBus, OutliersRaiseTheMean) {
  hw::PcieSpec spec = eureka_pcie();
  SimulatedBus clean(spec, 5);
  spec.noise.outlier_probability = 0.5;
  spec.noise.outlier_factor = 2.0;
  SimulatedBus noisy(spec, 5);
  const double clean_mean = clean.measure_mean(
      util::kMiB, Direction::kHostToDevice, HostMemory::kPinned, 500);
  const double noisy_mean = noisy.measure_mean(
      util::kMiB, Direction::kHostToDevice, HostMemory::kPinned, 500);
  EXPECT_NEAR(noisy_mean / clean_mean, 1.5, 0.1);
}

TEST(SimulatedBus, PinnedBeatsPageableExceptTinyH2D) {
  SimulatedBus bus(eureka_pcie(), 1);
  // Paper §III-C: pinned is always faster except CPU-to-GPU transfers
  // smaller than ~2 KB.
  EXPECT_LT(bus.expected_time(1024, Direction::kHostToDevice,
                              HostMemory::kPageable),
            bus.expected_time(1024, Direction::kHostToDevice,
                              HostMemory::kPinned));
  for (std::uint64_t bytes = 16 * util::kKiB; bytes <= 512 * util::kMiB;
       bytes *= 8) {
    EXPECT_LT(bus.expected_time(bytes, Direction::kHostToDevice,
                                HostMemory::kPinned),
              bus.expected_time(bytes, Direction::kHostToDevice,
                                HostMemory::kPageable))
        << bytes;
  }
  // D2H: pinned always wins.
  for (std::uint64_t bytes = 1; bytes <= 512 * util::kMiB; bytes *= 8) {
    EXPECT_LT(bus.expected_time(bytes, Direction::kDeviceToHost,
                                HostMemory::kPinned),
              bus.expected_time(bytes, Direction::kDeviceToHost,
                                HostMemory::kPageable))
        << bytes;
  }
}

TEST(LinearModel, PredictAndDescribe) {
  LinearTransferModel model{10e-6, 0.4e-9};
  EXPECT_DOUBLE_EQ(model.predict_seconds(1), 10e-6 + 0.4e-9);
  EXPECT_NEAR(model.bandwidth_gbps(), 2.5, 1e-9);
  EXPECT_NE(model.describe().find("2.50 GB/s"), std::string::npos);
  EXPECT_THROW(model.predict_seconds(0), ContractViolation);
}

TEST(Calibrator, RecoversAlphaAndBeta) {
  const hw::PcieSpec spec = eureka_pcie();
  SimulatedBus bus(spec, 11);
  const BusModel model = TransferCalibrator().calibrate(bus);
  // Alpha close to the true latency, beta close to the true inverse BW.
  EXPECT_NEAR(model.h2d.alpha_s, spec.pinned_h2d.latency_s,
              spec.pinned_h2d.latency_s * 0.10);
  EXPECT_NEAR(model.h2d.bandwidth_gbps(), spec.pinned_h2d.asymptotic_gbps,
              spec.pinned_h2d.asymptotic_gbps * 0.03);
  EXPECT_NEAR(model.d2h.bandwidth_gbps(), spec.pinned_d2h.asymptotic_gbps,
              spec.pinned_d2h.asymptotic_gbps * 0.03);
  EXPECT_EQ(model.memory_mode, HostMemory::kPinned);
}

TEST(Calibrator, OptionsAreValidated) {
  CalibrationOptions bad;
  bad.small_bytes = 0;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.large_bytes = bad.small_bytes;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.replicates = 0;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.robustness.max_retries = -1;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.robustness.backoff_max_s = bad.robustness.backoff_initial_s / 2.0;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.robustness.timeout_s = 0.0;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.robustness.max_replicates = bad.replicates - 1;
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
  bad = {};
  bad.sweep_bytes = {0};
  EXPECT_THROW(TransferCalibrator{bad}, ContractViolation);
}

TEST(SimulatedBus, MedianIgnoresOutliersTheMeanCannot) {
  hw::PcieSpec spec = eureka_pcie();
  spec.noise.outlier_probability = 0.3;
  spec.noise.outlier_factor = 2.0;
  SimulatedBus bus(spec, 5);
  const double expected = bus.expected_time(util::kMiB,
                                            Direction::kHostToDevice,
                                            HostMemory::kPinned);
  const double mean = bus.measure_mean(util::kMiB, Direction::kHostToDevice,
                                       HostMemory::kPinned, 400);
  const double median = bus.measure_median(
      util::kMiB, Direction::kHostToDevice, HostMemory::kPinned, 400);
  EXPECT_GT(mean, expected * 1.2);    // mean dragged up by 30% 2x outliers
  EXPECT_NEAR(median, expected, expected * 0.05);
}

TEST(Calibrator, RobustPipelineWithDefaultOptionsMatchesPaperProcedure) {
  // The hardened entry point replays the paper's measurement sequence
  // sample for sample when no robustness knob is turned: same-seeded buses
  // must yield bit-identical models (the golden tests depend on this).
  SimulatedBus paper_bus(eureka_pcie(), 17);
  SimulatedBus robust_bus(eureka_pcie(), 17);
  const TransferCalibrator calibrator;
  const BusModel paper = calibrator.calibrate(paper_bus);
  const CalibrationReport report = calibrator.calibrate_robust(robust_bus);
  EXPECT_DOUBLE_EQ(paper.h2d.alpha_s, report.model.h2d.alpha_s);
  EXPECT_DOUBLE_EQ(paper.h2d.beta_s_per_byte,
                   report.model.h2d.beta_s_per_byte);
  EXPECT_DOUBLE_EQ(paper.d2h.alpha_s, report.model.d2h.alpha_s);
  EXPECT_DOUBLE_EQ(paper.d2h.beta_s_per_byte,
                   report.model.d2h.beta_s_per_byte);
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.used_fallback);
  ASSERT_EQ(report.h2d.probes.size(), 2u);
  EXPECT_EQ(report.h2d.probes[0].samples_kept, 10);
  EXPECT_EQ(report.h2d.probes[0].samples_rejected, 0);
}

TEST(Calibrator, TheilSenSweepRecoversTheModel) {
  const hw::PcieSpec spec = eureka_pcie();
  SimulatedBus bus(spec, 23);
  CalibrationOptions options;
  options.fit = FitMethod::kTheilSen;
  const CalibrationReport report =
      TransferCalibrator(options).calibrate_robust(bus);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.h2d.probes.size(), 2u);
  EXPECT_GT(report.h2d.r_squared, 0.999);
  EXPECT_NEAR(report.model.h2d.bandwidth_gbps(),
              spec.pinned_h2d.asymptotic_gbps,
              spec.pinned_h2d.asymptotic_gbps * 0.03);
}

TEST(Calibrator, AdaptiveReplicationTightensTheSmallProbe) {
  // The 1B probe is the noisiest; adaptive replication should keep
  // sampling it beyond the initial ten until the CI target is met.
  SimulatedBus bus(eureka_pcie(), 29);
  CalibrationOptions options = CalibrationOptions::robust();
  options.robustness.target_rel_half_width = 0.01;
  const CalibrationReport report =
      TransferCalibrator(options).calibrate_robust(bus);
  EXPECT_TRUE(report.converged);
  const ProbeTelemetry& small = report.h2d.probes.front();
  EXPECT_GT(small.samples_kept + small.samples_rejected, options.replicates);
  EXPECT_LE(small.rel_half_width, 0.01 + 1e-12);
  // describe() renders the full telemetry without crashing.
  EXPECT_NE(report.describe().find("probe 1B"), std::string::npos);
}

TEST(LinearModel, SpecDerivedModelMatchesTheSpec) {
  const hw::PcieSpec spec = eureka_pcie();
  const BusModel model = bus_model_from_spec(spec, HostMemory::kPinned);
  EXPECT_DOUBLE_EQ(model.h2d.alpha_s, spec.pinned_h2d.latency_s);
  EXPECT_NEAR(model.h2d.bandwidth_gbps(), spec.pinned_h2d.asymptotic_gbps,
              1e-9);
  EXPECT_DOUBLE_EQ(model.d2h.alpha_s, spec.pinned_d2h.latency_s);
  EXPECT_EQ(model.memory_mode, HostMemory::kPinned);
}

TEST(Calibrator, WorksOnEveryRegisteredMachine) {
  // The paper: "The PCIe bus model is constructed automatically for each
  // new system."
  for (const hw::MachineSpec& machine : hw::builtin_machines()) {
    SimulatedBus bus(machine.pcie, 3);
    const BusModel model = TransferCalibrator().calibrate(bus);
    EXPECT_NEAR(model.h2d.bandwidth_gbps(),
                machine.pcie.pinned_h2d.asymptotic_gbps,
                machine.pcie.pinned_h2d.asymptotic_gbps * 0.05)
        << machine.name;
  }
}

/// Model error per size (Fig. 4 shape), parameterized over sizes.
class LinearModelError
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearModelError, WithinTenPercentEverywhere) {
  const std::uint64_t bytes = GetParam();
  SimulatedBus bus(eureka_pcie(), 21);
  SimulatedBus calibration_bus(eureka_pcie(), 22);
  const BusModel model = TransferCalibrator().calibrate(calibration_bus);
  for (Direction dir : {Direction::kHostToDevice, Direction::kDeviceToHost}) {
    const double measured =
        bus.measure_mean(bytes, dir, HostMemory::kPinned, 50);
    const double err = util::error_magnitude_percent(
        model.predict_seconds(bytes, dir), measured);
    EXPECT_LT(err, 10.0) << "bytes=" << bytes;
    // Above 1 MB the model is essentially exact (paper Fig. 4).
    if (bytes > util::kMiB) {
      EXPECT_LT(err, 1.5) << "bytes=" << bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LinearModelError,
    ::testing::Values(1, 64, 1024, 8 * util::kKiB, 64 * util::kKiB,
                      512 * util::kKiB, 4 * util::kMiB, 64 * util::kMiB,
                      512 * util::kMiB),
    [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
      return "bytes_" + std::to_string(param_info.param);
    });

}  // namespace
}  // namespace grophecy::pcie
