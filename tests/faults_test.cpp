// Tests for the fault-injection harness and the robust calibration
// pipeline it exists to validate: determinism, clean passthrough, every
// fault class, and the PR's acceptance scenarios — under the paper's §V-A
// outlier anomaly the robust calibrator stays within 5% of the noiseless
// ground truth while the paper's mean-based procedure does not, and a dead
// measurement path degrades to the spec-derived model without an exception
// escaping.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "faults/fault_injector.h"
#include "gpumodel/explorer.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "pcie/linear_model.h"
#include "sim/gpu_sim.h"
#include "skeleton/builder.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace grophecy::faults {
namespace {

using hw::Direction;
using hw::HostMemory;

hw::PcieSpec eureka_pcie() { return hw::anl_eureka().pcie; }

double one_transfer(pcie::TransferTimer& timer) {
  return timer.time_transfer(util::kMiB, Direction::kHostToDevice,
                             HostMemory::kPinned);
}

TEST(FaultPlan, IsValidated) {
  FaultPlan bad;
  bad.slow_probability = 1.5;
  EXPECT_THROW(FaultEngine{bad}, ContractViolation);
  bad = {};
  bad.heavy_tail_shape = 0.0;
  EXPECT_THROW(FaultEngine{bad}, ContractViolation);
  bad = {};
  bad.hang_factor = 1.0;
  EXPECT_THROW(FaultEngine{bad}, ContractViolation);
  bad = {};
  bad.fail_first = -1;
  EXPECT_THROW(FaultEngine{bad}, ContractViolation);
  bad = {};
  bad.drift_per_call = -0.1;
  EXPECT_THROW(FaultEngine{bad}, ContractViolation);
}

TEST(FaultInjector, NoFaultPlanIsBitIdenticalPassthrough) {
  pcie::SimulatedBus bare(eureka_pcie(), 3);
  pcie::SimulatedBus wrapped_inner(eureka_pcie(), 3);
  FaultInjector wrapped(wrapped_inner, FaultPlan{});
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(one_transfer(bare), one_transfer(wrapped));
  EXPECT_EQ(wrapped.stats().calls, 50u);
  EXPECT_EQ(wrapped.stats().returned, 50u);
  EXPECT_EQ(wrapped.stats().slow, 0u);
  EXPECT_EQ(wrapped.stats().failures, 0u);
}

TEST(FaultInjector, SamePlanAndSeedReplaysTheSameFaults) {
  auto run = [] {
    pcie::SimulatedBus bus(eureka_pcie(), 9);
    FaultInjector injector(bus, FaultPlan::paper_outliers(0.2, 2.0, 77));
    std::vector<double> times;
    for (int i = 0; i < 100; ++i) times.push_back(one_transfer(injector));
    return std::make_pair(times, injector.stats().slow);
  };
  const auto [times_a, slow_a] = run();
  const auto [times_b, slow_b] = run();
  EXPECT_EQ(slow_a, slow_b);
  EXPECT_GT(slow_a, 0u);
  for (std::size_t i = 0; i < times_a.size(); ++i)
    EXPECT_DOUBLE_EQ(times_a[i], times_b[i]) << i;
}

TEST(FaultInjector, SlowOutliersInflateTheMeanNotTheMedian) {
  pcie::SimulatedBus clean_bus(eureka_pcie(), 5);
  std::vector<double> clean;
  for (int i = 0; i < 2000; ++i) clean.push_back(one_transfer(clean_bus));

  pcie::SimulatedBus bus(eureka_pcie(), 5);
  FaultInjector injector(bus, FaultPlan::paper_outliers(0.05, 2.0, 13));
  std::vector<double> faulty;
  for (int i = 0; i < 2000; ++i) faulty.push_back(one_transfer(injector));

  // 5% of transfers doubled => the mean rises ~5%; the median barely moves.
  EXPECT_NEAR(util::mean(faulty) / util::mean(clean), 1.05, 0.02);
  EXPECT_NEAR(util::median(faulty) / util::median(clean), 1.0, 0.01);
  EXPECT_NEAR(static_cast<double>(injector.stats().slow), 100.0, 40.0);
}

TEST(FaultInjector, HeavyTailFactorsAreBoundedByTheCap) {
  pcie::SimulatedBus bus(eureka_pcie(), 5);
  const double expected = bus.expected_time(util::kMiB,
                                            Direction::kHostToDevice,
                                            HostMemory::kPinned);
  FaultPlan plan;
  plan.heavy_tail_probability = 1.0;
  plan.heavy_tail_shape = 0.5;  // wild tail; the cap must do the work
  plan.heavy_tail_cap = 10.0;
  FaultInjector injector(bus, plan);
  for (int i = 0; i < 500; ++i) {
    const double t = one_transfer(injector);
    EXPECT_GE(t, expected * 0.5);
    EXPECT_LE(t, expected * plan.heavy_tail_cap * 1.5);
  }
  EXPECT_EQ(injector.stats().heavy_tail, 500u);
}

TEST(FaultInjector, FailFirstThrowsTypedRetryableErrors) {
  pcie::SimulatedBus bus(eureka_pcie(), 5);
  FaultPlan plan;
  plan.fail_first = 3;
  FaultInjector injector(bus, plan);
  for (int i = 0; i < 3; ++i) {
    try {
      one_transfer(injector);
      FAIL() << "expected MeasurementError";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMeasurement);
      EXPECT_TRUE(e.retryable());
    }
  }
  EXPECT_GT(one_transfer(injector), 0.0);  // observation 3 succeeds
  EXPECT_EQ(injector.stats().failures, 3u);
  EXPECT_EQ(injector.stats().returned, 1u);
}

TEST(FaultInjector, DriftCompoundsPerObservation) {
  pcie::SimulatedBus bus(eureka_pcie(), 5);
  FaultPlan plan;
  plan.drift_per_call = 0.10;
  FaultInjector injector(bus, plan);
  pcie::SimulatedBus reference(eureka_pcie(), 5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(one_transfer(injector),
                     one_transfer(reference) * std::pow(1.10, i));
  }
}

TEST(FaultyKernelTimer, WrapsTheGpuSimulator) {
  using skeleton::AppBuilder;
  AppBuilder app("stream");
  const skeleton::ArrayId x = app.array("x", skeleton::ElemType::kF32,
                                        {1 << 20});
  skeleton::KernelBuilder& k = app.kernel("copy");
  k.parallel_loop("i", 1 << 20);
  k.statement(1.0).load(x, {k.var("i")});
  const skeleton::AppSkeleton built = app.build();
  gpumodel::Variant variant;
  variant.block_size = 256;
  const gpumodel::KernelCharacteristics kc = gpumodel::characterize(
      built, built.kernels[0], variant, hw::anl_eureka().gpu);

  sim::GpuSimulator clean_sim(hw::anl_eureka().gpu, 4);
  sim::GpuSimulator wrapped_sim(hw::anl_eureka().gpu, 4);
  FaultPlan plan;
  plan.slow_probability = 1.0;
  plan.slow_factor = 3.0;
  FaultyKernelTimer faulty(wrapped_sim, plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(faulty.run_launch_seconds(kc),
                     clean_sim.run_launch_seconds(kc) * 3.0);
  }
  // The KernelTimer interface's replicated measurement works through it.
  EXPECT_GT(faulty.measure_launch_seconds(kc, 4), 0.0);
  EXPECT_EQ(faulty.stats().slow, 9u);

  FaultPlan broken = FaultPlan::broken();
  FaultyKernelTimer dead(wrapped_sim, broken);
  EXPECT_THROW(dead.run_launch_seconds(kc), MeasurementError);
}

/// Counts the runs a wrapper asks of it.
class CountingTimer final : public sim::KernelTimer {
 public:
  double run_launch_seconds(const gpumodel::KernelCharacteristics&) override {
    return 1e-3 * static_cast<double>(++calls);
  }
  int calls = 0;
};

// GpuSimulator's measurement computes its expected time once; a fault
// wrapper must still perturb every run, so it keeps the per-run path
// (WrapsTheGpuSimulator counts one fault draw per run through it).
TEST(FaultyKernelTimer, SeesOneRunLaunchSecondsCallPerRun) {
  CountingTimer inner;
  FaultyKernelTimer faulty(inner, FaultPlan{});
  const gpumodel::KernelCharacteristics kc;
  EXPECT_DOUBLE_EQ(faulty.measure_launch_seconds(kc, 7), 4e-3);
  EXPECT_EQ(inner.calls, 7);
  EXPECT_EQ(faulty.stats().calls, 7u);
}

// --- acceptance: robust calibration under the paper's §V-A anomaly ---

struct GroundTruth {
  double alpha;
  double beta;
};

GroundTruth truth() {
  const pcie::SimulatedBus bus(eureka_pcie(), 0);
  const std::uint64_t large = pcie::CalibrationOptions{}.large_bytes;
  GroundTruth t{};
  t.alpha = bus.expected_time(1, Direction::kHostToDevice,
                              HostMemory::kPinned);
  t.beta = bus.expected_time(large, Direction::kHostToDevice,
                             HostMemory::kPinned) /
           static_cast<double>(large);
  return t;
}

double pct_err(double got, double want) {
  return std::abs(got - want) / want * 100.0;
}

TEST(RobustCalibration, Beats5PercentUnderOutliersWhereTheMeanDoesNot) {
  const GroundTruth t = truth();
  const hw::PcieSpec spec = eureka_pcie();
  double naive_worst = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const FaultPlan plan =
        FaultPlan::paper_outliers(0.05, 2.0, 500 + trial);

    pcie::SimulatedBus robust_bus(spec, 100 + trial);
    FaultInjector robust_timer(robust_bus, plan);
    const pcie::CalibrationReport report =
        pcie::TransferCalibrator(pcie::CalibrationOptions::robust())
            .calibrate_robust(robust_timer);
    EXPECT_TRUE(report.converged);
    EXPECT_LT(pct_err(report.model.h2d.alpha_s, t.alpha), 5.0) << trial;
    EXPECT_LT(pct_err(report.model.h2d.beta_s_per_byte, t.beta), 5.0)
        << trial;

    pcie::SimulatedBus naive_bus(spec, 100 + trial);
    FaultInjector naive_timer(naive_bus, plan);
    const pcie::BusModel naive =
        pcie::TransferCalibrator().calibrate(naive_timer);
    naive_worst = std::max(
        {naive_worst, pct_err(naive.h2d.alpha_s, t.alpha),
         pct_err(naive.h2d.beta_s_per_byte, t.beta)});
  }
  // The paper's procedure demonstrably bakes the outliers into the model.
  EXPECT_GT(naive_worst, 5.0);
}

TEST(RobustCalibration, TheilSenSurvivesOutlierProbes) {
  const GroundTruth t = truth();
  pcie::SimulatedBus bus(eureka_pcie(), 31);
  FaultInjector timer(bus, FaultPlan::paper_outliers(0.05, 2.0, 631));
  pcie::CalibrationOptions options = pcie::CalibrationOptions::robust();
  options.fit = pcie::FitMethod::kTheilSen;
  const pcie::CalibrationReport report =
      pcie::TransferCalibrator(options).calibrate_robust(timer);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.h2d.probes.size(), 2u);  // sweep, not two-point
  EXPECT_GT(report.h2d.r_squared, 0.999);
  // The slope is nailed; the intercept absorbs mid-size non-linearity, so
  // only a loose bound holds for alpha.
  EXPECT_LT(pct_err(report.model.h2d.beta_s_per_byte, t.beta), 5.0);
  EXPECT_LT(pct_err(report.model.h2d.alpha_s, t.alpha), 30.0);
}

TEST(RobustCalibration, RetriesTransientFailuresAndRecordsTelemetry) {
  pcie::SimulatedBus bus(eureka_pcie(), 8);
  FaultInjector timer(bus, FaultPlan::flaky(0.2, 0.0, 41));
  pcie::CalibrationOptions options = pcie::CalibrationOptions::robust();
  const pcie::CalibrationReport report =
      pcie::TransferCalibrator(options).calibrate_robust(timer);
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_GT(report.total_retries(), 0);
  double backoff = 0.0;
  for (const pcie::ProbeTelemetry& probe : report.h2d.probes)
    backoff += probe.backoff_total_s;
  for (const pcie::ProbeTelemetry& probe : report.d2h.probes)
    backoff += probe.backoff_total_s;
  EXPECT_GT(backoff, 0.0);
  EXPECT_EQ(report.summary().retries, report.total_retries());
}

TEST(RobustCalibration, WatchdogConvertsHangsIntoTimeouts) {
  pcie::SimulatedBus bus(eureka_pcie(), 8);
  FaultPlan plan;
  plan.hang_probability = 0.1;
  plan.hang_factor = 1000.0;
  FaultInjector timer(bus, plan);
  pcie::CalibrationOptions options = pcie::CalibrationOptions::robust();
  options.robustness.timeout_s = 1.0;  // 512MB takes ~0.2 s clean
  const pcie::CalibrationReport report =
      pcie::TransferCalibrator(options).calibrate_robust(timer);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.total_timeouts(), 0);
  // Timed-out observations never contaminate the estimates: the large
  // probes still read the true bandwidth.
  EXPECT_NEAR(report.model.h2d.bandwidth_gbps(),
              eureka_pcie().pinned_h2d.asymptotic_gbps,
              eureka_pcie().pinned_h2d.asymptotic_gbps * 0.05);
}

TEST(RobustCalibration, DeadPathDegradesToSpecModelWithoutThrowing) {
  const hw::PcieSpec spec = eureka_pcie();
  pcie::SimulatedBus bus(spec, 8);
  FaultInjector timer(bus, FaultPlan::broken());
  const pcie::TransferCalibrator calibrator(
      pcie::CalibrationOptions::robust());

  pcie::CalibrationReport report;
  ASSERT_NO_THROW(report = calibrator.calibrate_robust(
                      timer, HostMemory::kPinned, &spec));
  EXPECT_FALSE(report.converged);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_TRUE(report.h2d.from_spec);
  EXPECT_TRUE(report.d2h.from_spec);
  EXPECT_FALSE(report.warning.empty());
  EXPECT_GT(report.total_retries(), 0);  // it did try before giving up

  // The fallback is exactly the spec-derived model.
  const pcie::BusModel from_spec =
      pcie::bus_model_from_spec(spec, HostMemory::kPinned);
  EXPECT_DOUBLE_EQ(report.model.h2d.alpha_s, from_spec.h2d.alpha_s);
  EXPECT_DOUBLE_EQ(report.model.h2d.beta_s_per_byte,
                   from_spec.h2d.beta_s_per_byte);
  EXPECT_DOUBLE_EQ(report.model.d2h.alpha_s, from_spec.d2h.alpha_s);
  EXPECT_NE(report.describe().find("DEGRADED"), std::string::npos);

  // Without a fallback spec the same failure is a typed, fatal error.
  pcie::SimulatedBus bus2(spec, 8);
  FaultInjector timer2(bus2, FaultPlan::broken());
  EXPECT_THROW(calibrator.calibrate_robust(timer2), CalibrationError);
}

TEST(RobustCalibration, EngineConstructionSurvivesABrokenBus) {
  // End-to-end: the core engine keeps working when calibration degrades —
  // transfer predictions come from the spec-derived model, on record.
  // (The engine's own simulated bus is healthy; this exercises the
  // report plumbing via a manual pipeline instead.)
  const hw::MachineSpec machine = hw::anl_eureka();
  pcie::SimulatedBus bus(machine.pcie, 8);
  FaultInjector timer(bus, FaultPlan::flaky(0.99, 0.0, 3));
  pcie::CalibrationOptions options;  // paper options: no retries at all
  const pcie::CalibrationReport report =
      pcie::TransferCalibrator(options).calibrate_robust(
          timer, HostMemory::kPinned, &machine.pcie);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_GT(report.model.predict_seconds(util::kMiB,
                                         Direction::kHostToDevice),
            0.0);
}

}  // namespace
}  // namespace grophecy::faults
