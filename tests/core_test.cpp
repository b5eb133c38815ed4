// End-to-end tests of the GROPHECY++ orchestrator: report consistency,
// determinism, the paper's headline claims (transfer-aware predictions
// beat kernel-only ones; Stassuij flips from predicted win to actual
// loss), iteration behaviour, and fusion.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "core/grophecy.h"
#include "hw/registry.h"
#include "skeleton/builder.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/stats.h"
#include "workloads/workload.h"

namespace grophecy::core {
namespace {

using skeleton::AppBuilder;
using skeleton::AppSkeleton;
using skeleton::ArrayId;
using skeleton::ElemType;
using skeleton::KernelBuilder;

AppSkeleton vector_add(std::int64_t n) {
  AppBuilder builder("vadd");
  const ArrayId a = builder.array("a", ElemType::kF32, {n});
  const ArrayId b = builder.array("b", ElemType::kF32, {n});
  const ArrayId c = builder.array("c", ElemType::kF32, {n});
  KernelBuilder& k = builder.kernel("add");
  k.parallel_loop("i", n);
  k.statement(1.0).load(a, {k.var("i")}).load(b, {k.var("i")}).store(
      c, {k.var("i")});
  return builder.build();
}

TEST(Grophecy, CalibratesOnConstruction) {
  Grophecy engine(hw::anl_eureka());
  // §III-C: alpha on the order of 10 us, bandwidth ~2.5 GB/s.
  EXPECT_GT(engine.bus_model().h2d.alpha_s, 5e-6);
  EXPECT_LT(engine.bus_model().h2d.alpha_s, 20e-6);
  EXPECT_NEAR(engine.bus_model().h2d.bandwidth_gbps(), 2.5, 0.25);
}

TEST(Grophecy, ReportInternalConsistency) {
  Grophecy engine(hw::anl_eureka());
  const ProjectionReport report = engine.project(vector_add(1 << 22));

  double kernel_pred = 0.0, kernel_meas = 0.0;
  for (const KernelResult& k : report.kernels) {
    kernel_pred += k.predicted_s;
    kernel_meas += k.measured_s;
  }
  EXPECT_DOUBLE_EQ(kernel_pred, report.predicted_kernel_s);
  EXPECT_DOUBLE_EQ(kernel_meas, report.measured_kernel_s);

  double xfer_pred = 0.0, xfer_meas = 0.0;
  for (const TransferResult& t : report.transfers) {
    xfer_pred += t.predicted_s;
    xfer_meas += t.measured_s;
  }
  EXPECT_DOUBLE_EQ(xfer_pred, report.predicted_transfer_s);
  EXPECT_DOUBLE_EQ(xfer_meas, report.measured_transfer_s);

  EXPECT_DOUBLE_EQ(report.predicted_total_s(),
                   report.predicted_kernel_s + report.predicted_transfer_s);
  EXPECT_GT(report.measured_cpu_s, 0.0);
  EXPECT_EQ(report.transfers.size(), report.plan.transfer_count());

  // Speedup identities.
  EXPECT_NEAR(report.measured_speedup(),
              report.measured_cpu_s / report.measured_total_s(), 1e-12);
  EXPECT_GT(report.predicted_speedup_kernel_only(),
            report.predicted_speedup_both());
}

TEST(Grophecy, SameSeedReproducesEveryNumber) {
  Grophecy a(hw::anl_eureka()), b(hw::anl_eureka());
  const AppSkeleton app = vector_add(1 << 20);
  const ProjectionReport ra = a.project(app);
  const ProjectionReport rb = b.project(app);
  EXPECT_DOUBLE_EQ(ra.measured_kernel_s, rb.measured_kernel_s);
  EXPECT_DOUBLE_EQ(ra.measured_transfer_s, rb.measured_transfer_s);
  EXPECT_DOUBLE_EQ(ra.measured_cpu_s, rb.measured_cpu_s);
  EXPECT_DOUBLE_EQ(ra.predicted_kernel_s, rb.predicted_kernel_s);
}

TEST(Grophecy, DescribeMentionsTheEssentials) {
  Grophecy engine(hw::anl_eureka());
  const ProjectionReport report = engine.project(vector_add(1 << 20));
  const std::string text = report.describe();
  EXPECT_NE(text.find("vadd"), std::string::npos);
  EXPECT_NE(text.find("kernel add"), std::string::npos);
  EXPECT_NE(text.find("speedup"), std::string::npos);
}

TEST(Grophecy, VectorAddLosesEndToEndOnEureka) {
  // The paper's §II-B motivating example: vector addition looks like a GPU
  // win from kernel time alone but loses once transfers are counted.
  Grophecy engine(hw::anl_eureka());
  const ProjectionReport report = engine.project(vector_add(1 << 24));
  EXPECT_GT(report.predicted_speedup_kernel_only(), 1.0);
  EXPECT_LT(report.predicted_speedup_both(), 1.0);
  EXPECT_LT(report.measured_speedup(), 1.0);
}

TEST(Grophecy, TransferAwareBeatsKernelOnlyForEveryPaperWorkload) {
  // The paper's central claim (Table II).
  ExperimentRunner runner;
  for (const auto& workload : workloads::paper_workloads()) {
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      const ProjectionReport report = runner.run(*workload, size);
      EXPECT_LT(report.speedup_error_both_pct(),
                report.speedup_error_kernel_only_pct())
          << workload->name() << " " << size.label;
      // And the combined prediction is genuinely accurate (paper: 9% avg).
      EXPECT_LT(report.speedup_error_both_pct(), 30.0)
          << workload->name() << " " << size.label;
    }
  }
}

TEST(Grophecy, StassuijKernelOnlyPredictsWinButMachineLoses) {
  // §V-B4: the only workload where ignoring transfers flips the verdict.
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const ProjectionReport report =
      runner.run(*all[3], all[3]->paper_data_sizes().front());
  EXPECT_GT(report.predicted_speedup_kernel_only(), 1.0);
  EXPECT_LT(report.measured_speedup(), 1.0);
  EXPECT_LT(report.predicted_speedup_both(), 1.0);
  EXPECT_LT(report.speedup_error_both_pct(), 10.0);
}

TEST(Grophecy, TransferVolumeIndependentOfIterationsButAmortized) {
  // §IV-B: transfer is fixed; speedup grows with iterations.
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const workloads::Workload& srad = *all[2];
  const workloads::DataSize size = srad.paper_data_sizes().back();

  const ProjectionReport once = runner.run(srad, size, 1);
  const ProjectionReport many = runner.run(srad, size, 64);
  EXPECT_EQ(once.plan.total_bytes(), many.plan.total_bytes());
  EXPECT_GT(many.measured_speedup(), once.measured_speedup() * 2.0);
  // Speedup approaches the no-transfer limit from below.
  EXPECT_LT(many.measured_speedup(), many.measured_speedup_limit());
}

TEST(Grophecy, PredictionsConvergeAtLargeIterationCounts) {
  // Figs. 8/10/12: with and without transfer converge as iterations grow.
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const ProjectionReport report =
      runner.run(*all[1], all[1]->paper_data_sizes().back(), 512);
  const double gap =
      report.predicted_speedup_kernel_only() / report.predicted_speedup_both();
  EXPECT_LT(gap, 1.10);
}

TEST(Grophecy, FusionChosenWhenLaunchOverheadDominates) {
  // A tiny iterative stencil: launches dominate, so the explorer should
  // fuse iterations (the HotSpot fusion of §IV-B).
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const ProjectionReport report =
      runner.run(*all[1], all[1]->paper_data_sizes().front(), 64);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_GT(report.kernels[0].projected.variant.fuse_iterations, 1);
  EXPECT_LT(report.kernels[0].launches, 64);
}

TEST(Grophecy, MeasurementNoiseOverrideInflatesTransferError) {
  ProjectionOptions noisy_options;
  hw::PcieNoiseProfile noise = hw::anl_eureka().pcie.noise;
  noise.outlier_probability = 0.5;
  noise.outlier_factor = 3.0;
  noisy_options.measurement_noise = noise;

  Grophecy clean(hw::anl_eureka());
  Grophecy noisy(hw::anl_eureka(), noisy_options);
  const AppSkeleton app = vector_add(1 << 22);
  EXPECT_GT(noisy.project(app).transfer_error_pct(),
            clean.project(app).transfer_error_pct() * 5.0);
}

TEST(Grophecy, RejectsBadOptions) {
  // Bad knobs are user input, not broken invariants: UsageError, naming
  // the offending field, before any calibration work happens.
  ProjectionOptions bad;
  bad.measurement_runs = 0;
  try {
    Grophecy engine(hw::anl_eureka(), bad);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("measurement_runs"),
              std::string::npos);
  }

  ProjectionOptions bad_replicates;
  bad_replicates.calibration.replicates = -1;
  try {
    Grophecy engine(hw::anl_eureka(), bad_replicates);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("calibration.replicates"),
              std::string::npos);
  }

  ProjectionOptions bad_timeout;
  bad_timeout.calibration.robustness.timeout_s = 0.0;
  EXPECT_THROW(Grophecy(hw::anl_eureka(), bad_timeout), UsageError);
}

TEST(ProjectionOptionsValidation, EveryInvalidFieldThrowsItsMessage) {
  struct Case {
    void (*mutate)(ProjectionOptions&);
    const char* message;
  };
  const Case cases[] = {
      {[](ProjectionOptions& o) { o.measurement_runs = 0; },
       "ProjectionOptions.measurement_runs must be positive, got 0"},
      {[](ProjectionOptions& o) { o.calibration.replicates = -2; },
       "ProjectionOptions.calibration.replicates must be positive, got -2"},
      {[](ProjectionOptions& o) { o.calibration.small_bytes = 0; },
       "ProjectionOptions.calibration.small_bytes must be positive"},
      {[](ProjectionOptions& o) {
         o.calibration.large_bytes = o.calibration.small_bytes;
       },
       "ProjectionOptions.calibration.large_bytes must exceed small_bytes"},
      {[](ProjectionOptions& o) { o.calibration.robustness.max_retries = -1; },
       "ProjectionOptions.calibration.robustness.max_retries must be "
       "non-negative, got -1"},
      {[](ProjectionOptions& o) { o.calibration.robustness.timeout_s = 0.0; },
       "ProjectionOptions.calibration.robustness.timeout_s must be positive, "
       "got 0"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.timeout_s = std::nan("");
       },
       "ProjectionOptions.calibration.robustness.timeout_s must be positive, "
       "got nan"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.timeout_s = -1.5;
       },
       "ProjectionOptions.calibration.robustness.timeout_s must be positive, "
       "got -1.5"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.backoff_initial_s = 0.0;
       },
       "ProjectionOptions.calibration.robustness.backoff_initial_s must be "
       "positive"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.backoff_max_s =
             o.calibration.robustness.backoff_initial_s / 2;
       },
       "ProjectionOptions.calibration.robustness.backoff_max_s must be >= "
       "backoff_initial_s"},
      {[](ProjectionOptions& o) { o.calibration.robustness.outlier_z = -1.0; },
       "ProjectionOptions.calibration.robustness.outlier_z must be positive"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.target_rel_half_width = std::nan("");
       },
       "ProjectionOptions.calibration.robustness.target_rel_half_width must "
       "be positive"},
      {[](ProjectionOptions& o) {
         o.calibration.robustness.max_replicates =
             o.calibration.replicates - 1;
       },
       "ProjectionOptions.calibration.robustness.max_replicates must be >= "
       "calibration.replicates"},
      {[](ProjectionOptions& o) { o.calibration.sweep_bytes = {64, 0}; },
       "ProjectionOptions.calibration.sweep_bytes entries must be positive"},
      {[](ProjectionOptions& o) { o.fusion_candidates = {1, 0, 2}; },
       "ProjectionOptions.fusion_candidates entries must be >= 1, got 0"},
  };
  for (const Case& test_case : cases) {
    ProjectionOptions options;
    test_case.mutate(options);
    try {
      options.validate();
      ADD_FAILURE() << "no UsageError; expected: " << test_case.message;
    } catch (const UsageError& error) {
      EXPECT_STREQ(error.what(), test_case.message);
    }
  }
  // The first failing field wins, and the defaults validate.
  ProjectionOptions two_bad;
  two_bad.measurement_runs = -3;
  two_bad.calibration.robustness.timeout_s = std::nan("");
  try {
    two_bad.validate();
    ADD_FAILURE() << "no UsageError for two bad fields";
  } catch (const UsageError& error) {
    EXPECT_STREQ(error.what(),
                 "ProjectionOptions.measurement_runs must be positive, got -3");
  }
  EXPECT_NO_THROW(ProjectionOptions{}.validate());
}

TEST(Grophecy, DeviceFootprintTracked) {
  Grophecy engine(hw::anl_eureka());
  const ProjectionReport report = engine.project(vector_add(1 << 20));
  EXPECT_EQ(report.device_footprint_bytes, 3u * (1 << 20) * 4);
  EXPECT_TRUE(report.fits_device_memory);
}

TEST(Grophecy, OversizedFootprintFlagged) {
  // Three 1-GiB vectors exceed the FX 5600's 1.5 GiB.
  Grophecy engine(hw::anl_eureka());
  const ProjectionReport report =
      engine.project(vector_add(std::int64_t{1} << 28));
  EXPECT_GT(report.device_footprint_bytes,
            hw::anl_eureka().gpu.memory_bytes);
  EXPECT_FALSE(report.fits_device_memory);
}

TEST(Report, AnalyticIterationCurveMatchesReprojection) {
  // The analytic curve from a 1-iteration report must track re-running the
  // engine at higher iteration counts (within the fusion-choice wiggle).
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const workloads::Workload& srad = *all[2];  // two kernels: no fusion
  const workloads::DataSize size = srad.paper_data_sizes().front();

  const ProjectionReport base = runner.run(srad, size, 1);
  for (int n : {1, 4, 16, 64}) {
    const ProjectionReport live = runner.run(srad, size, n);
    EXPECT_NEAR(base.predicted_speedup_at_iterations(n),
                live.predicted_speedup_both(),
                live.predicted_speedup_both() * 0.02)
        << n;
    EXPECT_NEAR(base.measured_speedup_at_iterations(n),
                live.measured_speedup(), live.measured_speedup() * 0.05)
        << n;
  }
  // The curve converges to the limit speedup.
  EXPECT_NEAR(base.measured_speedup_at_iterations(100000),
              base.measured_speedup_limit(),
              base.measured_speedup_limit() * 0.01);
  EXPECT_THROW(base.predicted_speedup_at_iterations(0), ContractViolation);
}

TEST(ExperimentRunner, RunAllSizesCoversTheCatalog) {
  ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const auto reports = runner.run_all_sizes(*all[2]);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_NE(reports[0].app_name.find("SRAD"), std::string::npos);
}

}  // namespace
}  // namespace grophecy::core
