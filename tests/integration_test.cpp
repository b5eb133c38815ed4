// Cross-module integration tests: machine portability (the paper claims
// the technique "is not application or system specific"), the hw registry,
// and paper-shape checks that span the whole pipeline.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "util/contracts.h"
#include "util/error.h"
#include "skeleton/builder.h"
#include "util/stats.h"
#include "util/units.h"
#include "workloads/workload.h"

namespace grophecy {
namespace {

TEST(Registry, MachinesAreDistinctAndSane) {
  const auto machines = hw::builtin_machines();
  ASSERT_EQ(machines.size(), 3u);
  for (const hw::MachineSpec& m : machines) {
    EXPECT_GT(m.cpu.peak_gflops(), 0.0);
    EXPECT_GT(m.gpu.peak_gflops(), m.cpu.peak_gflops());
    EXPECT_GT(m.gpu.mem_bandwidth_gbps, m.cpu.mem_bandwidth_gbps);
    EXPECT_GT(m.pcie.pinned_h2d.asymptotic_gbps, 0.0);
  }
  const hw::MachineRegistry& registry = hw::MachineRegistry::global();
  EXPECT_EQ(registry.find("anl_eureka").name, "anl_eureka");
  // Lookup follows the workloads::find_workload contract: bad input is a
  // UsageError (not a ContractViolation) whose message lists the fleet.
  try {
    registry.find("nope");
    FAIL() << "find(\"nope\") did not throw";
  } catch (const UsageError& error) {
    EXPECT_NE(std::string(error.what()).find("anl_eureka"),
              std::string::npos)
        << error.what();
  }
}

TEST(Registry, PcieGenerationsScaleAsDocumented) {
  // §II-B: ~3, 6, 12 GB/s effective for PCIe v1, v2, v3 (we land at the
  // measured-in-practice values: ~2.5, ~5.5, ~11.5).
  const double v1 = hw::anl_eureka().pcie.pinned_h2d.asymptotic_gbps;
  const double v2 = hw::pcie2_fermi().pcie.pinned_h2d.asymptotic_gbps;
  const double v3 = hw::pcie3_kepler().pcie.pinned_h2d.asymptotic_gbps;
  EXPECT_NEAR(v2 / v1, 2.0, 0.4);
  EXPECT_NEAR(v3 / v2, 2.0, 0.4);
}

TEST(Portability, CalibrationAdaptsAcrossMachines) {
  // "The PCIe bus model is constructed automatically for each new system":
  // calibrated bandwidth must track each machine's physical link.
  for (const hw::MachineSpec& machine : hw::builtin_machines()) {
    pcie::SimulatedBus bus(machine.pcie, 5);
    const pcie::BusModel model = pcie::TransferCalibrator().calibrate(bus);
    const double predicted_64mb = model.predict_seconds(
        64 * util::kMiB, hw::Direction::kHostToDevice);
    const double truth = bus.expected_time(
        64 * util::kMiB, hw::Direction::kHostToDevice,
        hw::HostMemory::kPinned);
    EXPECT_NEAR(predicted_64mb, truth, truth * 0.05) << machine.name;
  }
}

TEST(Portability, FasterBusMovesTheSameDataFaster) {
  // The same workload's transfers run ~4.5x faster over PCIe v3 than over
  // the paper's PCIe v1 link. (The transfer *share* of total time need not
  // shrink — the newer GPU speeds kernels up even more, which is exactly
  // why transfer modeling stays relevant across generations.)
  const auto all = workloads::paper_workloads();
  core::ExperimentRunner v1_runner(hw::anl_eureka());
  core::ExperimentRunner v3_runner(hw::pcie3_kepler());
  const auto size = all[2]->paper_data_sizes().back();  // SRAD 4096
  const core::ProjectionReport v1 = v1_runner.run(*all[2], size);
  const core::ProjectionReport v3 = v3_runner.run(*all[2], size);
  EXPECT_EQ(v1.plan.total_bytes(), v3.plan.total_bytes());
  EXPECT_NEAR(v1.measured_transfer_s / v3.measured_transfer_s, 4.5, 1.0);
}

TEST(Portability, PipelineRunsOnEveryMachine) {
  const auto all = workloads::paper_workloads();
  for (const hw::MachineSpec& machine : hw::builtin_machines()) {
    core::ExperimentRunner runner(machine);
    const core::ProjectionReport report =
        runner.run(*all[1], all[1]->paper_data_sizes()[1]);
    EXPECT_GT(report.measured_total_s(), 0.0) << machine.name;
    EXPECT_LT(report.speedup_error_both_pct(), 50.0) << machine.name;
  }
}

TEST(PaperShape, TransferDominatesAllButSmallestHotspot) {
  // Table I: "for all applications and data sets, with the exception of
  // HotSpot's smallest data set, the transfer time is greater than the
  // kernel execution time." Our simulated machine keeps transfer dominant
  // everywhere (the 64x64 HotSpot kernel is launch-overhead bound).
  core::ExperimentRunner runner;
  for (const auto& workload : workloads::paper_workloads()) {
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      const core::ProjectionReport report = runner.run(*workload, size);
      EXPECT_GT(report.measured_transfer_s, report.measured_kernel_s)
          << workload->name() << " " << size.label;
    }
  }
}

TEST(PaperShape, AveragesReproduceTheHeadline) {
  // Abstract: "the inclusion of data transfer time reduces the error in
  // the predicted GPU speedup from 255% to 9%" — we check the ordering and
  // magnitude bands rather than exact percentages.
  core::ExperimentRunner runner;
  std::vector<double> kernel_only, transfer_only, both;
  for (const auto& workload : workloads::paper_workloads()) {
    std::vector<double> wk_kernel, wk_transfer, wk_both;
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      const core::ProjectionReport report = runner.run(*workload, size);
      wk_kernel.push_back(report.speedup_error_kernel_only_pct());
      wk_transfer.push_back(report.speedup_error_transfer_only_pct());
      wk_both.push_back(report.speedup_error_both_pct());
    }
    kernel_only.push_back(util::mean(wk_kernel));
    transfer_only.push_back(util::mean(wk_transfer));
    both.push_back(util::mean(wk_both));
  }
  const double avg_kernel = util::mean(kernel_only);
  const double avg_transfer = util::mean(transfer_only);
  const double avg_both = util::mean(both);
  EXPECT_GT(avg_kernel, 150.0);       // hundreds of percent
  EXPECT_LT(avg_transfer, avg_kernel);  // transfer-only is better...
  EXPECT_GT(avg_transfer, avg_both);    // ...but combined wins
  EXPECT_LT(avg_both, 20.0);            // paper: 9%
}

TEST(PaperShape, KernelErrorTracksIrregularity) {
  // Fig. 6: the irregular CFD has the worst kernel predictions; the
  // regular SRAD the best.
  core::ExperimentRunner runner;
  const auto all = workloads::paper_workloads();
  const double cfd_err =
      runner.run(*all[0], all[0]->paper_data_sizes().front())
          .kernel_error_pct();
  const double srad_err =
      runner.run(*all[2], all[2]->paper_data_sizes().back())
          .kernel_error_pct();
  EXPECT_GT(cfd_err, 15.0);
  EXPECT_LT(srad_err, 5.0);
  EXPECT_GT(cfd_err, srad_err * 3.0);
}

}  // namespace
}  // namespace grophecy
