// GROPHECY++ — the top-level projection facade (paper contribution 3).
//
// Given a machine description and an application skeleton, Grophecy:
//
//   1. calibrates the PCIe linear model with the two-point synthetic
//      benchmark ("automatically invoked when run on a new system", §III-C),
//   2. explores GPU code transformations per kernel and projects the best
//      achievable kernel time (GROPHECY, §II-C), including temporal fusion
//      for single-kernel iterative apps,
//   3. runs the data-usage analyzer to obtain the transfer plan (§III-B)
//      and prices it with the calibrated bus model,
//   4. "measures" the same configuration on the simulated machine (GPU
//      simulator + stochastic bus + CPU simulator, means of N runs), and
//   5. returns a ProjectionReport with predicted/measured times, speedups,
//      and the paper's error metrics.
//
// On a real system, step 4 would be actual hardware runs; the report and
// everything above it would not change (see DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/report.h"
#include "cpumodel/cpu_sim.h"
#include "gpumodel/explorer.h"
#include "hw/machine.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "sim/event_sim.h"
#include "sim/gpu_sim.h"
#include "skeleton/skeleton.h"

namespace grophecy::core {

/// Knobs of the projection pipeline; defaults follow the paper.
struct ProjectionOptions {
  /// Runs averaged per reported measurement (paper: ten).
  int measurement_runs = 10;
  /// Master seed; all stochastic components derive their streams from it.
  std::uint64_t seed = 42;
  /// Host memory mode assumed for transfers (paper assumes pinned).
  hw::HostMemory memory = hw::HostMemory::kPinned;
  pcie::CalibrationOptions calibration;
  gpumodel::ExplorerOptions explorer;
  /// Temporal-fusion factors tried for single-kernel iterative apps.
  std::vector<int> fusion_candidates{1, 2, 4};
  /// Overrides the bus noise for the measurement phase only (used to
  /// reproduce the paper's outlier-afflicted CFD transfers, §V-A).
  std::optional<hw::PcieNoiseProfile> measurement_noise;
  /// Measure kernels with the discrete-event fluid simulator
  /// (sim::EventGpuSimulator) instead of the wave-based one: greedy block
  /// scheduling + chip-wide DRAM contention.
  bool detailed_sim = false;
  /// Empty; kept only while e2ebench/src/replay.cpp reads it.
  sim::EventSimOptions event_sim;
  /// Serve calibration, built skeletons, usage-analysis artifacts and
  /// best kernel variants from the process-wide artifact caches
  /// (util/artifact_cache.h). Calibration runs once per (machine,
  /// calibration options, memory mode, calibration seed) per process, as
  /// the paper intends ("invoked when run on a new system", §III-C); the
  /// transfer plan and the kernels' BRS footprints (which the CPU
  /// measurement prices) are keyed by the skeleton's content fingerprint
  /// WITHOUT the iteration count (plans are iteration independent,
  /// §III-B), so iteration sweeps analyze each data size once; and the
  /// explorer searches once per (skeleton content, kernel, fuse factor,
  /// GPU, explorer options), seed and iteration count aside.
  /// Content-addressed keys make results identical either way; only
  /// repeated work is skipped. Off, the engine computes everything itself
  /// and touches no process-wide cache. See docs/performance.md,
  /// "Artifact caches".
  bool use_artifact_caches = true;
  /// Seed for the calibration bus stream. Unset (the default) derives it
  /// from `seed` as before. Sweeps that give every job its own master seed
  /// set this to a shared value so all jobs on one machine hit the same
  /// cache entry — calibration is per-system, measurement streams per-job.
  std::optional<std::uint64_t> calibration_seed;

  /// Throws UsageError naming the offending field when a knob is out of
  /// range (e.g. non-positive measurement_runs or replicates). Grophecy
  /// and ExperimentRunner call this at construction.
  void validate() const;
};

/// The projection engine for one machine.
class Grophecy {
 public:
  explicit Grophecy(hw::MachineSpec machine, ProjectionOptions options = {});

  /// The bus model calibrated at construction.
  const pcie::BusModel& bus_model() const {
    return calibration_report_.model;
  }

  /// Full account of how that model was obtained: fit quality, per-probe
  /// telemetry (retries, rejected samples, timeouts), and whether the
  /// pipeline degraded to the spec-derived fallback. Construction never
  /// throws on calibration failure — it degrades and records why here.
  const pcie::CalibrationReport& calibration_report() const {
    return calibration_report_;
  }

  /// Projects (and "measures") one application. Stochastic measurement
  /// streams advance with every call; calling twice yields independent
  /// observations of the same expected values.
  ProjectionReport project(const skeleton::AppSkeleton& app);

  /// Same, with the skeleton's precomputed usage fingerprint
  /// (skeleton::usage_fingerprint) so a skeleton hashed once at build —
  /// e.g. by workloads::cached_skeleton — is never re-hashed here.
  ProjectionReport project(const skeleton::AppSkeleton& app,
                           std::uint64_t usage_key);

  const hw::MachineSpec& machine() const { return machine_; }
  const ProjectionOptions& options() const { return options_; }

 private:
  /// The public constructor delegates here with the seeds of the four
  /// stochastic streams, derived once from options.seed.
  Grophecy(hw::MachineSpec&& machine, ProjectionOptions&& options,
           const std::array<std::uint64_t, 4>& seeds);

  ProjectionReport project_impl(const skeleton::AppSkeleton& app,
                                std::optional<std::uint64_t> usage_key);

  hw::MachineSpec machine_;
  ProjectionOptions options_;
  pcie::SimulatedBus measurement_bus_;
  pcie::CalibrationReport calibration_report_;
  gpumodel::Explorer explorer_;
  /// The simulator ProjectionOptions::detailed_sim selects: the
  /// discrete-event one, or the wave-based one.
  std::unique_ptr<sim::KernelTimer> kernel_timer_;
  cpumodel::CpuSimulator cpu_sim_;
};

}  // namespace grophecy::core
