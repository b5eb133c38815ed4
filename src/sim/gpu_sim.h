// GPU timing simulator — the "machine" the projections are validated against.
//
// Where the analytical model (gpumodel::KernelTimeModel) projects the best
// achievable time, the simulator prices what a real device charges for the
// same transformed kernel:
//
//   * wave quantization: blocks launch in waves of (blocks/SM x SMs); the
//     final partial wave underutilizes the chip,
//   * achieved (not peak) DRAM bandwidth,
//   * transaction replay for uncoalesced/strided access, and an extra
//     latency penalty for data-dependent gathers (CFD's neighbor lists),
//   * instruction overhead for addressing/control the skeleton's FLOP
//     counts do not capture,
//   * limited memory-level parallelism (MWP) when occupancy is low,
//   * barrier costs, and
//   * seeded lognormal run-to-run jitter.
//
// Both sides consume the same KernelCharacteristics, mirroring the paper's
// methodology: the hand-written "real" kernel uses the transformations
// GROPHECY suggested (§IV-A); the difference is what the hardware does to
// them. That difference is exactly the kernel prediction error studied in
// Fig. 6.
#pragma once

#include <cstdint>

#include "gpumodel/characteristics.h"
#include "hw/machine.h"
#include "util/rng.h"

namespace grophecy::sim {

/// Noiseless timing decomposition of one simulated launch.
struct SimBreakdown {
  double compute_s = 0.0;
  double memory_s = 0.0;
  double latency_s = 0.0;
  double sync_s = 0.0;
  double launch_s = 0.0;
  double total_s = 0.0;
  int waves = 0;  ///< Block scheduling waves (incl. partial final wave).
};

/// Anything that can time one launch of a characterized kernel. Implemented
/// by the simulators here; on a real system it would wrap a kernel launch +
/// cudaEvent timing. The faults module wraps any KernelTimer to inject
/// measurement faults, exactly as it wraps pcie::TransferTimer.
class KernelTimer {
 public:
  virtual ~KernelTimer() = default;

  /// One noisy observation of a launch. Each call is independent.
  virtual double run_launch_seconds(
      const gpumodel::KernelCharacteristics& kc) = 0;

  /// Arithmetic mean of `runs` observations (paper: mean of ten runs),
  /// one run_launch_seconds call per run. Simulators override this to
  /// measure faster: GpuSimulator computes its expected time once per
  /// measurement, EventGpuSimulator runs big measurements' runs on helper
  /// threads. Each override's draws, mean and final stream stay
  /// bit-identical to this loop's (the fold is sim/running_mean.h).
  virtual double measure_launch_seconds(
      const gpumodel::KernelCharacteristics& kc, int runs);
};

/// Stochastic simulator of a GpuSpec executing characterized kernels.
class GpuSimulator final : public KernelTimer {
 public:
  GpuSimulator(hw::GpuSpec gpu, std::uint64_t seed);

  /// Deterministic expected time of one launch (jitter-free).
  SimBreakdown expected_launch(const gpumodel::KernelCharacteristics& kc) const;

  /// One noisy observation of a launch.
  double run_launch_seconds(const gpumodel::KernelCharacteristics& kc) override;

  /// The per-run loop with expected_launch computed once.
  double measure_launch_seconds(const gpumodel::KernelCharacteristics& kc,
                                int runs) override;

  const hw::GpuSpec& gpu() const { return gpu_; }

 private:
  hw::GpuSpec gpu_;
  util::Rng rng_;
};

}  // namespace grophecy::sim
