// CPU timing simulator — the "measured" side of the baseline.
//
// Plays the role of actually running the OpenMP baseline on the modeled
// machine: it starts from the same roofline skeleton analysis as CpuModel
// but charges the realism effects a live run exhibits (achieved rather than
// peak bandwidth, imperfect parallel scaling, per-sweep cache cold misses)
// and adds seeded run-to-run jitter. Reported times are means of N runs,
// mirroring the paper's methodology (§IV-A: arithmetic mean of ten runs).
#pragma once

#include <cstdint>
#include <span>

#include "brs/footprint.h"
#include "cpumodel/cpu_model.h"
#include "hw/machine.h"
#include "skeleton/skeleton.h"
#include "util/rng.h"

namespace grophecy::cpumodel {

/// Stochastic simulator of the host CPU executing an application skeleton.
class CpuSimulator {
 public:
  CpuSimulator(hw::CpuSpec spec, std::uint64_t seed);

  /// Deterministic expected wall time for the whole application (the value
  /// jitter is applied around).
  double expected_app_seconds(const skeleton::AppSkeleton& app) const;

  /// One noisy "run" of the application.
  double run_app_seconds(const skeleton::AppSkeleton& app);

  /// Arithmetic mean of `runs` independent runs.
  double measure_app_seconds(const skeleton::AppSkeleton& app, int runs);

  /// The same from the brs::kernel_footprint of each kernel (in kernel
  /// order) and the iteration count: what the app overload computes
  /// first, so a caller holding them (dataflow::UsageArtifact) skips the
  /// section analysis. Bitwise equal to the app overload, and draws the
  /// same jitter stream.
  double measure_app_seconds(std::span<const brs::KernelFootprint> footprints,
                             int iterations, int runs);

  const hw::CpuSpec& spec() const { return spec_; }

 private:
  /// expected_app_seconds from footprints and the iteration count.
  double expected_app_seconds(std::span<const brs::KernelFootprint> footprints,
                              int iterations) const;

  hw::CpuSpec spec_;
  util::Rng rng_;
};

}  // namespace grophecy::cpumodel
