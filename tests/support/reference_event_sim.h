// The original per-block fluid simulator, kept as the executable
// specification of sim::EventGpuSimulator's fluid model.
//
// Per event it rescans every resident block to rebuild consumer counts,
// find the earliest demand exhaustion, and decrement every demand:
// O(events x resident) work, plus an O(num_sms) min_element per placed
// block. The cohort engine (sim/cohort_sim.h) replaced it in the library;
// this copy stays the oracle it is measured and tested against:
//
//   * tests/sim_equivalence_test.cpp pins the cohort engine to it —
//     bitwise when jitter is off, per run to rounding and distributionally
//     when it is on;
//   * bench/micro_sim gates the cohort engine's speedup over it.
//
// It is built from a GpuSpec and a seed like EventGpuSimulator, seeds its
// stream the same way and draws in the same order, so one seed gives both
// engines the same jittered workload. Not for production use.
#pragma once

#include <cstdint>
#include <vector>

#include "gpumodel/characteristics.h"
#include "hw/machine.h"
#include "sim/cohort_sim.h"
#include "sim/gpu_sim.h"
#include "util/rng.h"

namespace grophecy::sim {

/// Per-block fluid discrete-event simulator of a GpuSpec.
class ReferenceEventSimulator final : public KernelTimer {
 public:
  ReferenceEventSimulator(hw::GpuSpec gpu, std::uint64_t seed);

  /// Deterministic launch time with per-block jitter disabled.
  SimBreakdown expected_launch(const gpumodel::KernelCharacteristics& kc) const;

  /// One observation with per-block lognormal jitter (plus launch jitter).
  double run_launch_seconds(const gpumodel::KernelCharacteristics& kc) override;

 private:
  /// One resident block's remaining demands.
  struct RunningBlock {
    int sm = 0;
    double compute_left = 0.0;
    double memory_left = 0.0;
    double floor_left = 0.0;

    bool done() const {
      return compute_left <= kSimEps && memory_left <= kSimEps &&
             floor_left <= kSimEps;
    }
  };

  /// Core fluid simulation; block_jitter_sigma = 0 gives the expectation.
  double simulate_reference(const gpumodel::KernelCharacteristics& kc,
                            double block_jitter_sigma, util::Rng* rng) const;

  hw::GpuSpec gpu_;
  util::Rng rng_;
  // Scratch, hoisted so repeated simulations do not reallocate per call.
  mutable std::vector<int> sm_load_;
  mutable std::vector<RunningBlock> running_;
  mutable std::vector<int> compute_consumers_;
};

}  // namespace grophecy::sim
