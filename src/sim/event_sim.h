// Discrete-event GPU timing simulator (higher-fidelity cross-check).
//
// The wave-based GpuSimulator assumes blocks execute in synchronized waves
// and every SM gets an equal slice of DRAM bandwidth. Real devices are
// messier: the block scheduler is greedy (a finishing block's slot is
// refilled immediately), DRAM bandwidth is shared chip-wide, and
// block-to-block variation skews the tail. EventGpuSimulator models those
// effects with a fluid discrete-event simulation:
//
//   * every thread block carries a compute demand (issue cycles on its SM)
//     and a memory demand (bytes from the shared DRAM controller);
//   * resident blocks progress concurrently: compute rate is an equal
//     share of the SM's issue bandwidth, memory rate an equal share of
//     chip DRAM bandwidth — recomputed at every block start/finish event;
//   * the scheduler backfills the earliest free SM slot greedily.
//
// For homogeneous, fully occupied kernels the fluid model converges to the
// wave model (the cross-validation tests pin this), while partially filled
// tails and jittered blocks show the greedy scheduler's advantage. The
// projection pipeline can opt in via ProjectionOptions::detailed_sim.
//
// The cohort engine in sim/cohort_sim.h runs the fluid model: closed-form
// generations when jitter is off, per-stream threshold heaps when it is
// on. The original per-block O(events x resident) loop is the executable
// specification, kept as a test oracle in tests/support/ (with the same
// constructor, seeds and draw order); tests/sim_equivalence_test.cpp pins
// the cohort engine to it, bitwise when jitter is off.
#pragma once

#include <cstdint>

#include "gpumodel/characteristics.h"
#include "hw/machine.h"
#include "sim/cohort_sim.h"
#include "sim/gpu_sim.h"
#include "util/rng.h"

namespace grophecy::sim {

/// No settings remain; kept only while e2ebench/src/replay.cpp passes one.
struct EventSimOptions {};

/// Fluid discrete-event simulator of a GpuSpec.
class EventGpuSimulator final : public KernelTimer {
 public:
  /// The third argument is ignored; e2ebench/src/replay.cpp still passes it.
  EventGpuSimulator(hw::GpuSpec gpu, std::uint64_t seed,
                    EventSimOptions = {});

  /// Deterministic launch time with per-block jitter disabled.
  SimBreakdown expected_launch(const gpumodel::KernelCharacteristics& kc) const;

  /// One observation with per-block lognormal jitter (plus launch jitter).
  double run_launch_seconds(const gpumodel::KernelCharacteristics& kc) override;

  const hw::GpuSpec& gpu() const { return gpu_; }

  /// Counters from the cohort engine's most recent simulation. For
  /// benches and tests.
  const CohortSimStats& last_stats() const { return engine_.stats(); }

 private:
  /// Core fluid simulation; block_jitter_sigma = 0 gives the expectation.
  double simulate(const gpumodel::KernelCharacteristics& kc,
                  double block_jitter_sigma, util::Rng* rng) const;

  hw::GpuSpec gpu_;
  util::Rng rng_;
  mutable CohortEngine engine_;
};

}  // namespace grophecy::sim
