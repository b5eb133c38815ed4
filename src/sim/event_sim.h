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
//
// A measurement's runs are independent once each knows where its draws
// start, and every jittered run draws exactly num_blocks + 1 normals. So
// measure_launch_seconds computes each run's starting stream up front
// (util::Rng::discard_normals) and, for measurements big enough to pay
// for a thread start, runs them on the calling thread plus helper
// threads, each with its own CohortEngine. The samples fold in run order
// through the per-run loop's Welford mean, so the result is bit-identical
// to measuring one run after another.
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

  /// The mean of `runs` run_launch_seconds observations, bit for bit,
  /// leaving the stream where the per-run loop would. When runs x
  /// num_blocks is large enough, the runs execute on the calling thread
  /// plus up to hardware_concurrency() - 1 helper threads drawn from one
  /// process-wide budget; every helper is joined before this returns. A
  /// failing run rethrows as the per-run loop's first failure would.
  /// One instance still serves one caller at a time.
  double measure_launch_seconds(const gpumodel::KernelCharacteristics& kc,
                                int runs) override;

  const hw::GpuSpec& gpu() const { return gpu_; }

  /// Counters from this instance's cohort engine's most recent
  /// simulation. For benches and tests. Helper threads simulate on their
  /// own engines, so after a measure_launch_seconds call that used them
  /// this is the last run the calling thread simulated, not necessarily
  /// the measurement's last run.
  const CohortSimStats& last_stats() const { return engine_.stats(); }

 private:
  hw::GpuSpec gpu_;
  util::Rng rng_;
  mutable CohortEngine engine_;
};

}  // namespace grophecy::sim
