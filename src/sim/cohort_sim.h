// The cohort event engine — the fast projection hot path.
//
// The original discrete-event fluid simulator (kept as the test oracle in
// tests/support/reference_event_sim.h) advances every resident block
// individually: per event it rebuilds consumer counts, allocates a per-SM
// scratch vector, scans all resident blocks three times, and places
// pending blocks with an O(num_sms) min_element per block. That is
// O(events x resident) work with events ~ O(num_blocks) — the wall-clock
// bottleneck of every projection sweep.
//
// This engine exploits the structure of the fluid model instead:
//
//   * Jitter-free (the expected_launch path): every block of a launch has
//     bitwise-identical demands, so the resident set always forms one
//     synchronized generation of at most TWO cohorts (SMs holding
//     ceil(G/num_sms) blocks and SMs holding floor(G/num_sms)). Each
//     generation is advanced with the same per-event arithmetic as the
//     reference, but per cohort instead of per block: O(1) work per event
//     and O(num_blocks / chip_capacity) generations in total. Because the
//     floating-point expressions and event sequence are identical, the
//     result is bit-for-bit equal to the reference simulator.
//
//   * Jittered (the run_launch_seconds path): per-block lognormal jitter
//     breaks the symmetry, but the fluid rates stay fair-share: every
//     memory consumer drains at the same chip_bw/m rate, every compute
//     consumer on one SM at the same issue/c_s rate, and every floor at
//     rate 1. Demands therefore exhaust in a FIXED per-stream order that
//     rate changes cannot reorder — each block's exhaustion point is a
//     constant threshold in its stream's "drain level" coordinate.
//     Thresholds go into per-stream flat 4-ary min-heaps (SoA
//     threshold[]/cohort[] arrays, util::FlatDaryHeap) once at placement;
//     a lazy per-stream next-exhaustion-time array scanned with a
//     vectorized min picks the next event, so a rate change rekeys one
//     stream with one multiply against precomputed fair-share rate tables
//     instead of a divide plus a heap sift. Demands whose drain rate is
//     frozen for the cohort's whole residency — the floor (rate 1 always)
//     and, when occupancy is one block per SM, the private compute stream
//     — never enter a heap at all: they fold into one per-cohort wall-
//     clock deadline resolved at the cohort's last demand pop (or by the
//     deadline heap when the folded demand is what gates retirement), so
//     non-gating exhaustions cost no events. Jitter draws are batched
//     through util::Rng::fill_lognormal (bitwise the sequential stream),
//     and every block is a cohort of its own (one heap entry per demand,
//     one retirement). All scratch is engine-owned and grow-only: after
//     the first launch on a chip geometry, a whole simulation runs
//     without touching the allocator (gated by micro_sim's operator-new
//     counter).
//
// See docs/performance.md for the invariants and the micro_sim numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "gpumodel/characteristics.h"
#include "gpumodel/occupancy.h"
#include "hw/machine.h"
#include "util/flat_dary_heap.h"
#include "util/rng.h"

namespace grophecy::sim {

/// Demand threshold below which a demand counts as exhausted (shared with
/// the reference engine in tests/support so the two agree on degeneracy).
inline constexpr double kSimEps = 1e-15;

/// Static per-block demands derived from the kernel characteristics via
/// the per-warp math shared with the wave simulator
/// (gpumodel::warp_demands).
struct BlockDemands {
  double compute_cycles = 0.0;  ///< SM issue cycles.
  double memory_bytes = 0.0;    ///< Effective DRAM demand (replay/locality).
  double floor_s = 0.0;         ///< Serial floor: exposed latency + syncs.
};

BlockDemands block_demands(const gpumodel::KernelCharacteristics& kc,
                           const hw::GpuSpec& gpu,
                           const gpumodel::Occupancy& occ);

/// Throughput counters of the last simulation, for tests, the micro_sim
/// bench, and docs/performance.md. Cheap to maintain; not part of the
/// simulated physics.
struct CohortSimStats {
  std::uint64_t events = 0;       ///< Exhaustion events processed.
  std::uint64_t cohorts = 0;      ///< Cohorts created (jittered path).
  std::uint64_t generations = 0;  ///< Synchronized generations (jitter-free).
  std::int64_t blocks = 0;        ///< Blocks scheduled.
};

/// The cohort engine. Owns reusable scratch so repeated simulations do not
/// allocate. Not thread-safe: each EventGpuSimulator owns one, and every
/// helper thread of a parallel measurement simulates on its own.
class CohortEngine {
 public:
  /// Jitter-free expected launch body (no launch overhead added).
  /// Bitwise-identical to the reference engine's jitter-free result.
  double simulate_expected(const gpumodel::KernelCharacteristics& kc,
                           const hw::GpuSpec& gpu);

  /// One jittered launch body (no launch overhead added): each block's
  /// demands scale by a lognormal(1, sigma) draw taken in placement order.
  double simulate_jittered(const gpumodel::KernelCharacteristics& kc,
                           const hw::GpuSpec& gpu, double sigma,
                           util::Rng& rng);

  const CohortSimStats& stats() const { return stats_; }

 private:
  // --- jittered-path state, all structure-of-arrays and grow-only so the
  //     steady-state loop never allocates (reserved once per chip geometry,
  //     cleared without freeing between launches).
  struct StreamCore {
    double level = 0.0;     ///< Drain level at last_t.
    double last_t = 0.0;
    double rate = 0.0;      ///< Per-block drain rate.
    double inv_rate = 0.0;  ///< Reciprocal companion: multiply, don't divide.
  };

  CohortSimStats stats_;
  std::vector<StreamCore> streams_;
  std::vector<util::FlatDaryHeap<4>> heaps_;  ///< Thresholds per stream.
  std::vector<double> next_time_;  ///< Lazy next exhaustion time per stream.
  // Cohorts as parallel arrays; retired slots recycle through free_cohorts_.
  std::vector<std::int32_t> cohort_sm_;
  std::vector<std::uint8_t> cohort_remaining_;  ///< Unexhausted-demand bits.
  std::vector<double> cohort_deadline_;  ///< Folded constant-rate demands.
  std::vector<std::int32_t> free_cohorts_;
  std::vector<std::int32_t> freed_sms_;  ///< Solo path: SMs freed this event.
  std::vector<int> sm_load_;
  std::vector<std::int64_t> compute_consumers_;
  // Fair-share rates indexed by consumer count: rate[c] is bitwise the
  // reference's issue/c (resp. bw/c); the precomputed reciprocal turns the
  // per-refresh division into a multiply.
  std::vector<double> compute_rate_;
  std::vector<double> compute_inv_rate_;
  std::vector<double> mem_rate_;
  std::vector<double> mem_inv_rate_;
  std::vector<double> draw_;  ///< Jitter draws of one placement batch.
  std::vector<std::size_t> dirty_;
  std::vector<char> dirty_flag_;
};

}  // namespace grophecy::sim
