// The analytical GPU kernel-time model (GROPHECY's performance model).
//
// Projects the *best achievable* execution time of a transformed kernel
// from its characteristics: the maximum of a compute-throughput bound, a
// DRAM-bandwidth bound (at peak bandwidth), and a latency-exposure bound
// (warp parallelism from occupancy), plus the kernel launch overhead.
//
// The model knows what a model can know: coalescing rules, occupancy, a
// calibrated streaming-bandwidth efficiency, and a DRAM-locality derating
// for data-dependent gathered streams. It deliberately does NOT model what
// GROPHECY could not know without running the code: transaction replay on
// uncoalesced warps, exposed latency of pointer-chasing gathers, wave
// quantization, instruction overhead, barrier costs. The GPU simulator
// (src/sim) prices those too; the gap between the two is the paper's
// kernel prediction error (Fig. 6 — small for regular kernels like SRAD,
// ~30% for the irregular CFD).
#pragma once

#include <optional>

#include "gpumodel/characteristics.h"
#include "gpumodel/occupancy.h"
#include "hw/machine.h"

namespace grophecy::gpumodel {

/// Instruction slots consumed by one special-function op relative to a MAD.
/// One definition shared by the analytical model and both simulators:
/// compute-bound kernels predict well only because all three price the
/// instruction stream identically.
inline constexpr double kSpecialInstCost = 4.0;

/// Warp-level cost of one execution of a memory access: how many
/// transactions the warp issues and how many bytes actually move.
struct WarpAccessCost {
  double transactions = 1.0;
  double bytes_moved = 0.0;
};

/// Coalescing math shared by the model and the simulator. Scattered
/// accesses issue one transaction per lane at minimum-granularity (32 B);
/// strided accesses span stride*warp elements rounded to full segments.
WarpAccessCost warp_access_cost(const MemAccess& access,
                                const hw::GpuSpec& gpu);

/// Per-warp demands of one kernel variant on one device: the instruction
/// stream, the effective DRAM traffic (replay + locality), and the exposed
/// memory latency. This is the single source of the per-warp math consumed
/// by the wave simulator, the event simulator, and (for the instruction
/// stream) the analytical model — the numbers all three must agree on.
struct WarpDemands {
  int warps_per_block = 0;
  /// SM issue cycles per warp instruction (warp_size / cores_per_sm).
  double issue_cycles = 0.0;
  /// Overhead-scaled dynamic instructions per thread (MADs + specials at
  /// kSpecialInstCost + addressing/control).
  double insts_per_thread = 0.0;
  /// Issue cycles per warp: insts_per_thread * issue_cycles.
  double compute_cycles = 0.0;
  /// Effective DRAM bytes per warp after replay and locality derating.
  double traffic_bytes = 0.0;
  /// Warp-level memory instructions per warp (dynamic).
  double mem_insts = 0.0;
  /// Exposed DRAM latency cycles per warp before warp overlap.
  double latency_cycles = 0.0;
};

/// Derives the per-warp demands of `kc` on `gpu`. Pure; identical floating
/// point expression order as the historical in-simulator math, so existing
/// simulator outputs are bit-for-bit unchanged.
WarpDemands warp_demands(const KernelCharacteristics& kc,
                         const hw::GpuSpec& gpu);

/// Timing breakdown of one kernel launch.
struct KernelTimeBreakdown {
  double compute_s = 0.0;    ///< FLOP + SFU throughput bound.
  double bandwidth_s = 0.0;  ///< DRAM traffic at peak bandwidth.
  double latency_s = 0.0;    ///< Exposed memory latency after warp overlap.
  double sync_s = 0.0;       ///< Barrier cost (analytical model: 0).
  double launch_s = 0.0;     ///< Driver + dispatch overhead.
  double total_s = 0.0;
  Occupancy occupancy;
  bool feasible = true;      ///< False when the variant cannot launch.

  /// Which bound dominates: "compute", "bandwidth", or "latency".
  const char* bound = "";
};

/// Tunables of the analytical model (not of the device): calibrated
/// efficiencies a model builder derives once per architecture family.
struct ModelOptions {
  /// Fraction of peak DRAM bandwidth assumed sustainable by streaming
  /// kernels (GROPHECY-style models calibrate this with microbenchmarks).
  double streaming_bw_efficiency = 0.75;
  /// Additional bandwidth derating assumed for gathered streams (poor DRAM
  /// page locality).
  double gathered_stream_efficiency = 0.32;
};

/// Analytical model of a GpuSpec. Holds no mutable state, so one instance
/// may serve any number of threads at once.
class KernelTimeModel {
 public:
  explicit KernelTimeModel(hw::GpuSpec gpu, ModelOptions options = {});

  /// Projects one launch of the characterized kernel variant.
  KernelTimeBreakdown project(const KernelCharacteristics& kc) const;

  /// Same projection with the occupancy precomputed (the explorer memoizes
  /// it across variants sharing a (block_size, regs, smem) footprint).
  /// `occ` must equal compute_occupancy for kc's geometry.
  KernelTimeBreakdown project(const KernelCharacteristics& kc,
                              const Occupancy& occ) const;

  /// Bounded projection for branch-and-bound exploration: returns
  /// std::nullopt as soon as any single lower bound already proves
  /// total_s >= cutoff_s (each bound is a lower bound on the total, so a
  /// pruned variant can never beat an incumbent with total < cutoff_s).
  /// Infeasible variants return a breakdown with feasible == false, like
  /// project().
  std::optional<KernelTimeBreakdown> project_if_below(
      const KernelCharacteristics& kc, const Occupancy& occ,
      double cutoff_s) const;

  const hw::GpuSpec& gpu() const { return gpu_; }
  const ModelOptions& options() const { return options_; }

 private:
  hw::GpuSpec gpu_;
  ModelOptions options_;
};

}  // namespace grophecy::gpumodel
