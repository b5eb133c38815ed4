// The transformation-space explorer.
//
// Enumerates Variants (block sizes x shared-memory staging x unrolling),
// characterizes each, projects each with the analytical model, and keeps
// the fastest feasible one — GROPHECY's "projects the best achievable
// performance and the transformations necessary to reach it" (§II-C).
// Iteration fusion is explored at the application level by the orchestrator
// because its payoff depends on the iteration count.
//
// best() is a pure function of the kernel, its app's arrays, the fuse
// factor, the GpuSpec and the options, so core::Grophecy serves it from
// the process-wide best-variant cache (gpumodel/variant_cache.h): a sweep
// or the daemon searches once per (skeleton content, kernel, fuse) and
// GPU, not once per job. A search memoizes occupancy, keyed on the exact
// (block_size, regs, smem) triple that many variants share, and prunes
// variants whose single-bound lower bound already matches or exceeds the
// incumbent (KernelTimeModel::project_if_below). Pruning cannot change
// the winner: total_s = max(bounds) + launch_s, so one bound at the
// cutoff proves the variant cannot beat it, and the incumbent only
// advances on strictly smaller totals (the same first-of-equals tie-break
// as min_element). Every variant that survives pruning is projected.
//
// The occupancy memo and the stats counters make Explorer stateful:
// instances are NOT thread-safe. Sweeps build one engine, and so one
// explorer, per job (exec::SweepRequest::job_fn).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpumodel/kernel_model.h"
#include "gpumodel/occupancy.h"
#include "skeleton/skeleton.h"

namespace grophecy::gpumodel {

/// One explored point: a variant, its characteristics, and its projection.
struct ProjectedKernel {
  Variant variant;
  KernelCharacteristics characteristics;
  KernelTimeBreakdown time;  ///< Per launch.
};

/// The transformation space to search; defaults cover the axes the paper's
/// workloads exercise.
struct ExplorerOptions {
  std::vector<int> block_sizes{64, 128, 192, 256, 384, 512};
  bool explore_smem_staging = true;
  /// Try both thread mappings when the kernel has >= 2 parallel loops.
  bool explore_loop_interchange = true;
  /// Sequential-loop (reduction) tile sizes tried when the kernel has
  /// GEMM-like operand reads; 0 (untiled) is always tried too.
  std::vector<int> seq_tile_factors{8, 16, 32};
  std::vector<int> unroll_factors{1, 2, 4};
  /// Calibrated efficiencies of the underlying analytical model.
  ModelOptions model;
};

/// Lifetime counters of one Explorer's work, for tests and e2ebench's
/// traced run. Monotonic; cheap to maintain.
struct ExploreStats {
  std::uint64_t variants = 0;          ///< Variants enumerated.
  std::uint64_t infeasible = 0;        ///< Rejected by occupancy.
  std::uint64_t pruned = 0;            ///< Dominance-pruned in best().
  std::uint64_t occupancy_hits = 0;
  std::uint64_t occupancy_misses = 0;
  /// Always 0: no projection memo; kept because e2ebench reads it.
  std::uint64_t projection_hits = 0;
  /// Always 0: no projection memo; kept because e2ebench reads it.
  std::uint64_t projection_misses = 0;
};

/// Enumerates and ranks kernel variants on a given GPU.
class Explorer {
 public:
  explicit Explorer(hw::GpuSpec gpu, ExplorerOptions options = {});

  /// Projects every feasible variant of `kernel` (fuse factor fixed).
  std::vector<ProjectedKernel> explore(const skeleton::AppSkeleton& app,
                                       const skeleton::KernelSkeleton& kernel,
                                       int fuse_iterations = 1) const;

  /// The fastest feasible variant. Requires at least one feasible variant
  /// (always true for valid kernels: plain block sizes are feasible).
  /// Equivalent to min_element over explore() but prunes dominated
  /// variants before paying for their full projection.
  ProjectedKernel best(const skeleton::AppSkeleton& app,
                       const skeleton::KernelSkeleton& kernel,
                       int fuse_iterations = 1) const;

  const ExplorerOptions& options() const { return options_; }
  const hw::GpuSpec& gpu() const { return model_.gpu(); }
  const KernelTimeModel& model() const { return model_; }
  const ExploreStats& stats() const { return stats_; }
  /// Content key of gpu() and options(), folded at construction: two
  /// explorers with equal keys return the same best() for every input
  /// (gpumodel/variant_cache.h keys on it).
  std::uint64_t key() const { return key_; }

 private:
  Occupancy occupancy_for(const KernelCharacteristics& kc) const;

  KernelTimeModel model_;
  ExplorerOptions options_;
  std::uint64_t key_;
  mutable ExploreStats stats_;
  mutable std::unordered_map<std::uint64_t, Occupancy> occupancy_memo_;
};

}  // namespace grophecy::gpumodel
