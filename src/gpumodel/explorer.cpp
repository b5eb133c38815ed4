#include "gpumodel/explorer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/artifact_cache.h"
#include "util/contracts.h"

namespace grophecy::gpumodel {

namespace {

/// Shared enumeration order of explore() and best(): identical sequences
/// keep best() equivalent to min_element over explore().
template <typename Fn>
void for_each_variant(const ExplorerOptions& options, const hw::GpuSpec& gpu,
                      const skeleton::AppSkeleton& app,
                      const skeleton::KernelSkeleton& kernel,
                      int fuse_iterations, Fn&& fn) {
  std::vector<int> seq_tiles{0};
  if (has_reduction_staging_candidates(app, kernel)) {
    for (int tile : options.seq_tile_factors)
      if (tile > 0) seq_tiles.push_back(tile);
  }

  int parallel_levels = 0;
  for (const skeleton::Loop& loop : kernel.loops)
    if (loop.parallel) ++parallel_levels;
  const int max_swap =
      options.explore_loop_interchange && parallel_levels >= 2 ? 1 : 0;

  for (int block_size : options.block_sizes) {
    if (block_size < gpu.warp_size || block_size > gpu.max_threads_per_block)
      continue;
    for (int unroll : options.unroll_factors) {
      for (int seq_tile : seq_tiles) {
        for (int swapped = 0; swapped <= max_swap; ++swapped) {
          for (int staged = 0;
               staged <= (options.explore_smem_staging ? 1 : 0);
               ++staged) {
            Variant variant;
            variant.block_size = block_size;
            variant.unroll = unroll;
            variant.smem_staging = staged != 0;
            variant.swap_parallel_loops = swapped != 0;
            variant.seq_tile = seq_tile;
            variant.fuse_iterations = fuse_iterations;
            fn(variant);
          }
        }
      }
    }
  }
}

void fold_ints(util::KeyBuilder& h, const std::vector<int>& values) {
  h.field(static_cast<std::uint64_t>(values.size()));
  for (int value : values) h.field(value);
}

/// Every GpuSpec field (realism fields included) and every ExplorerOptions
/// and ModelOptions field: everything best() reads besides the skeleton.
std::uint64_t fold_key(const hw::GpuSpec& gpu, const ExplorerOptions& options) {
  util::KeyBuilder h;
  h.field(gpu.name)
      .field(gpu.family)
      .field(gpu.num_sms)
      .field(gpu.cores_per_sm)
      .field(gpu.core_clock_ghz)
      .field(gpu.mem_bandwidth_gbps)
      .field(gpu.memory_bytes)
      .field(gpu.warp_size)
      .field(gpu.max_threads_per_sm)
      .field(gpu.max_blocks_per_sm)
      .field(gpu.max_threads_per_block)
      .field(std::uint64_t{gpu.registers_per_sm})
      .field(std::uint64_t{gpu.shared_mem_per_sm_bytes})
      .field(std::uint64_t{gpu.reg_alloc_granularity})
      .field(std::uint64_t{gpu.smem_alloc_granularity_bytes})
      .field(gpu.dram_latency_cycles)
      .field(gpu.transaction_bytes)
      .field(gpu.flops_per_core_per_cycle)
      .field(gpu.kernel_launch_overhead_s)
      .field(gpu.achieved_bw_fraction)
      .field(gpu.uncoalesced_replay_factor)
      .field(gpu.indirect_access_penalty)
      .field(gpu.instruction_overhead)
      .field(gpu.sync_cycles)
      .field(gpu.gather_stream_fraction)
      .field(gpu.timing_jitter_sigma);
  fold_ints(h, options.block_sizes);
  h.field(options.explore_smem_staging).field(options.explore_loop_interchange);
  fold_ints(h, options.seq_tile_factors);
  fold_ints(h, options.unroll_factors);
  h.field(options.model.streaming_bw_efficiency)
      .field(options.model.gathered_stream_efficiency);
  return h.hash();
}

}  // namespace

Explorer::Explorer(hw::GpuSpec gpu, ExplorerOptions options)
    : model_(std::move(gpu), options.model),
      options_(std::move(options)),
      key_(fold_key(model_.gpu(), options_)) {
  GROPHECY_EXPECTS(!options_.block_sizes.empty());
  GROPHECY_EXPECTS(!options_.unroll_factors.empty());
}

Occupancy Explorer::occupancy_for(const KernelCharacteristics& kc) const {
  // block_size <= max_threads_per_block (< 2^16), regs fit 16 bits, smem
  // fits 32: the triple packs losslessly into one word.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kc.variant.block_size) << 48) |
      (static_cast<std::uint64_t>(kc.regs_per_thread) << 32) |
      static_cast<std::uint64_t>(kc.smem_per_block_bytes);
  const auto it = occupancy_memo_.find(key);
  if (it != occupancy_memo_.end()) {
    ++stats_.occupancy_hits;
    return it->second;
  }
  ++stats_.occupancy_misses;
  const Occupancy occ =
      compute_occupancy(model_.gpu(), kc.variant.block_size,
                        kc.regs_per_thread, kc.smem_per_block_bytes);
  occupancy_memo_.emplace(key, occ);
  return occ;
}

std::vector<ProjectedKernel> Explorer::explore(
    const skeleton::AppSkeleton& app, const skeleton::KernelSkeleton& kernel,
    int fuse_iterations) const {
  GROPHECY_EXPECTS(fuse_iterations >= 1);
  const hw::GpuSpec& gpu = model_.gpu();

  std::vector<ProjectedKernel> projections;
  for_each_variant(
      options_, gpu, app, kernel, fuse_iterations,
      [&](const Variant& variant) {
        ++stats_.variants;
        ProjectedKernel projected;
        projected.variant = variant;
        projected.characteristics = characterize(app, kernel, variant, gpu);
        projected.time =
            model_.project(projected.characteristics,
                           occupancy_for(projected.characteristics));
        if (!projected.time.feasible) {
          ++stats_.infeasible;
          return;
        }
        projections.push_back(std::move(projected));
      });
  return projections;
}

ProjectedKernel Explorer::best(const skeleton::AppSkeleton& app,
                               const skeleton::KernelSkeleton& kernel,
                               int fuse_iterations) const {
  GROPHECY_EXPECTS(fuse_iterations >= 1);
  const hw::GpuSpec& gpu = model_.gpu();

  ProjectedKernel winner;
  double cutoff = std::numeric_limits<double>::infinity();
  bool found = false;
  for_each_variant(
      options_, gpu, app, kernel, fuse_iterations,
      [&](const Variant& variant) {
        ++stats_.variants;
        ProjectedKernel projected;
        projected.variant = variant;
        projected.characteristics = characterize(app, kernel, variant, gpu);
        const auto time = model_.project_if_below(
            projected.characteristics,
            occupancy_for(projected.characteristics), cutoff);
        if (!time) {
          // A single bound already reached the incumbent: the variant
          // cannot win.
          ++stats_.pruned;
          return;
        }
        projected.time = *time;
        if (!projected.time.feasible) {
          ++stats_.infeasible;
          return;
        }
        if (projected.time.total_s < cutoff) {
          cutoff = projected.time.total_s;
          winner = std::move(projected);
          found = true;
        }
      });
  GROPHECY_EXPECTS(found);
  return winner;
}

}  // namespace grophecy::gpumodel
