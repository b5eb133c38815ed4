// SM occupancy calculation.
//
// Determines how many thread blocks fit on one streaming multiprocessor
// given the block's thread, register, and shared-memory demands, and thus
// how many warps are available to hide memory latency. Used identically by
// the analytical model and the GPU simulator.
#pragma once

#include <cstdint>

#include "hw/architecture.h"
#include "hw/machine.h"

namespace grophecy::gpumodel {

/// The architecture family's occupancy record, used as is.
using Occupancy = hw::Occupancy;

/// Computes occupancy for a block of `block_size` threads needing
/// `regs_per_thread` registers and `smem_per_block` bytes of shared memory.
/// Requires block_size in [warp_size, max_threads_per_block].
/// blocks_per_sm == 0 signals an infeasible variant (over-sized smem/regs).
Occupancy compute_occupancy(const hw::GpuSpec& gpu, int block_size,
                            std::uint32_t regs_per_thread,
                            std::uint32_t smem_per_block);

}  // namespace grophecy::gpumodel
