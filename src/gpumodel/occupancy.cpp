#include "gpumodel/occupancy.h"

#include "util/contracts.h"

namespace grophecy::gpumodel {

Occupancy compute_occupancy(const hw::GpuSpec& gpu, int block_size,
                            std::uint32_t regs_per_thread,
                            std::uint32_t smem_per_block) {
  GROPHECY_EXPECTS(block_size >= gpu.warp_size);
  GROPHECY_EXPECTS(block_size <= gpu.max_threads_per_block);

  // The allocation rules live with the architecture family (specs with an
  // unknown family fall back to the paper testbed's rules, which are the
  // shared base implementation anyway).
  const hw::Architecture* arch = hw::Architecture::try_of(gpu.family);
  return (arch != nullptr ? *arch : hw::Architecture::of("tesla"))
      .occupancy(gpu, block_size, regs_per_thread, smem_per_block);
}

}  // namespace grophecy::gpumodel
