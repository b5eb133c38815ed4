#include "gpumodel/variant_cache.h"

#include "util/contracts.h"

namespace grophecy::gpumodel {

util::ArtifactCache<ProjectedKernel>& variant_cache() {
  static util::ArtifactCache<ProjectedKernel> cache;
  return cache;
}

std::shared_ptr<const ProjectedKernel> cached_best(
    const Explorer& explorer, std::uint64_t usage_key,
    const skeleton::AppSkeleton& app, std::size_t kernel_index,
    int fuse_iterations) {
  GROPHECY_EXPECTS(kernel_index < app.kernels.size());
  const std::uint64_t key = util::KeyBuilder()
                                .field(explorer.key())
                                .field(usage_key)
                                .field(static_cast<std::uint64_t>(kernel_index))
                                .field(fuse_iterations)
                                .hash();
  return variant_cache().get_or_build(key, [&] {
    return explorer.best(app, app.kernels[kernel_index], fuse_iterations);
  });
}

}  // namespace grophecy::gpumodel
