// Process-wide cache of the explorer's best variants.
//
// Explorer::best is a pure function of the kernel and its application's
// arrays (everything characterize reads, all folded into the skeleton's
// usage_fingerprint), the fuse factor, the GpuSpec, the ExplorerOptions
// and their ModelOptions. It reads neither a seed nor the iteration
// count. So a sweep or a daemon that projects one skeleton on one GPU
// many times — every iteration count, every seed, every repeat — needs
// the search once per (kernel, fuse) and GPU; every later projection is
// a lookup. core::Grophecy asks this cache before it would call
// Explorer::best, unless ProjectionOptions::use_artifact_caches is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "gpumodel/explorer.h"
#include "skeleton/skeleton.h"
#include "util/artifact_cache.h"

namespace grophecy::gpumodel {

/// Returns explorer.best(app, app.kernels[kernel_index], fuse_iterations),
/// searched at most once per distinct (explorer.key(), usage_key,
/// kernel_index, fuse_iterations); `usage_key` must be the skeleton's
/// usage_fingerprint. A miss runs the search on `explorer`, so the caller
/// must own it (Explorer is not thread-safe).
std::shared_ptr<const ProjectedKernel> cached_best(
    const Explorer& explorer, std::uint64_t usage_key,
    const skeleton::AppSkeleton& app, std::size_t kernel_index,
    int fuse_iterations);

/// The process-wide cache behind cached_best (accounting and tests).
util::ArtifactCache<ProjectedKernel>& variant_cache();

}  // namespace grophecy::gpumodel
