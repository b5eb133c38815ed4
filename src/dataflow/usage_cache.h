// Process-wide cache of usage-analysis results.
//
// The data-usage analyzer is a pure function of the skeleton content, and
// its transfer plan is independent of the iteration count (paper §III-B:
// input moves once before the first iteration, output once after the
// last). So are the per-kernel BRS footprints the CPU simulator prices a
// run from (they describe one iteration). Artifacts are therefore keyed by
// the skeleton's usage_fingerprint — which excludes `iterations` — so an
// iteration sweep analyzes each data size once and every other point is a
// lookup.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "brs/footprint.h"
#include "dataflow/transfer_plan.h"
#include "dataflow/usage_analyzer.h"
#include "skeleton/skeleton.h"
#include "util/artifact_cache.h"

namespace grophecy::dataflow {

/// Everything derived from one skeleton's content, computed together in
/// one miss and shared immutably.
struct UsageArtifact {
  TransferPlan plan;
  std::vector<ArrayUsage> usages;
  /// brs::kernel_footprint of each kernel, in app.kernels order.
  std::vector<brs::KernelFootprint> footprints;
};

/// Returns the usage artifact for `app`, keyed by `usage_key` (the
/// skeleton's usage_fingerprint — the caller supplies it so a skeleton
/// hashed once at build is never re-hashed). Analyzes at most once per
/// distinct skeleton content. `from_cache`, when non-null, reports
/// whether this call was a hit.
std::shared_ptr<const UsageArtifact> cached_usage(
    std::uint64_t usage_key, const skeleton::AppSkeleton& app,
    bool* from_cache = nullptr);

/// The process-wide cache behind cached_usage (accounting and tests).
util::ArtifactCache<UsageArtifact>& usage_cache();

}  // namespace grophecy::dataflow
