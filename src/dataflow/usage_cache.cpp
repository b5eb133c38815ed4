#include "dataflow/usage_cache.h"

namespace grophecy::dataflow {

util::ArtifactCache<UsageArtifact>& usage_cache() {
  static util::ArtifactCache<UsageArtifact> cache;
  return cache;
}

std::shared_ptr<const UsageArtifact> cached_usage(
    std::uint64_t usage_key, const skeleton::AppSkeleton& app,
    bool* from_cache) {
  return usage_cache().get_or_build(
      usage_key,
      [&] {
        UsageAnalyzer analyzer;
        UsageArtifact artifact;
        artifact.plan = analyzer.analyze(app);
        artifact.usages = analyzer.classify(app);
        artifact.footprints = brs::kernel_footprints(app);
        return artifact;
      },
      from_cache);
}

}  // namespace grophecy::dataflow
