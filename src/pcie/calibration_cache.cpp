#include "pcie/calibration_cache.h"

namespace grophecy::pcie {

namespace {

void fold_profile(util::KeyBuilder& h, const hw::PcieDirectionProfile& p) {
  h.field(p.latency_s)
      .field(p.asymptotic_gbps)
      .field(p.hump_extra_s)
      .field(p.hump_center_bytes)
      .field(p.hump_log_width)
      .field(p.page_staging_s_per_page);
}

}  // namespace

std::uint64_t calibration_cache_key(const hw::PcieSpec& spec,
                                    const CalibrationOptions& options,
                                    hw::HostMemory memory, std::uint64_t seed) {
  util::KeyBuilder h;
  // Machine side: everything SimulatedBus reads when producing samples.
  h.field(spec.name).field(spec.generation).field(spec.lanes);
  fold_profile(h, spec.pinned_h2d);
  fold_profile(h, spec.pinned_d2h);
  fold_profile(h, spec.pageable_h2d);
  fold_profile(h, spec.pageable_d2h);
  h.field(spec.noise.sigma_floor)
      .field(spec.noise.sigma_small)
      .field(spec.noise.small_scale_bytes)
      .field(spec.noise.outlier_probability)
      .field(spec.noise.outlier_factor);
  // Procedure side: everything TransferCalibrator reads.
  h.field(options.small_bytes).field(options.large_bytes);
  h.field(options.replicates);
  h.field(static_cast<int>(options.fit));
  h.field(static_cast<int>(options.estimator));
  h.field(static_cast<std::uint64_t>(options.sweep_bytes.size()));
  for (std::uint64_t bytes : options.sweep_bytes) h.field(bytes);
  const RobustnessOptions& r = options.robustness;
  h.field(r.max_retries)
      .field(r.backoff_initial_s)
      .field(r.backoff_max_s)
      .field(r.timeout_s)
      .field(r.reject_outliers)
      .field(r.outlier_z)
      .field(r.adaptive)
      .field(r.target_rel_half_width)
      .field(r.max_replicates);
  // Run side.
  h.field(static_cast<int>(memory));
  h.field(seed);
  return h.hash();
}

CalibrationCache& CalibrationCache::instance() {
  static CalibrationCache cache;
  return cache;
}

}  // namespace grophecy::pcie
