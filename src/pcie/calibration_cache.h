// Process-wide cache of PCIe calibration results.
//
// The paper notes calibration is "automatically invoked when run on a new
// system" (§III-C) — i.e. once per system, not once per projection. The
// framework's calibration is a pure function of (machine PCIe spec,
// calibration options, host memory mode, RNG seed), so the seven paper
// benches and every per-job engine a parallel sweep constructs calibrate
// the Argonne testbed once, and every later construction is a lookup.
//
// It is one util::ArtifactCache, with that cache's single-flight, failed-
// flight eviction and determinism contracts. core::Grophecy looks it up
// (unless ProjectionOptions::use_artifact_caches is off) and stamps the
// hit/miss provenance into the engine's CalibrationReport.
#pragma once

#include <cstdint>

#include "hw/machine.h"
#include "pcie/calibrator.h"
#include "util/artifact_cache.h"

namespace grophecy::pcie {

/// Deterministic fingerprint of everything the calibration result depends
/// on: every field of the machine's PCIe spec (profiles + noise), the
/// full CalibrationOptions (probe sizes, replication, fit, estimator,
/// robustness), the host memory mode, and the calibration RNG seed,
/// folded with util::KeyBuilder.
std::uint64_t calibration_cache_key(const hw::PcieSpec& spec,
                                    const CalibrationOptions& options,
                                    hw::HostMemory memory, std::uint64_t seed);

/// The process-wide calibration cache. Thread-safe; see file comment.
class CalibrationCache : public util::ArtifactCache<CalibrationReport> {
 public:
  /// The singleton instance shared by every engine in the process.
  static CalibrationCache& instance();

 private:
  CalibrationCache() = default;
};

}  // namespace grophecy::pcie
