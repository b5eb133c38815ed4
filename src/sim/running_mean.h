// The fold every KernelTimer measurement shares: the per-run loop of
// KernelTimer::measure_launch_seconds, GpuSimulator's once-per-measurement
// expected time, and EventGpuSimulator's parallel runs all average their
// samples through this one loop, so their means agree bit for bit.
#pragma once

#include <cmath>
#include <string>

#include "util/contracts.h"
#include "util/error.h"

namespace grophecy::sim::detail {

/// The mean of `runs` samples from `draw`, taken in run order.
/// Numerically stable running mean (Welford): a plain sum can overflow to
/// inf when a fault-injected heavy-tail outlier lands among the samples,
/// silently poisoning the average. A non-finite sample is a broken
/// observation, not a slow one — surface it as a retryable measurement
/// failure instead of folding it in. Allocates only to build that error.
template <typename Draw>
double running_mean(int runs, Draw&& draw) {
  GROPHECY_EXPECTS(runs > 0);
  double mean = 0.0;
  for (int i = 0; i < runs; ++i) {
    const double sample = draw();
    if (!std::isfinite(sample))
      throw MeasurementError(
          "kernel timing returned a non-finite sample (run " +
          std::to_string(i + 1) + " of " + std::to_string(runs) + ")");
    mean += (sample - mean) / static_cast<double>(i + 1);
  }
  GROPHECY_ENSURES(std::isfinite(mean));
  return mean;
}

}  // namespace grophecy::sim::detail
