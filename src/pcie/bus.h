// Simulated PCIe bus — the "physical" interconnect of the modeled machine.
//
// In the paper, transfer times are measured on real hardware. Here the
// SimulatedBus plays the role of that hardware: it produces per-transfer
// times from the machine's ground-truth PcieDirectionProfile (latency floor,
// asymptotic bandwidth, mid-size non-linearity, pageable staging costs) plus
// seeded stochastic jitter and optional slow-transfer outliers.
//
// The calibration and modeling code never looks inside the bus; it only
// talks to the abstract TransferTimer interface, exactly as GROPHECY++ only
// ever timed cudaMemcpy calls. Swapping in a real CUDA-backed timer would
// require no changes above this interface.
#pragma once

#include <cstdint>

#include "hw/machine.h"
#include "util/rng.h"

namespace grophecy::pcie {

/// Anything that can time a single CPU<->GPU transfer of a given size.
/// Implemented by SimulatedBus here; on a real system it would wrap
/// cudaMemcpy + a host timer.
class TransferTimer {
 public:
  virtual ~TransferTimer() = default;

  /// Times one transfer of `bytes` bytes. Returns seconds. Each call is an
  /// independent observation (includes run-to-run variation).
  virtual double time_transfer(std::uint64_t bytes, hw::Direction dir,
                               hw::HostMemory mem) = 0;
};

/// Stochastic simulator of a PCIe link described by hw::PcieSpec.
class SimulatedBus final : public TransferTimer {
 public:
  /// Creates a bus with the given physical spec and RNG seed. The same
  /// (spec, seed) pair always reproduces the same sequence of times.
  SimulatedBus(hw::PcieSpec spec, std::uint64_t seed);

  /// Noiseless ground-truth transfer time (the curve the jitter is applied
  /// to). Exposed for tests and for plotting the "true" curve.
  double expected_time(std::uint64_t bytes, hw::Direction dir,
                       hw::HostMemory mem) const;

  /// One noisy observation, as a measurement harness would see.
  double time_transfer(std::uint64_t bytes, hw::Direction dir,
                       hw::HostMemory mem) override;

  /// Arithmetic mean of `runs` independent observations (the paper averages
  /// 10 runs for every reported time). Outlier-sensitive: a single 2x-slow
  /// transfer (the paper's §V-A anomaly) among 10 runs inflates the result
  /// by 10%, which two-point calibration then bakes into alpha or beta.
  /// Prefer measure_median, or the robust calibration pipeline
  /// (TransferCalibrator::calibrate_robust), when outliers are possible.
  /// Computes the expected time once, then draws exactly as `runs`
  /// time_transfer calls would.
  double measure_mean(std::uint64_t bytes, hw::Direction dir,
                      hw::HostMemory mem, int runs);

  /// Median of `runs` independent observations. Robust to occasional
  /// outlier transfers: up to half the runs can be arbitrarily slow without
  /// moving the result beyond the sample spread.
  double measure_median(std::uint64_t bytes, hw::Direction dir,
                        hw::HostMemory mem, int runs);

  /// Replaces the noise profile (used by experiments that need the paper's
  /// occasionally-2x-slow outlier transfers, §V-A).
  void set_noise(const hw::PcieNoiseProfile& noise);

  const hw::PcieSpec& spec() const { return spec_; }

 private:
  /// The lognormal jitter's sigma for a transfer of `bytes` bytes.
  double jitter_sigma(std::uint64_t bytes) const;
  /// One noisy observation around `base`: jitter, then maybe an outlier.
  double draw(double base, double sigma);

  hw::PcieSpec spec_;
  util::Rng rng_;
};

}  // namespace grophecy::pcie
