#include "pcie/bus.h"

#include <cmath>
#include <vector>

#include "util/contracts.h"
#include "util/stats.h"
#include "util/units.h"

namespace grophecy::pcie {

SimulatedBus::SimulatedBus(hw::PcieSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {}

double SimulatedBus::expected_time(std::uint64_t bytes, hw::Direction dir,
                                   hw::HostMemory mem) const {
  GROPHECY_EXPECTS(bytes > 0);
  const hw::PcieDirectionProfile& p = spec_.profile(dir, mem);
  const double d = static_cast<double>(bytes);

  double t = p.latency_s + d / (p.asymptotic_gbps * util::kGB);

  if (p.hump_extra_s > 0.0) {
    const double z = std::log(d / p.hump_center_bytes) / p.hump_log_width;
    t += p.hump_extra_s * std::exp(-z * z);
  }
  if (p.page_staging_s_per_page > 0.0) {
    const double pages = std::ceil(d / 4096.0);
    t += pages * p.page_staging_s_per_page;
  }
  return t;
}

double SimulatedBus::time_transfer(std::uint64_t bytes, hw::Direction dir,
                                   hw::HostMemory mem) {
  return draw(expected_time(bytes, dir, mem), jitter_sigma(bytes));
}

double SimulatedBus::jitter_sigma(std::uint64_t bytes) const {
  const hw::PcieNoiseProfile& n = spec_.noise;
  const double d = static_cast<double>(bytes);
  return n.sigma_floor + n.sigma_small / (1.0 + d / n.small_scale_bytes);
}

double SimulatedBus::draw(double base, double sigma) {
  const hw::PcieNoiseProfile& n = spec_.noise;
  double t = rng_.lognormal(base, sigma);
  if (n.outlier_probability > 0.0 && rng_.bernoulli(n.outlier_probability)) {
    t *= n.outlier_factor;
  }
  return t;
}

double SimulatedBus::measure_mean(std::uint64_t bytes, hw::Direction dir,
                                  hw::HostMemory mem, int runs) {
  GROPHECY_EXPECTS(runs > 0);
  // One expected time and one sigma per measurement; the draws are the
  // per-run time_transfer draws, in the same order.
  const double base = expected_time(bytes, dir, mem);
  const double sigma = jitter_sigma(bytes);
  double sum = 0.0;
  for (int i = 0; i < runs; ++i) sum += draw(base, sigma);
  return sum / runs;
}

double SimulatedBus::measure_median(std::uint64_t bytes, hw::Direction dir,
                                    hw::HostMemory mem, int runs) {
  GROPHECY_EXPECTS(runs > 0);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i)
    samples.push_back(time_transfer(bytes, dir, mem));
  return util::median(samples);
}

void SimulatedBus::set_noise(const hw::PcieNoiseProfile& noise) {
  spec_.noise = noise;
}

}  // namespace grophecy::pcie
