#include "cpumodel/cpu_sim.h"

#include <algorithm>
#include <cmath>

#include "brs/footprint.h"
#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::cpumodel {

namespace {
constexpr double kOmpRegionOverheadS = 6e-6;
constexpr double kSpecialOpCost = 14.0;
}  // namespace

CpuSimulator::CpuSimulator(hw::CpuSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {}

double CpuSimulator::expected_app_seconds(
    const skeleton::AppSkeleton& app) const {
  return expected_app_seconds(brs::kernel_footprints(app), app.iterations);
}

double CpuSimulator::expected_app_seconds(
    std::span<const brs::KernelFootprint> footprints, int iterations) const {
  double per_iteration = 0.0;
  for (const brs::KernelFootprint& fp : footprints) {
    const double active_cores =
        static_cast<double>(std::min(spec_.threads, spec_.total_cores()));
    // A real run does not vectorize every statement perfectly; charge a
    // fraction of the SIMD peak.
    constexpr double kVectorEfficiency = 0.70;
    const double flop_rate = spec_.clock_ghz * 1e9 *
                             spec_.flops_per_cycle_per_core * active_cores *
                             kVectorEfficiency;
    const double special_rate =
        spec_.clock_ghz * 1e9 * active_cores / kSpecialOpCost;
    const double compute_s =
        fp.flops / flop_rate + fp.special_ops / special_rate;

    const double traffic = cpu_memory_traffic_bytes(fp, spec_.llc_bytes);
    const double usable_bw = std::min(
        spec_.mem_bandwidth_gbps * spec_.achieved_bw_fraction,
        spec_.per_core_bw_gbps * active_cores);
    const double memory_s = traffic / (usable_bw * util::kGB);

    per_iteration += std::max(compute_s, memory_s) /
                         spec_.parallel_efficiency +
                     kOmpRegionOverheadS;
  }
  return per_iteration * iterations;
}

double CpuSimulator::run_app_seconds(const skeleton::AppSkeleton& app) {
  const double base = expected_app_seconds(app);
  return rng_.lognormal(base, spec_.timing_jitter_sigma);
}

double CpuSimulator::measure_app_seconds(const skeleton::AppSkeleton& app,
                                         int runs) {
  return measure_app_seconds(brs::kernel_footprints(app), app.iterations, runs);
}

double CpuSimulator::measure_app_seconds(
    std::span<const brs::KernelFootprint> footprints, int iterations,
    int runs) {
  GROPHECY_EXPECTS(runs > 0);
  // The expected time (and so every kernel's footprint) is the same for
  // each run; only the jitter draws differ.
  const double base = expected_app_seconds(footprints, iterations);
  double sum = 0.0;
  for (int i = 0; i < runs; ++i)
    sum += rng_.lognormal(base, spec_.timing_jitter_sigma);
  return sum / runs;
}

}  // namespace grophecy::cpumodel
