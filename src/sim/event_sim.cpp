#include "sim/event_sim.h"

#include <utility>

namespace grophecy::sim {

EventGpuSimulator::EventGpuSimulator(hw::GpuSpec gpu, std::uint64_t seed,
                                     EventSimOptions)
    : gpu_(std::move(gpu)), rng_(seed) {}

double EventGpuSimulator::simulate(const gpumodel::KernelCharacteristics& kc,
                                   double block_jitter_sigma,
                                   util::Rng* rng) const {
  if (block_jitter_sigma > 0.0 && rng != nullptr)
    return engine_.simulate_jittered(kc, gpu_, block_jitter_sigma, *rng) +
           gpu_.kernel_launch_overhead_s;
  return engine_.simulate_expected(kc, gpu_) + gpu_.kernel_launch_overhead_s;
}

SimBreakdown EventGpuSimulator::expected_launch(
    const gpumodel::KernelCharacteristics& kc) const {
  SimBreakdown out;
  out.launch_s = gpu_.kernel_launch_overhead_s;
  out.total_s = simulate(kc, 0.0, nullptr);
  return out;
}

double EventGpuSimulator::run_launch_seconds(
    const gpumodel::KernelCharacteristics& kc) {
  // Per-block jitter plus a whole-launch jitter matching the wave sim.
  const double base = simulate(kc, gpu_.timing_jitter_sigma, &rng_);
  return rng_.lognormal(base, gpu_.timing_jitter_sigma * 0.5);
}

}  // namespace grophecy::sim
