#include "support/reference_event_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "gpumodel/kernel_model.h"
#include "gpumodel/occupancy.h"
#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::sim {

ReferenceEventSimulator::ReferenceEventSimulator(hw::GpuSpec gpu,
                                                 std::uint64_t seed)
    : gpu_(std::move(gpu)), rng_(seed) {}

double ReferenceEventSimulator::simulate_reference(
    const gpumodel::KernelCharacteristics& kc, double block_jitter_sigma,
    util::Rng* rng) const {
  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu_, kc.variant.block_size, kc.regs_per_thread,
      kc.smem_per_block_bytes);
  GROPHECY_EXPECTS(occ.blocks_per_sm > 0);

  const BlockDemands base = block_demands(kc, gpu_, occ);
  const double clock_hz = gpu_.core_clock_ghz * 1e9;
  const double sm_issue_rate = clock_hz;  // issue cycles per second per SM
  const double chip_bw = gpu_.mem_bandwidth_gbps * util::kGB *
                         gpu_.achieved_bw_fraction;

  std::int64_t pending = kc.num_blocks;
  sm_load_.assign(static_cast<std::size_t>(gpu_.num_sms), 0);
  running_.clear();
  running_.reserve(static_cast<std::size_t>(gpu_.num_sms) *
                   occ.blocks_per_sm);
  auto& running = running_;
  auto& sm_load = sm_load_;

  double now = 0.0;
  while (pending > 0 || !running.empty()) {
    // Greedy backfill: place pending blocks on the least-loaded SMs.
    while (pending > 0) {
      const auto lightest = std::min_element(sm_load.begin(), sm_load.end());
      if (*lightest >= occ.blocks_per_sm) break;
      RunningBlock block;
      block.sm = static_cast<int>(lightest - sm_load.begin());
      double jitter = 1.0;
      if (block_jitter_sigma > 0.0 && rng != nullptr)
        jitter = rng->lognormal(1.0, block_jitter_sigma);
      block.compute_left = base.compute_cycles * jitter;
      block.memory_left = base.memory_bytes * jitter;
      block.floor_left = base.floor_s * jitter;
      ++*lightest;
      running.push_back(block);
      --pending;
    }
    GROPHECY_ENSURES(!running.empty());

    // A degenerate block (no compute, no memory, no floor) finishes
    // immediately; retire before computing rates to keep dt finite.
    bool retired_degenerate = false;
    for (std::size_t i = running.size(); i-- > 0;) {
      if (running[i].done()) {
        --sm_load[static_cast<std::size_t>(running[i].sm)];
        running[i] = running.back();
        running.pop_back();
        retired_degenerate = true;
      }
    }
    if (retired_degenerate) continue;

    // Instantaneous fair-share rates.
    int memory_consumers = 0;
    for (const RunningBlock& block : running)
      if (block.memory_left > kSimEps) ++memory_consumers;
    const double mem_rate =
        memory_consumers > 0 ? chip_bw / memory_consumers : 0.0;
    compute_consumers_.assign(static_cast<std::size_t>(gpu_.num_sms), 0);
    auto& compute_consumers = compute_consumers_;
    for (const RunningBlock& block : running)
      if (block.compute_left > kSimEps)
        ++compute_consumers[static_cast<std::size_t>(block.sm)];

    // Next event: the earliest exhaustion of any demand of any block.
    double dt = std::numeric_limits<double>::infinity();
    for (const RunningBlock& block : running) {
      if (block.compute_left > kSimEps) {
        const double rate =
            sm_issue_rate /
            compute_consumers[static_cast<std::size_t>(block.sm)];
        dt = std::min(dt, block.compute_left / rate);
      }
      if (block.memory_left > kSimEps)
        dt = std::min(dt, block.memory_left / mem_rate);
      if (block.floor_left > kSimEps) dt = std::min(dt, block.floor_left);
    }
    GROPHECY_ENSURES(std::isfinite(dt) && dt >= 0.0);

    // Advance every block by dt.
    now += dt;
    for (RunningBlock& block : running) {
      if (block.compute_left > kSimEps) {
        const double rate =
            sm_issue_rate /
            compute_consumers[static_cast<std::size_t>(block.sm)];
        block.compute_left =
            std::max(0.0, block.compute_left - rate * dt);
      }
      if (block.memory_left > kSimEps)
        block.memory_left =
            std::max(0.0, block.memory_left - mem_rate * dt);
      if (block.floor_left > kSimEps)
        block.floor_left = std::max(0.0, block.floor_left - dt);
    }

    // Retire finished blocks, freeing their SM slots.
    for (std::size_t i = running.size(); i-- > 0;) {
      if (running[i].done()) {
        --sm_load[static_cast<std::size_t>(running[i].sm)];
        running[i] = running.back();
        running.pop_back();
      }
    }
  }
  return now + gpu_.kernel_launch_overhead_s;
}

SimBreakdown ReferenceEventSimulator::expected_launch(
    const gpumodel::KernelCharacteristics& kc) const {
  SimBreakdown out;
  out.launch_s = gpu_.kernel_launch_overhead_s;
  out.total_s = simulate_reference(kc, 0.0, nullptr);
  return out;
}

double ReferenceEventSimulator::run_launch_seconds(
    const gpumodel::KernelCharacteristics& kc) {
  // Per-block jitter plus a whole-launch jitter, as in EventGpuSimulator.
  const double base = simulate_reference(kc, gpu_.timing_jitter_sigma, &rng_);
  return rng_.lognormal(base, gpu_.timing_jitter_sigma * 0.5);
}

}  // namespace grophecy::sim
