#include "sim/gpu_sim.h"

#include <algorithm>

#include "gpumodel/kernel_model.h"
#include "gpumodel/occupancy.h"
#include "sim/running_mean.h"
#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::sim {

GpuSimulator::GpuSimulator(hw::GpuSpec gpu, std::uint64_t seed)
    : gpu_(std::move(gpu)), rng_(seed) {}

SimBreakdown GpuSimulator::expected_launch(
    const gpumodel::KernelCharacteristics& kc) const {
  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu_, kc.variant.block_size, kc.regs_per_thread,
      kc.smem_per_block_bytes);
  GROPHECY_EXPECTS(occ.blocks_per_sm > 0);  // explorer only emits feasible

  const double clock_hz = gpu_.core_clock_ghz * 1e9;

  // Per-warp instruction and memory streams (with real-code overheads,
  // replay, and locality derating) — shared with the event simulator.
  const gpumodel::WarpDemands wd = gpumodel::warp_demands(kc, gpu_);
  const double issue_cycles = wd.issue_cycles;
  const int warps_per_block = wd.warps_per_block;
  const double warp_compute_cycles = wd.compute_cycles;
  const double warp_traffic_bytes = wd.traffic_bytes;
  const double warp_mem_insts = wd.mem_insts;
  const double warp_latency_cycles = wd.latency_cycles;

  const double achieved_bw =
      gpu_.mem_bandwidth_gbps * util::kGB * gpu_.achieved_bw_fraction;
  const double bw_bytes_per_cycle_sm = achieved_bw / gpu_.num_sms / clock_hz;

  // --- wave-by-wave schedule ---
  const std::int64_t chip_blocks =
      static_cast<std::int64_t>(occ.blocks_per_sm) * gpu_.num_sms;
  const std::int64_t full_waves = kc.num_blocks / chip_blocks;
  const std::int64_t rem_blocks = kc.num_blocks % chip_blocks;

  auto wave_cycles = [&](int resident_blocks_per_sm) {
    const double warps =
        static_cast<double>(resident_blocks_per_sm) * warps_per_block;
    const double compute = warps * warp_compute_cycles;
    const double memory = warps * warp_traffic_bytes / bw_bytes_per_cycle_sm;
    // Memory-level parallelism: stalls overlap across however many warps
    // are resident, but no deeper than the MWP the bus sustains.
    const double dep_delay =
        warp_mem_insts > 0.0
            ? (warp_traffic_bytes / warp_mem_insts) / bw_bytes_per_cycle_sm
            : 1.0;
    const double mwp_bw = std::max(1.0, gpu_.dram_latency_cycles / dep_delay);
    const double overlap = std::max(1.0, std::min(warps, mwp_bw));
    const double latency = warps * warp_latency_cycles / overlap;
    const double sync = static_cast<double>(resident_blocks_per_sm) *
                        kc.syncs_per_thread *
                        (gpu_.sync_cycles + warps_per_block * issue_cycles);
    struct {
      double compute, memory, latency, sync, total;
    } w{compute, memory, latency, sync,
        std::max({compute, memory, latency}) + sync};
    return w;
  };

  SimBreakdown out;
  out.waves = static_cast<int>(full_waves + (rem_blocks > 0 ? 1 : 0));

  double compute_cycles = 0.0, memory_cycles = 0.0, latency_cycles = 0.0,
         sync_cycles = 0.0, total_cycles = 0.0;
  if (full_waves > 0) {
    const auto w = wave_cycles(occ.blocks_per_sm);
    compute_cycles += static_cast<double>(full_waves) * w.compute;
    memory_cycles += static_cast<double>(full_waves) * w.memory;
    latency_cycles += static_cast<double>(full_waves) * w.latency;
    sync_cycles += static_cast<double>(full_waves) * w.sync;
    total_cycles += static_cast<double>(full_waves) * w.total;
  }
  if (rem_blocks > 0) {
    // Final partial wave: blocks spread across SMs; some SMs may idle.
    const int resident = static_cast<int>(
        (rem_blocks + gpu_.num_sms - 1) / gpu_.num_sms);
    const auto w = wave_cycles(resident);
    compute_cycles += w.compute;
    memory_cycles += w.memory;
    latency_cycles += w.latency;
    sync_cycles += w.sync;
    total_cycles += w.total;
  }

  out.compute_s = compute_cycles / clock_hz;
  out.memory_s = memory_cycles / clock_hz;
  out.latency_s = latency_cycles / clock_hz;
  out.sync_s = sync_cycles / clock_hz;
  out.launch_s = gpu_.kernel_launch_overhead_s;
  out.total_s = total_cycles / clock_hz + out.launch_s;
  return out;
}

double KernelTimer::measure_launch_seconds(
    const gpumodel::KernelCharacteristics& kc, int runs) {
  return detail::running_mean(runs, [&] { return run_launch_seconds(kc); });
}

double GpuSimulator::run_launch_seconds(
    const gpumodel::KernelCharacteristics& kc) {
  const double base = expected_launch(kc).total_s;
  return rng_.lognormal(base, gpu_.timing_jitter_sigma);
}

double GpuSimulator::measure_launch_seconds(
    const gpumodel::KernelCharacteristics& kc, int runs) {
  GROPHECY_EXPECTS(runs > 0);
  const double base = expected_launch(kc).total_s;
  return detail::running_mean(
      runs, [&] { return rng_.lognormal(base, gpu_.timing_jitter_sigma); });
}

}  // namespace grophecy::sim
