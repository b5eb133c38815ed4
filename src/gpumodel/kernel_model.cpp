#include "gpumodel/kernel_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::gpumodel {

namespace {
/// Minimum memory transaction granularity for scattered lanes, bytes.
constexpr double kScatterGranularity = 32.0;

/// Overhead-scaled dynamic instructions per thread. The one formula the
/// analytical model and both simulators share; see kSpecialInstCost.
double insts_per_thread(const KernelCharacteristics& kc,
                        const hw::GpuSpec& gpu) {
  return (kc.flops_per_thread / gpu.flops_per_core_per_cycle +
          kc.special_per_thread * kSpecialInstCost +
          kc.index_insts_per_thread) *
         gpu.instruction_overhead;
}
}  // namespace

WarpAccessCost warp_access_cost(const MemAccess& access,
                                const hw::GpuSpec& gpu) {
  const double warp = gpu.warp_size;
  const double seg = gpu.transaction_bytes;
  WarpAccessCost cost;
  switch (access.cls) {
    case AccessClass::kCoalesced: {
      cost.transactions = std::ceil(warp * access.elem_bytes / seg);
      cost.bytes_moved = cost.transactions * seg;
      break;
    }
    case AccessClass::kStrided: {
      const double span =
          warp * static_cast<double>(std::abs(access.stride_elems)) *
          access.elem_bytes;
      cost.transactions = std::min(warp, std::ceil(span / seg));
      cost.bytes_moved = cost.transactions * seg;
      break;
    }
    case AccessClass::kScattered: {
      cost.transactions = warp;
      cost.bytes_moved =
          warp * std::max<double>(access.elem_bytes, kScatterGranularity);
      break;
    }
    case AccessClass::kUniform: {
      cost.transactions = 1.0;
      cost.bytes_moved = std::max<double>(access.elem_bytes,
                                          kScatterGranularity);
      break;
    }
  }
  return cost;
}

WarpDemands warp_demands(const KernelCharacteristics& kc,
                         const hw::GpuSpec& gpu) {
  WarpDemands wd;
  wd.warps_per_block =
      (kc.variant.block_size + gpu.warp_size - 1) / gpu.warp_size;
  wd.issue_cycles = static_cast<double>(gpu.warp_size) / gpu.cores_per_sm;
  wd.insts_per_thread = insts_per_thread(kc, gpu);
  wd.compute_cycles = wd.insts_per_thread * wd.issue_cycles;

  for (const MemAccess& access : kc.accesses) {
    const WarpAccessCost cost = warp_access_cost(access, gpu);
    double replay = 1.0;
    if (access.cls == AccessClass::kStrided ||
        access.cls == AccessClass::kScattered)
      replay = gpu.uncoalesced_replay_factor;
    double latency = gpu.dram_latency_cycles;
    if (access.cls == AccessClass::kScattered)
      latency *= gpu.indirect_access_penalty;
    // Gathered streams sustain only a fraction of streaming bandwidth;
    // charge the locality loss as extra effective demand.
    double locality = 1.0;
    if (access.gathered_stream) locality = 1.0 / gpu.gather_stream_fraction;
    wd.traffic_bytes +=
        access.count_per_thread * cost.bytes_moved * replay * locality;
    wd.mem_insts += access.count_per_thread;
    wd.latency_cycles += access.count_per_thread * latency;
  }
  return wd;
}

KernelTimeModel::KernelTimeModel(hw::GpuSpec gpu, ModelOptions options)
    : gpu_(std::move(gpu)), options_(options) {
  GROPHECY_EXPECTS(gpu_.num_sms > 0);
  GROPHECY_EXPECTS(gpu_.mem_bandwidth_gbps > 0.0);
  GROPHECY_EXPECTS(options_.streaming_bw_efficiency > 0.0 &&
                   options_.streaming_bw_efficiency <= 1.0);
  GROPHECY_EXPECTS(options_.gathered_stream_efficiency > 0.0 &&
                   options_.gathered_stream_efficiency <= 1.0);
}

KernelTimeBreakdown KernelTimeModel::project(
    const KernelCharacteristics& kc) const {
  return project(kc, compute_occupancy(gpu_, kc.variant.block_size,
                                       kc.regs_per_thread,
                                       kc.smem_per_block_bytes));
}

KernelTimeBreakdown KernelTimeModel::project(const KernelCharacteristics& kc,
                                             const Occupancy& occ) const {
  // No finite cutoff can prune (each bound is finite), so the projection
  // always completes.
  return *project_if_below(kc, occ,
                           std::numeric_limits<double>::infinity());
}

std::optional<KernelTimeBreakdown> KernelTimeModel::project_if_below(
    const KernelCharacteristics& kc, const Occupancy& occ,
    double cutoff_s) const {
  KernelTimeBreakdown out;
  out.occupancy = occ;
  if (out.occupancy.blocks_per_sm == 0) {
    out.feasible = false;
    out.total_s = std::numeric_limits<double>::infinity();
    return out;
  }

  out.launch_s = gpu_.kernel_launch_overhead_s;

  const double warps_per_block =
      std::ceil(static_cast<double>(kc.variant.block_size) / gpu_.warp_size);
  const double warps_total =
      static_cast<double>(kc.num_blocks) * warps_per_block;

  // Compute bound: the full synthesized instruction stream — arithmetic at
  // MAD throughput, specials on the SFUs, address/control instructions —
  // scaled by the architecture's calibrated instruction overhead. The
  // model knows this mix (it synthesized it), so the formulation matches
  // the simulator's (gpumodel::warp_demands); compute-bound kernels
  // therefore predict accurately, and the structural model-vs-machine gap
  // lives in the memory system.
  const double clock_hz = gpu_.core_clock_ghz * 1e9;
  const double issue_cycles =
      static_cast<double>(gpu_.warp_size) / gpu_.cores_per_sm;
  out.compute_s = warps_total * insts_per_thread(kc, gpu_) * issue_cycles /
                  (gpu_.num_sms * clock_hz);
  // total_s = max(bounds) + launch_s, so any bound alone lower-bounds the
  // total: once one reaches the cutoff the variant cannot win.
  if (out.compute_s + out.launch_s >= cutoff_s) return std::nullopt;

  // Bandwidth bound: every access stream priced by coalescing math at the
  // calibrated sustainable bandwidth, with gathered streams derated for
  // their poor DRAM page locality.
  const double stream_bw = gpu_.mem_bandwidth_gbps * util::kGB *
                           options_.streaming_bw_efficiency;
  double warp_mem_insts = 0.0;
  out.bandwidth_s = 0.0;
  for (const MemAccess& access : kc.accesses) {
    const WarpAccessCost cost = warp_access_cost(access, gpu_);
    const double stream_eff =
        access.gathered_stream ? options_.gathered_stream_efficiency : 1.0;
    out.bandwidth_s += access.count_per_thread * warps_total *
                       cost.bytes_moved / (stream_bw * stream_eff);
    warp_mem_insts += access.count_per_thread * warps_total;
  }
  if (out.bandwidth_s + out.launch_s >= cutoff_s) return std::nullopt;

  // Latency bound: each warp-level memory instruction exposes the DRAM
  // latency; resident warps overlap their stalls.
  const double overlap =
      std::max(1, out.occupancy.active_warps);
  out.latency_s = warp_mem_insts * gpu_.dram_latency_cycles /
                  (gpu_.num_sms * overlap * clock_hz);
  if (out.latency_s + out.launch_s >= cutoff_s) return std::nullopt;

  out.sync_s = 0.0;  // the optimistic model assumes barriers are free

  double body = out.compute_s;
  out.bound = "compute";
  if (out.bandwidth_s > body) {
    body = out.bandwidth_s;
    out.bound = "bandwidth";
  }
  if (out.latency_s > body) {
    body = out.latency_s;
    out.bound = "latency";
  }
  out.total_s = body + out.launch_s;
  return out;
}

}  // namespace grophecy::gpumodel
