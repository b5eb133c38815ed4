#include "hw/registry.h"

#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::hw {

namespace {

// Shared noise character of a healthy PCIe link: ~0.4% jitter on large
// transfers, a few percent on tiny ones (paper §V-A attributes most of the
// residual model error to this inherent variation).
PcieNoiseProfile default_noise() {
  PcieNoiseProfile noise;
  noise.sigma_floor = 0.004;
  noise.sigma_small = 0.030;
  noise.small_scale_bytes = 64.0 * 1024;
  noise.outlier_probability = 0.0;
  noise.outlier_factor = 2.2;
  return noise;
}

}  // namespace

MachineSpec anl_eureka() {
  MachineSpec m;
  m.name = "anl_eureka";

  m.cpu.name = "Intel Xeon E5405 @ 2.00GHz";
  m.cpu.sockets = 1;
  m.cpu.cores_per_socket = 4;
  m.cpu.threads = 8;  // paper: OpenMP with 8 threads
  m.cpu.clock_ghz = 2.0;
  m.cpu.flops_per_cycle_per_core = 8.0;  // 4-wide SSE, add + mul ports
  m.cpu.mem_bandwidth_gbps = 10.6;       // FSB-1333 era front-side bus
  m.cpu.per_core_bw_gbps = 3.5;          // one Harpertown core alone
  m.cpu.llc_bytes = 12ULL * util::kMiB;  // 2 x 6 MB L2
  m.cpu.achieved_bw_fraction = 0.60;
  m.cpu.parallel_efficiency = 0.82;
  m.cpu.timing_jitter_sigma = 0.02;

  m.gpu.name = "NVIDIA Quadro FX 5600 (G80)";
  m.gpu.memory_bytes = 1536ULL * util::kMiB;
  m.gpu.num_sms = 16;
  m.gpu.cores_per_sm = 8;
  m.gpu.core_clock_ghz = 1.35;
  m.gpu.mem_bandwidth_gbps = 76.8;
  m.gpu.warp_size = 32;
  m.gpu.max_threads_per_sm = 768;
  m.gpu.max_blocks_per_sm = 8;
  m.gpu.max_threads_per_block = 512;
  m.gpu.registers_per_sm = 8192;
  m.gpu.shared_mem_per_sm_bytes = 16 * 1024;
  m.gpu.dram_latency_cycles = 540.0;
  m.gpu.transaction_bytes = 128;  // G80 coalesces into 128B segments
  m.gpu.flops_per_core_per_cycle = 2.0;
  m.gpu.kernel_launch_overhead_s = 20e-6;  // CUDA 2.3-era driver
  // G80 realism: no L1 cache for global loads, strict coalescing rules, and
  // modest scheduling -> streaming kernels see well under peak bandwidth and
  // irregular kernels pay heavy replay penalties.
  m.gpu.achieved_bw_fraction = 0.74;
  m.gpu.uncoalesced_replay_factor = 1.28;
  m.gpu.indirect_access_penalty = 1.32;
  m.gpu.instruction_overhead = 1.15;
  m.gpu.sync_cycles = 48.0;
  m.gpu.gather_stream_fraction = 0.30;
  m.gpu.timing_jitter_sigma = 0.015;

  m.pcie.name = "PCIe v1 x16";
  m.pcie.generation = 1;
  m.pcie.lanes = 16;
  // Pinned memory: DMA straight from host memory. Calibrated to the paper:
  // alpha on the order of 10 us, asymptotic bandwidth ~2.5 GB/s (§III-C).
  // The h2d hump is larger than d2h, matching the paper's observation that
  // CPU-to-GPU predictions err more (max 6.4%) than GPU-to-CPU (max 3.3%).
  m.pcie.pinned_h2d.latency_s = 11e-6;
  m.pcie.pinned_h2d.asymptotic_gbps = 2.55;
  m.pcie.pinned_h2d.hump_extra_s = 2.2e-6;
  m.pcie.pinned_h2d.hump_center_bytes = 32.0 * 1024;
  m.pcie.pinned_h2d.hump_log_width = 1.5;
  m.pcie.pinned_d2h.latency_s = 12e-6;
  m.pcie.pinned_d2h.asymptotic_gbps = 2.35;
  m.pcie.pinned_d2h.hump_extra_s = 0.5e-6;
  m.pcie.pinned_d2h.hump_center_bytes = 32.0 * 1024;
  m.pcie.pinned_d2h.hump_log_width = 1.4;
  // Pageable memory: the driver stages through an internal pinned buffer,
  // adding a per-page copy cost and extra mid-size non-linearity (paper
  // footnote 4). Host-to-device latency is *lower* than pinned for tiny
  // transfers -- the paper observes pageable winning below ~2 KB.
  m.pcie.pageable_h2d.latency_s = 8e-6;
  m.pcie.pageable_h2d.asymptotic_gbps = 2.50;
  m.pcie.pageable_h2d.hump_extra_s = 16e-6;
  m.pcie.pageable_h2d.hump_center_bytes = 256.0 * 1024;
  m.pcie.pageable_h2d.hump_log_width = 1.2;
  m.pcie.pageable_h2d.page_staging_s_per_page = 2.5e-6;
  m.pcie.pageable_d2h.latency_s = 20e-6;
  m.pcie.pageable_d2h.asymptotic_gbps = 2.30;
  m.pcie.pageable_d2h.hump_extra_s = 20e-6;
  m.pcie.pageable_d2h.hump_center_bytes = 256.0 * 1024;
  m.pcie.pageable_d2h.hump_log_width = 1.2;
  m.pcie.pageable_d2h.page_staging_s_per_page = 2.2e-6;
  m.pcie.noise = default_noise();
  return m;
}

MachineSpec pcie2_fermi() {
  MachineSpec m = anl_eureka();
  m.name = "pcie2_fermi";

  m.cpu.name = "Intel Xeon X5650 @ 2.67GHz";
  m.cpu.cores_per_socket = 6;
  m.cpu.threads = 12;
  m.cpu.clock_ghz = 2.67;
  m.cpu.mem_bandwidth_gbps = 32.0;
  m.cpu.per_core_bw_gbps = 8.0;
  m.cpu.llc_bytes = 12ULL * util::kMiB;
  m.cpu.achieved_bw_fraction = 0.80;

  m.gpu.name = "NVIDIA Tesla C2050 (Fermi)";
  m.gpu.family = "fermi";
  m.gpu.memory_bytes = 3ULL * util::kGiB;
  m.gpu.num_sms = 14;
  m.gpu.cores_per_sm = 32;
  m.gpu.core_clock_ghz = 1.15;
  m.gpu.mem_bandwidth_gbps = 144.0;
  m.gpu.max_threads_per_sm = 1536;
  m.gpu.max_threads_per_block = 1024;
  m.gpu.registers_per_sm = 32768;
  m.gpu.shared_mem_per_sm_bytes = 48 * 1024;
  m.gpu.dram_latency_cycles = 450.0;
  m.gpu.kernel_launch_overhead_s = 8e-6;
  m.gpu.achieved_bw_fraction = 0.80;     // L1/L2 caches soften replay costs
  m.gpu.uncoalesced_replay_factor = 1.25;
  m.gpu.indirect_access_penalty = 1.35;

  m.pcie.name = "PCIe v2 x16";
  m.pcie.generation = 2;
  m.pcie.pinned_h2d.latency_s = 9e-6;
  m.pcie.pinned_h2d.asymptotic_gbps = 5.8;
  m.pcie.pinned_d2h.latency_s = 10e-6;
  m.pcie.pinned_d2h.asymptotic_gbps = 5.4;
  m.pcie.pageable_h2d.latency_s = 5e-6;
  m.pcie.pageable_h2d.asymptotic_gbps = 5.6;
  m.pcie.pageable_h2d.page_staging_s_per_page = 0.6e-6;  // faster memcpy
  m.pcie.pageable_d2h.latency_s = 16e-6;
  m.pcie.pageable_d2h.asymptotic_gbps = 5.2;
  m.pcie.pageable_d2h.page_staging_s_per_page = 0.7e-6;
  return m;
}

MachineSpec pcie3_kepler() {
  MachineSpec m = pcie2_fermi();
  m.name = "pcie3_kepler";

  m.cpu.name = "Intel Xeon E5-2670 @ 2.60GHz";
  m.cpu.cores_per_socket = 8;
  m.cpu.threads = 16;
  m.cpu.clock_ghz = 2.6;
  m.cpu.flops_per_cycle_per_core = 16.0;  // AVX
  m.cpu.mem_bandwidth_gbps = 51.2;
  m.cpu.per_core_bw_gbps = 12.0;
  m.cpu.llc_bytes = 20ULL * util::kMiB;

  m.gpu.name = "NVIDIA Tesla K20 (Kepler)";
  m.gpu.family = "kepler";
  m.gpu.memory_bytes = 5ULL * util::kGiB;
  m.gpu.num_sms = 13;
  m.gpu.cores_per_sm = 192;
  m.gpu.core_clock_ghz = 0.706;
  m.gpu.mem_bandwidth_gbps = 208.0;
  m.gpu.max_threads_per_sm = 2048;
  m.gpu.registers_per_sm = 65536;
  m.gpu.dram_latency_cycles = 400.0;
  m.gpu.kernel_launch_overhead_s = 6e-6;
  m.gpu.achieved_bw_fraction = 0.82;
  m.gpu.uncoalesced_replay_factor = 1.20;
  m.gpu.indirect_access_penalty = 1.30;

  m.pcie.name = "PCIe v3 x16";
  m.pcie.generation = 3;
  m.pcie.pinned_h2d.latency_s = 8e-6;
  m.pcie.pinned_h2d.asymptotic_gbps = 11.8;
  m.pcie.pinned_d2h.latency_s = 9e-6;
  m.pcie.pinned_d2h.asymptotic_gbps = 11.2;
  m.pcie.pageable_h2d.latency_s = 5e-6;
  m.pcie.pageable_h2d.asymptotic_gbps = 11.0;
  m.pcie.pageable_h2d.page_staging_s_per_page = 0.3e-6;  // DDR4-era memcpy
  m.pcie.pageable_d2h.latency_s = 14e-6;
  m.pcie.pageable_d2h.asymptotic_gbps = 10.4;
  m.pcie.pageable_d2h.page_staging_s_per_page = 0.35e-6;
  return m;
}

std::vector<MachineSpec> builtin_machines() {
  return {anl_eureka(), pcie2_fermi(), pcie3_kepler()};
}

}  // namespace grophecy::hw
