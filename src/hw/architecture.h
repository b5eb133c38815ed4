// Architecture families: the rules a flat MachineSpec cannot carry.
//
// The paper's framework is deliberately "not system specific" (§III-C) —
// the PCIe model recalibrates per machine and the GPU model reads a plain
// parameter struct. But some machine behaviour is a property of the
// *generation*, not of one device's datasheet numbers: how the register
// file and shared memory are allocated (occupancy rules), what wavefront
// geometry the scheduler assumes, which interconnect generations the era
// shipped with, and what parameter ranges are even plausible. An
// Architecture bundles those rules for one hardware family, so a registry
// of machines spanning Tesla-class (the paper's G80 testbed) through
// modern generations can be validated and modeled consistently — the
// GPUArchitecture shape from cross-machine black-box modeling work
// (Stevens & Klöckner, arXiv:1904.09538) ported to this codebase.
//
// GpuSpec::family names the family; Architecture::of() resolves it. The
// default knobs (allocation granularity 1) reproduce the exact-fit
// arithmetic the original three machines were modeled with, so attaching
// families to existing specs changes no projected number.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hw/machine.h"

namespace grophecy::hw {

/// Occupancy of one SM for a candidate block shape, as computed by a
/// family's allocation rules. gpumodel::Occupancy is this type; the
/// limiter strings are part of its contract.
struct Occupancy {
  int blocks_per_sm = 0;
  int active_warps = 0;   ///< Warps (family wavefronts) resident per SM.
  double fraction = 0.0;  ///< active_warps / max warps.
  /// Which resource capped the block count: "threads", "blocks", "regs",
  /// or "smem".
  const char* limiter = "";
};

/// One hardware generation's rule set. Stateless and immutable; the
/// concrete families are process-wide singletons owned by the class (see
/// of() / families()), safe to share across sweep workers.
class Architecture {
 public:
  virtual ~Architecture() = default;

  /// Family key as spelled in GpuSpec::family / .gmach `gpu.family`.
  virtual std::string_view family() const = 0;
  /// Human-readable generation description for reports.
  virtual std::string_view description() const = 0;

  /// The wavefront width the family's scheduler issues (CUDA warp 32,
  /// CDNA wave 64). GpuSpec::warp_size must match; validate() enforces.
  virtual int wave_size() const { return 32; }

  /// Newest PCIe generation the family shipped with; validate() rejects a
  /// spec pairing e.g. a G80-class device with a gen5 link, which would
  /// silently model a machine that cannot exist.
  virtual int max_pcie_generation() const { return 5; }

  /// How many blocks of the given shape fit on one SM under this family's
  /// allocation rules. The base implementation is the framework's
  /// classical exact-fit computation with the spec's allocation
  /// granularities applied (granularity 1 == the historical arithmetic).
  virtual Occupancy occupancy(const GpuSpec& gpu, int block_size,
                              std::uint32_t regs_per_thread,
                              std::uint32_t smem_per_block) const;

  /// Peak single-precision throughput, GFLOP/s. Base: clock x cores x
  /// flops-per-core-per-cycle (the datasheet FMA number).
  virtual double peak_gflops(const GpuSpec& gpu) const;

  /// Peak DRAM bandwidth, GB/s (the datasheet number; the simulators
  /// derate it with the realism fields).
  virtual double peak_bandwidth_gbps(const GpuSpec& gpu) const;

  /// Family-specific structural checks beyond validate_machine's generic
  /// ones. Throws UsageError naming the offending field.
  virtual void validate(const GpuSpec& gpu) const;

  /// Resolves a family key; throws UsageError listing the valid families
  /// for an unknown one.
  static const Architecture& of(std::string_view family);
  /// Same, returning nullptr instead of throwing.
  static const Architecture* try_of(std::string_view family);
  /// Every registered family key, oldest generation first.
  static std::vector<std::string> families();
};

/// Validates a complete machine description: positive geometry, finite
/// rates, a known architecture family (whose own validate() then runs),
/// and an interconnect whose claimed bandwidths fit inside the link's
/// theoretical capacity. Throws UsageError as
/// "machine '<name>': <field>: <problem>" — bad machine *input*, not a
/// programming error. The registry calls this for every spec it admits.
void validate_machine(const MachineSpec& machine);

}  // namespace grophecy::hw
