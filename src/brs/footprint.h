// Kernel memory footprints derived from section analysis.
//
// Both performance models need two views of a kernel's memory behaviour:
// the *unique* bytes it touches (union of sections — what caches can
// exploit and what must be resident) and the *dynamic* reference counts
// (every executed load/store — what the memory system must service).
#pragma once

#include <cstdint>
#include <vector>

#include "skeleton/skeleton.h"

namespace grophecy::brs {

/// Aggregate memory/compute footprint of one kernel.
struct KernelFootprint {
  std::uint64_t unique_bytes_read = 0;     ///< Union of load sections.
  std::uint64_t unique_bytes_written = 0;  ///< Union of store sections.
  std::uint64_t dynamic_loads = 0;         ///< Executed load references.
  std::uint64_t dynamic_stores = 0;        ///< Executed store references.
  /// Executed loads whose address is data dependent (gathers): on a CPU
  /// these miss caches at some rate regardless of the footprint size.
  std::uint64_t dynamic_indirect_loads = 0;
  /// The subset of indirect loads that are *unamortized*: no affine
  /// dimension of the reference streams over a loop outside the hidden
  /// index's dependences, so every execution lands on a fresh random
  /// address (CFD's neighbor gathers). Amortized gathers (CSR SpMM's
  /// B[col[k], j], where j streams the gathered row) behave like streams.
  std::uint64_t dynamic_random_gathers = 0;
  std::uint64_t dynamic_load_bytes = 0;    ///< Loads weighted by elem size.
  std::uint64_t dynamic_store_bytes = 0;
  double flops = 0.0;
  double special_ops = 0.0;

  std::uint64_t unique_bytes() const {
    return unique_bytes_read + unique_bytes_written;
  }
  std::uint64_t dynamic_bytes() const {
    return dynamic_load_bytes + dynamic_store_bytes;
  }
};

/// Computes the footprint of `kernel` within `app`.
KernelFootprint kernel_footprint(const skeleton::AppSkeleton& app,
                                 const skeleton::KernelSkeleton& kernel);

/// kernel_footprint of every kernel of `app`, in app.kernels order.
std::vector<KernelFootprint> kernel_footprints(
    const skeleton::AppSkeleton& app);

}  // namespace grophecy::brs
