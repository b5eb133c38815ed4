#include "brs/footprint.h"

#include <map>

#include "brs/extract.h"
#include "brs/section_set.h"

namespace grophecy::brs {

namespace {

/// True if the statement's nest contains a loop (trip count > 1) that the
/// hidden index does not depend on: that loop's iterations either revisit
/// the gathered address or stream sequentially from it, so the gather
/// amortizes like a stream (CSR SpMM's B[col[k], j] and a_val[k] under the
/// j loop). A gather whose hidden index depends on EVERY enclosing loop
/// lands on a fresh random address each execution (CFD's neighbor reads).
bool gather_is_amortized(const skeleton::ArrayRef& ref,
                         const skeleton::KernelSkeleton& kernel,
                         const skeleton::Statement& stmt) {
  const std::size_t depth =
      stmt.depth < 0 ? kernel.loops.size()
                     : std::min<std::size_t>(stmt.depth, kernel.loops.size());
  for (std::size_t loop = 0; loop < depth; ++loop) {
    if (kernel.loops[loop].trip_count() <= 1) continue;
    bool in_deps = false;
    for (skeleton::LoopId dep : ref.indirect_deps)
      if (static_cast<std::size_t>(dep) == loop) in_deps = true;
    if (!in_deps) return true;
  }
  return false;
}

}  // namespace

KernelFootprint kernel_footprint(const skeleton::AppSkeleton& app,
                                 const skeleton::KernelSkeleton& kernel) {
  KernelFootprint fp;

  std::map<skeleton::ArrayId, SectionSet> read_sets;
  std::map<skeleton::ArrayId, SectionSet> write_sets;

  for (const skeleton::Statement& stmt : kernel.body) {
    const auto iterations =
        static_cast<std::uint64_t>(kernel.statement_iterations(stmt));
    fp.flops += stmt.flops * static_cast<double>(iterations);
    fp.special_ops += stmt.special_ops * static_cast<double>(iterations);
    for (const skeleton::ArrayRef& ref : stmt.refs) {
      const skeleton::ArrayDecl& decl = app.array(ref.array);
      const auto elem = static_cast<std::uint64_t>(
          skeleton::elem_size_bytes(decl.type));
      const Section section = access_section(app, kernel, ref);
      if (ref.kind == skeleton::RefKind::kLoad) {
        read_sets[ref.array].add(section);
        fp.dynamic_loads += iterations;
        fp.dynamic_load_bytes += iterations * elem;
        if (ref.has_indirection() || decl.sparse) {
          fp.dynamic_indirect_loads += iterations;
          if (ref.has_indirection() &&
              !gather_is_amortized(ref, kernel, stmt))
            fp.dynamic_random_gathers += iterations;
        }
      } else {
        write_sets[ref.array].add(section);
        fp.dynamic_stores += iterations;
        fp.dynamic_store_bytes += iterations * elem;
      }
    }
  }

  for (const auto& [array_id, set] : read_sets)
    fp.unique_bytes_read += set.bounding_union().bytes(app.array(array_id));
  for (const auto& [array_id, set] : write_sets)
    fp.unique_bytes_written +=
        set.bounding_union().bytes(app.array(array_id));
  return fp;
}

std::vector<KernelFootprint> kernel_footprints(
    const skeleton::AppSkeleton& app) {
  std::vector<KernelFootprint> footprints;
  footprints.reserve(app.kernels.size());
  for (const skeleton::KernelSkeleton& kernel : app.kernels)
    footprints.push_back(kernel_footprint(app, kernel));
  return footprints;
}

}  // namespace grophecy::brs
