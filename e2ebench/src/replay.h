// Pipeline internals, timed from outside.
//
// The replay runs each distinct projection of a run again through the
// public functions Grophecy::project_impl calls, in its order, and times
// each call: engine construction, skeleton lookup, usage lookup, explorer,
// kernel measurement, bus measurement, CPU measurement. It starts from the
// cache state the serving process had after its warm-up, so a skeleton the
// workload misses is missed here too. Its predicted kernel and transfer
// times must equal the served ones; otherwise it did different work and
// the traced run fails.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/grophecy.h"
#include "exec/sweep.h"

namespace e2e {

/// One served projection to replay.
struct Served {
  grophecy::exec::JobSpec spec;
  std::uint64_t base_seed = 0;
  double predicted_kernel_s = 0.0;
  double predicted_transfer_s = 0.0;
};

/// Summed over every replayed projection.
struct LayerTotals {
  std::size_t projections = 0;
  std::size_t mismatches = 0;  ///< Replays whose predictions differ.
  double engine_s = 0.0;
  double project_s = 0.0;
  double skeleton_s = 0.0;
  double usage_s = 0.0;
  double explore_s = 0.0;
  double sim_s = 0.0;
  double bus_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t variants = 0;
  std::uint64_t pruned = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_lookups = 0;
  std::uint64_t sim_events = 0;
  std::int64_t sim_blocks = 0;
  /// A full calibration (cache miss) per distinct machine.
  double calibrate_s = 0.0;
  std::size_t calibrations = 0;
};

/// Drops every process-wide cache the pipeline fills.
void clear_caches();

/// Replays `served` `rounds` times with `options`; `warm_up` restores the
/// serving process's post-warm-up cache state after clear_caches().
LayerTotals replay(const std::vector<Served>& served,
                   const grophecy::core::ProjectionOptions& options,
                   int rounds, const std::function<void()>& warm_up);

}  // namespace e2e
