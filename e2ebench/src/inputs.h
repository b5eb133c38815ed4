// Seeded inputs of the three benchmark workloads.
//
// Every workload is a fixed-count sequence of projection requests whose
// length is a function of --seconds alone, never of measured speed, so
// cache sizes and memory footprints do not move when the program gets
// faster. The --seed argument fixes everything random: request order, the
// daemon's --seed and the per-pass sweep seeds. The program under test
// only ever sees the generated specs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/grophecy.h"
#include "exec/sweep.h"

namespace e2e {

enum class Kind { kServeHot, kSweepFleet, kSweepDetailed };

struct Workload {
  const char* name;
  Kind kind;
  bool serves() const { return kind == Kind::kServeHot; }
};

/// One of serve-hot, sweep-fleet, sweep-detailed; throws
/// std::invalid_argument for any other name.
const Workload& find_workload(const std::string& name);

/// What one run of a workload sends to the program.
struct Inputs {
  /// Serve: the measured request sequence. Sweep: the grid of one pass.
  std::vector<grophecy::exec::JobSpec> specs;
  /// Serve: the warm-up specs, each sent once. Sweep: the warm-up grid.
  std::vector<grophecy::exec::JobSpec> warmup;
  /// Serve: the daemon's --seed.
  std::uint64_t daemon_seed = 0;
  /// Sweep: one base seed per measured pass (each pass is a fresh sweep).
  std::vector<std::uint64_t> pass_seeds;
  /// Sweep: base seed of the warm-up pass.
  std::uint64_t warmup_seed = 0;
  /// Projection options of the measured phase (sweep-detailed turns on
  /// the detailed simulator); the warm-up of every workload uses defaults.
  grophecy::core::ProjectionOptions options;
  /// Sweep: engine workers.
  int workers = 2;
  /// Sweep: write a crash-safe journal per pass (record_wall_time=false).
  bool journal = false;
};

Inputs make_inputs(const Workload& workload, std::uint64_t seed, int run_seconds);

}  // namespace e2e
