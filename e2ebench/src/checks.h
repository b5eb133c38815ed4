// Output checks. Every reply and every sweep record of a run is compared
// byte for byte with what the canonical job function computes in this
// process, after the timed phase. A mismatch, an error reply or a missing
// output counts as one failed operation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/sweep.h"

namespace e2e {

/// What the checks found.
struct Checked {
  std::size_t failed = 0;
  /// The paper's Table II metric: mean over the run's distinct projections
  /// of |predicted speedup with transfer - measured| / measured, in %.
  double speedup_err_pct = 0.0;
};

/// Checks that replies[i] equals
/// serve::projection_reply(ids[i], fn(specs[i]), 1). An empty reply is a
/// missing one. Requests for the same spec share one computation.
Checked check_replies(const std::vector<grophecy::exec::JobSpec>& specs,
                      const std::vector<std::string>& ids,
                      const std::vector<std::string>& replies,
                      const grophecy::exec::SweepEngine::JobFn& fn);

/// Checks that records[p][j] equals the journal record of
/// pass_fns[p](specs[j]) after one attempt (JobRecord::to_json, wall time
/// not recorded). A pass with fewer records than specs misses the rest.
Checked check_records(const std::vector<grophecy::exec::JobSpec>& specs,
                      const std::vector<grophecy::exec::SweepEngine::JobFn>&
                          pass_fns,
                      const std::vector<std::vector<std::string>>& records);

}  // namespace e2e
