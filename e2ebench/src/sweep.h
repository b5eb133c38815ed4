// The sweep workloads: exec::SweepRequest grids run on exec::SweepEngine
// in a sweep host process.
//
// The host is this benchmark's own executable started with --host, so that
// set-up can be timed from a cold process launch exactly like the daemon's
// and so that CPU time and peak RSS are the sweep's alone. The host runs
// the warm-up pass, reports "ready", and on "go" runs every measured pass,
// streaming each job's journal record and each pass's wall, CPU and stolen
// time back on stdout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "phase.h"

namespace e2e {

/// The canonical job function of one sweep pass with base seed `seed`.
grophecy::exec::SweepEngine::JobFn sweep_job_fn(
    const grophecy::core::ProjectionOptions& options, std::uint64_t seed);

/// One job function per measured pass.
std::vector<grophecy::exec::SweepEngine::JobFn> pass_job_fns(
    const Inputs& inputs);

/// Runs one pass of `specs` on a fresh engine (and, when the workload
/// journals, a fresh journal file under `journal_path`).
grophecy::exec::SweepSummary run_pass(
    const Inputs& inputs, const std::vector<grophecy::exec::JobSpec>& specs,
    const grophecy::exec::SweepEngine::JobFn& fn,
    const std::string& journal_path);

/// Runs the warm-up pass with default projection options: it fills the
/// calibration, skeleton and usage caches the measured passes use.
void warm_up_sweep(const Inputs& inputs);

/// Entry point of the sweep host process.
int host_main(const Workload& workload, std::uint64_t seed, int run_seconds);

/// An untraced sweep run in host processes.
struct SweepRun {
  std::vector<double> setup_s;  ///< One per cold start.
  Phase phase;
  /// Journal record JSON of every job, by pass then job.
  std::vector<std::vector<std::string>> records;
};
SweepRun run_sweep(const Workload& workload, std::uint64_t seed, int run_seconds,
                   const Inputs& inputs, int cold_starts);

/// A sweep run in this process, every job timed by a wrapper around the
/// canonical job function.
struct SweepTrace {
  Phase phase;
  std::vector<std::vector<std::string>> records;
  double job_s = 0.0;  ///< Summed wall time inside the job function.
  std::size_t job_calls = 0;
  int deduped = 0;
  int retried = 0;
};
SweepTrace trace_sweep(const Inputs& inputs);

}  // namespace e2e
