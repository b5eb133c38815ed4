// The serve workloads: tools/serve_daemon driven over AF_UNIX by a closed
// loop of serve::Client connections.
//
// The loop is closed because the daemon's callers (porting planners, sweep
// campaigns, serve_loadgen by default) wait for each reply before sending
// the next request, and because on a small VM an open loop's tail latency
// measures scheduler stalls rather than the program (see README.md).
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"
#include "phase.h"
#include "serve/daemon.h"

namespace e2e {

/// Closed-loop connections; one per daemon worker.
inline constexpr int kConnections = 2;
inline constexpr int kDaemonWorkers = 2;

/// Request ids and wire lines of a run: measured requests are "<index>",
/// warm-up requests "w<index>".
struct Lines {
  std::vector<std::string> ids;
  std::vector<std::string> lines;
};
Lines make_lines(const std::vector<grophecy::exec::JobSpec>& specs,
                 const std::string& prefix);

/// Completions per window of a serve phase: the fewest for which a
/// window's p99 has 10 requests beyond it.
inline constexpr std::size_t kWindowRequests = 1000;

/// Result of one closed-loop pass over `lines`.
struct Loop {
  std::vector<std::string> replies;  ///< By request index; "" = missing.
  /// Groups of kWindowRequests consecutive completions; a partial last
  /// group is dropped.
  std::vector<Window> windows;
};

/// Called from a client thread right after request i's reply arrived.
using ReplyHook =
    std::function<void(std::size_t i, Clock::time_point sent,
                       Clock::time_point received)>;

/// Sends every line through `connections` clients on `socket_path`, each
/// waiting for its reply before sending the next. `cpu_seconds`, when
/// set, reads the serving process's CPU time at window boundaries.
Loop closed_loop(const std::string& socket_path,
                 const std::vector<std::string>& lines, int connections,
                 const std::function<double()>& cpu_seconds,
                 const ReplyHook& hook = {});

/// An untraced serve run against the shipped daemon binary.
struct ServeRun {
  std::vector<double> setup_s;  ///< One per cold start.
  std::size_t setup_attempted = 0;  ///< Warm-up requests, all starts.
  std::size_t setup_failed = 0;
  Phase phase;
  std::vector<std::string> replies;  ///< The measured phase's replies.
};

/// Launches the daemon `cold_starts` times, timing launch -> end of the
/// warm-up pass; the last one serves the measured phase.
ServeRun run_serve(const Inputs& inputs, int cold_starts);

/// A serve run with serve::Daemon + serve::SocketServer hosted in this
/// process, its job function wrapped in a timer.
struct ServeTrace {
  Phase phase;
  std::vector<std::string> replies;
  double job_s = 0.0;  ///< Summed wall time inside the job function.
  std::size_t job_calls = 0;
  /// Summed over requests: send -> start of the execution that answered.
  double queue_wait_s = 0.0;
  /// Summed over requests: send -> reply minus the part of that interval
  /// the answering execution ran.
  double overhead_s = 0.0;
  grophecy::serve::DaemonStats stats;  ///< Measured phase only.
};
ServeTrace trace_serve(const Inputs& inputs);

/// The canonical job function a daemon started with `inputs` answers with.
grophecy::exec::SweepEngine::JobFn serve_job_fn(const Inputs& inputs);

}  // namespace e2e
