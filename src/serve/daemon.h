// Projection-as-a-service: the overload-safe projection daemon.
//
// The ROADMAP north star is a system that serves heavy concurrent traffic,
// which means the projection pipeline has to stay correct and responsive
// under *overload and partial failure*, not just in one-shot sweeps. The
// Daemon wraps the same job construction the SweepRequest batch path uses
// behind a bounded async request queue with explicit robustness
// semantics:
//
//   admission     the queue depth is bounded (DaemonOptions::
//   control       max_queue_depth); a request that would exceed it is
//                 *shed* with a typed "overloaded" reply carrying a
//                 retry_after_ms hint derived from the observed service
//                 rate — the daemon degrades by answering fast, never by
//                 queueing without bound;
//
//   deadlines     each request carries (or inherits) a wall-clock
//                 deadline covering queue wait + execution. A request
//                 whose deadline passes while queued is answered
//                 "timeout" without running; one that expires mid-
//                 execution has its attempt abandoned by the sweep
//                 engine's exec::AttemptRunner, so a hung projection can
//                 never wedge a worker;
//
//   coalescing    requests with identical job fingerprints collapse onto
//                 one in-flight computation (the PR 5 sweep dedupe
//                 pre-pass, extended across clients): one execution, one
//                 reply payload fanned out to every waiter, byte-
//                 identical for identical ids;
//
//   graceful      calibration failure inside the pipeline degrades to the
//   degradation   spec-derived bus model (the PR 1 calibrate_robust
//                 ladder) and the reply is served with "degraded":true
//                 rather than failed — capacity shrinks before it
//                 vanishes;
//
//   reply memo    a projection is a pure function of its spec, the
//                 machine and the seed, so the canonical pipeline's
//                 replies are remembered per job fingerprint (at most
//                 kMemoCapacity of them) and a repeat is answered inline
//                 from the admission path — no queue slot, no worker —
//                 byte-identical to a fresh computation;
//
//   introspection a "stats" request answers from the admission path —
//                 never the queue — so the dashboard stays readable
//                 precisely when the daemon is too busy to serve.
//
// Every request line receives exactly one reply line (ok / degraded /
// timeout / overloaded / parse / usage), including on shutdown. The
// daemon is transport-agnostic: handle_line() takes a wire line and a
// reply callback, and serve::SocketServer adds the local-socket framing.
// See docs/serving.md for the protocol and policy write-up.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/grophecy.h"
#include "exec/sweep.h"
#include "hw/registry.h"
#include "serve/protocol.h"

namespace grophecy::serve {

/// Daemon knobs. Defaults serve the paper testbed with a small worker
/// pool and an effectively unbounded deadline — admission control is the
/// only default backpressure; deployments add deadlines per request.
struct DaemonOptions {
  /// Machine every projection targets (multi-tenant: the calibration and
  /// artifact caches are shared across all requests).
  hw::MachineSpec machine = hw::anl_eureka();
  /// Base projection knobs; per-request measurement seeds are derived
  /// exactly like SweepRequest does (stream_seed of the job identity), so
  /// the daemon and a batch sweep of the same grid measure identical
  /// values.
  core::ProjectionOptions projection;
  std::uint64_t base_seed = core::ProjectionOptions{}.seed;

  /// Worker pool size; 0 = std::thread::hardware_concurrency().
  int workers = 2;
  /// Admission bound: project requests beyond this many *queued* (not yet
  /// running) jobs are shed with a typed "overloaded" reply. Coalesced
  /// requests attach to the in-flight job and are never shed.
  std::size_t max_queue_depth = 256;
  /// Deadline applied when a request does not carry deadline_ms.
  double default_deadline_s = std::numeric_limits<double>::infinity();
  /// Upper clamp on client-supplied deadlines (a client cannot pin a
  /// worker longer than the operator allows).
  double max_deadline_s = std::numeric_limits<double>::infinity();
  /// Transient-failure retries per request (within its deadline), same
  /// classification as the sweep engine.
  int max_retries = 0;

  /// Overrides the projection job function (chaos/soak tests and the
  /// machinery bench inject faults or stub work here). Must be
  /// thread-safe and tolerate watchdog abandonment, exactly like a
  /// SweepEngine job function. Empty = the canonical pipeline function
  /// (PaperSuite lookup + ExperimentRunner), which validates names with
  /// typed UsageErrors. Only the canonical pipeline is known to be pure,
  /// so only its replies fill the reply memo.
  exec::SweepEngine::JobFn job_fn;

  /// Invoked (once, from a worker or admission thread) when a client
  /// sends a "shutdown" request; the transport layer uses it to stop its
  /// accept loop. The daemon itself keeps running until shutdown().
  std::function<void()> on_shutdown_request;
};

/// Counters the "/stats" request reports; all monotonic since start()
/// except the gauges at the bottom. Sum rule under any load and fault
/// mix: received == replies == ok + timeouts + shed + parse_errors +
/// usage_errors + failed + stats/ping/shutdown control replies.
struct DaemonStats {
  std::uint64_t received = 0;       ///< Request lines seen.
  std::uint64_t replies = 0;        ///< Reply lines issued (exactly one each).
  std::uint64_t ok = 0;             ///< Projections served (incl. degraded).
  std::uint64_t degraded = 0;       ///< ...of which calibration degraded.
  std::uint64_t timeouts = 0;       ///< Deadline expiries (queued or running).
  std::uint64_t shed = 0;           ///< Admission-control rejections.
  std::uint64_t failed = 0;         ///< Permanent job failures (typed).
  std::uint64_t parse_errors = 0;   ///< Malformed request lines.
  std::uint64_t usage_errors = 0;   ///< Well-formed lines with bad fields.
  std::uint64_t coalesce_hits = 0;  ///< Requests attached to in-flight jobs.
  std::uint64_t memo_hits = 0;      ///< Requests answered from the reply
                                    ///< memo (counted in `ok` too).
  std::uint64_t executed = 0;       ///< Jobs actually run (post-coalesce).
  std::uint64_t expired_unrun = 0;  ///< Jobs whose waiters all expired queued.
  std::uint64_t abandoned = 0;      ///< Attempts abandoned at a deadline.

  std::size_t queue_depth = 0;      ///< Gauge: queued jobs right now.
  std::size_t inflight = 0;         ///< Gauge: queued + running jobs.
  std::size_t memo_entries = 0;     ///< Gauge: replies in the memo.
  double ema_exec_s = 0.0;          ///< Smoothed per-job execution time.

  // Warm multi-tenant tier, straight from the process-wide caches.
  std::uint64_t calibration_hits = 0;
  std::uint64_t calibration_misses = 0;
  std::uint64_t skeleton_cache_hits = 0;
  std::uint64_t skeleton_cache_misses = 0;
  std::uint64_t usage_cache_hits = 0;
  std::uint64_t usage_cache_misses = 0;
};

/// The daemon. Construct, start(), feed lines, shutdown(). Thread-safe:
/// handle_line may be called from any number of transport threads.
class Daemon {
 public:
  using ReplyFn = std::function<void(std::string)>;

  /// Bound on the reply memo. Once it holds this many replies it stops
  /// taking new ones; the held ones stay and keep answering repeats.
  static constexpr std::size_t kMemoCapacity = 1024;

  explicit Daemon(DaemonOptions options = {});
  /// Shuts down (draining) if still running; joins every thread,
  /// including abandoned attempts (which must terminate eventually, as
  /// with SweepEngine).
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the worker pool. Must be called before handle_line.
  void start();

  /// Stops admission, then — with drain=true — lets the workers finish
  /// every queued job (deadline rules still apply) before joining; with
  /// drain=false, queued jobs are answered "overloaded" immediately.
  /// Either way every pending request still gets exactly one reply.
  /// Idempotent.
  void shutdown(bool drain = true);

  /// Handles one request line; `reply` is invoked exactly once with the
  /// reply line (inline for control/shed/parse paths, from a worker for
  /// executed projections). Never throws.
  void handle_line(std::string line, ReplyFn reply);

  /// Synchronous convenience for tests and in-process clients: blocks
  /// until the reply is ready. Must not be called from a daemon worker.
  std::string handle(const std::string& line);

  DaemonStats stats() const;
  const DaemonOptions& options() const { return options_; }

 private:
  struct Waiter {
    std::string id;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    ReplyFn reply;
  };

  /// One queued/running job and everyone waiting on it. Guarded by
  /// mutex_ except `spec`, which is immutable after construction.
  struct Task {
    exec::JobSpec spec;
    std::vector<Waiter> waiters;
    bool running = false;
  };

  /// A job's last attempt, and how many attempts it took.
  struct ExecResult : exec::AttemptResult {
    int attempts = 0;
  };

  void worker_loop();
  /// Runs one job with the retry loop, each attempt supervised by
  /// attempts_ within the remaining time; never throws.
  ExecResult execute(const exec::JobSpec& spec,
                     std::chrono::steady_clock::time_point deadline,
                     bool has_deadline);
  void fan_out(const std::shared_ptr<Task>& task, const ExecResult& result);
  void reply_now(const ReplyFn& reply, std::string text);
  double retry_after_hint_locked() const;
  exec::SweepEngine::JobFn make_pipeline_job_fn() const;

  DaemonOptions options_;
  exec::SweepEngine::JobFn job_fn_;
  int workers_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  /// Fingerprint -> queued or running task; the coalescing index.
  std::map<std::string, std::shared_ptr<Task>> inflight_;
  /// Fingerprint -> reply_body of the canonical pipeline's reply.
  std::unordered_map<std::string, std::string> memo_;
  std::vector<std::thread> pool_;
  bool started_ = false;
  bool stopping_ = false;
  bool drain_ = true;

  exec::AttemptRunner attempts_;
  DaemonStats stats_;
  bool ema_seeded_ = false;
};

}  // namespace grophecy::serve
