// The resilient, parallel sweep engine.
//
// The paper's evaluation — and every figure/table bench in this repo — is
// a grid of (workload × data size × iteration count) projections. Run
// naively, that grid has the robustness of its weakest point: one thrown
// MeasurementError or one hung measurement aborts the whole campaign and
// discards every completed result. PR 1 hardened the *probe* level
// (pcie::TransferCalibrator::calibrate_robust); this module lifts the same
// contract to the *sweep* level:
//
//   * isolation   each job runs supervised; a failure becomes a structured
//                 JobError record in the summary, never an escaped
//                 exception, and the rest of the sweep continues;
//   * deadlines   a wall-clock watchdog per attempt converts hangs into
//                 timed-out JobErrors (the job is abandoned, the sweep
//                 moves on);
//   * retries     transient failures (MeasurementError, watchdog
//                 timeouts) are retried with the same bounded exponential
//                 backoff policy as the PR 1 calibrator; CalibrationError,
//                 ParseError, UsageError and ContractViolation are
//                 permanent — retrying cannot help;
//   * journaling  every finished job (ok or failed) is appended to a
//                 crash-safe checksummed journal (exec::ResultJournal)
//                 keyed by a deterministic job fingerprint and made
//                 durable before the committer waits for or runs
//                 another job;
//   * resume      a sweep pointed at an existing journal re-runs only the
//                 jobs that are missing or failed; completed results are
//                 replayed from the journal without re-measuring.
//
// Independent grid points additionally run *concurrently* without giving
// up determinism. run() plans, executes and commits every sweep once, for
// threads and shards alike:
//
//   * plan: in submission order, before anything runs, each job is a
//     duplicate of an earlier job with its fingerprint, resumed from a
//     journaled ok record, or pending;
//   * execute: pending jobs run on forked worker processes
//     (SweepOptions::shards), on a worker pool (SweepOptions::workers),
//     or — with one worker — inline on the calling thread. Each job's
//     result must be a pure function of its spec (the SweepRequest
//     builder gives every job its own engine seeded from the job
//     fingerprint), so measured values do not depend on worker count or
//     scheduling order;
//   * commit: one loop appends every job to the journal and the summary
//     in submission order, so the journal bytes and the summary are the
//     same for 1 worker, 100, or N shards. Pool workers write each
//     outcome straight into its place in the summary and wake the
//     committer only for the job it waits for. Records are
//     group-committed: each run of consecutive finished records goes to
//     the OS in one write of at most 64 KiB, and everything committed is
//     written and fsync'd before the committer waits for or runs the
//     next job — with one worker, before the next job starts.
//
// See docs/robustness.md ("The sweep-level degradation ladder" and
// "Concurrency and determinism") for the full policy write-up, and
// exec/sweep_request.h for the builder every bench constructs its grid
// through.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "util/error.h"

namespace grophecy::exec {

/// One point of the sweep grid. The spec is pure data — the engine hands
/// it to the caller's job function for execution — so a job is
/// re-creatable from its journal record alone.
struct JobSpec {
  std::string workload;    ///< Workload name (e.g. "CFD").
  std::string size_label;  ///< Data-size label (e.g. "97K").
  int iterations = 1;
  /// Registry name of the machine to project on; empty (the default)
  /// means "the request's machine" — the pre-cross-machine behaviour.
  /// A non-empty name joins the identity (key, fingerprint, stream
  /// seed), so the same grid point on two machines is two distinct
  /// jobs; an empty one leaves all three byte-identical to the
  /// single-machine era, which keeps old journals resumable. Initialized
  /// so that JobSpec{workload, size, iterations} names no machine.
  std::string machine = {};

  /// Human-readable identity, e.g. "CFD/97K/x1" — or
  /// "CFD/97K/x1@volta_v100" when a machine is named.
  std::string key() const;

  /// Deterministic 64-bit fingerprint of the identity as 16 hex chars;
  /// the journal key. Stable across processes and platforms (FNV-1a).
  std::string fingerprint() const;

  /// Deterministic per-job RNG seed: a pure function of (base_seed, this
  /// spec), decorrelated across specs. Jobs seeded this way measure the
  /// same values regardless of worker count or scheduling order.
  std::uint64_t stream_seed(std::uint64_t base_seed) const;
};

/// Why a job (or one attempt of it) failed. The kind is the framework's
/// ErrorKind taxonomy (util/error.h); string forms exist only at the
/// JSONL boundary (JobRecord) and in human-readable output.
struct JobError {
  ErrorKind kind = ErrorKind::kException;
  std::string message;
  bool timed_out = false;   ///< The deadline watchdog fired.
  bool retryable = false;   ///< Transient: retry may succeed.
};

/// Maps the exception currently in flight (callable from a catch block
/// only) to the sweep error taxonomy. Only measurement failures and
/// watchdog timeouts are transient; everything else is a property of the
/// configuration, and retrying cannot help. Shared by the sweep engine's
/// supervised attempts and the serve::Daemon request executor, so batch
/// and online failures classify identically.
JobError classify_current_exception();

/// How a journaled job ended. Serialized as "ok"/"failed" at the JSONL
/// boundary only (see record.cpp); the journal format is unchanged.
enum class RecordStatus {
  kOk,
  kFailed,
};

/// The journaled snapshot of one finished job: identity, outcome, and the
/// scalar results every sweep table derives its columns from. This is the
/// unit the journal stores and resume replays.
struct JobRecord {
  std::string fingerprint;
  std::string workload;
  std::string size_label;
  int iterations = 1;

  RecordStatus status = RecordStatus::kFailed;
  int attempts = 0;
  double elapsed_s = 0.0;
  /// Why the job failed; empty when ok.
  std::optional<ErrorKind> error_kind;
  std::string error_message;  ///< Empty when ok.

  // Result scalars (meaningful when status == RecordStatus::kOk); every
  // derived metric of core::ProjectionReport (speedups, error
  // percentages, limits) is a function of these.
  std::string machine;
  double predicted_kernel_s = 0.0;
  double measured_kernel_s = 0.0;
  double predicted_transfer_s = 0.0;
  double measured_transfer_s = 0.0;
  double measured_cpu_s = 0.0;
  double input_bytes = 0.0;
  double output_bytes = 0.0;
  bool calibration_fallback = false;  ///< Degraded-mode flag, bubbled up.

  bool ok() const { return status == RecordStatus::kOk; }

  /// Flat-JSON payload for the journal line.
  std::string to_json() const;
  /// Parses a journal payload; std::nullopt when malformed (a corrupt
  /// record is skipped, never fatal).
  static std::optional<JobRecord> from_json(std::string_view payload);

  /// Snapshot of a completed projection.
  static JobRecord from_report(const JobSpec& spec,
                               const core::ProjectionReport& report,
                               int attempts, double elapsed_s);
  /// Snapshot of a permanently failed job: the spec's identity (machine
  /// included) and the final error.
  static JobRecord from_error(const JobSpec& spec, const JobError& error,
                              int attempts, double elapsed_s);

  /// Reconstructs a ProjectionReport holding the journaled scalars. All
  /// derived metrics (speedups, errors, limits) match the original
  /// report; the structural detail (per-kernel/per-transfer breakdown,
  /// transfer plan) is empty — it is not journaled.
  core::ProjectionReport to_report() const;
};

/// How one job of the sweep ended.
enum class JobStatus {
  kOk,       ///< Executed in this run and succeeded.
  kResumed,  ///< Replayed from the journal; not re-executed.
  kDeduped,  ///< Duplicate of an earlier job in the same sweep: reused its
             ///< result without executing. Not journaled — the journal is
             ///< keyed by fingerprint, so the first occurrence's record
             ///< already covers every duplicate on resume.
  kFailed,   ///< Permanently failed (retries exhausted or not retryable).
};

/// Everything the engine knows about one job after the sweep.
struct JobOutcome {
  JobSpec spec;
  JobStatus status = JobStatus::kFailed;
  int attempts = 0;          ///< Executions this run (0 when resumed).
  double elapsed_s = 0.0;    ///< Wall clock across attempts this run.
  double backoff_s = 0.0;    ///< Total backoff the retry policy imposed.
  JobRecord record;          ///< Journaled snapshot (also for in-memory runs).
  /// The projection, for ok/resumed jobs. Executed jobs carry the full
  /// report; resumed jobs carry the scalar reconstruction
  /// (JobRecord::to_report). Empty for failed jobs.
  std::optional<core::ProjectionReport> report;
  std::optional<JobError> error;  ///< The final error, for failed jobs.

  bool ok() const { return status != JobStatus::kFailed; }
};

/// Engine knobs. Defaults are the transparent profile: no journal, no
/// deadline, retries on transient failures only — a fault-free sweep
/// behaves exactly like the serial loop it replaced, modulo the worker
/// pool (set workers = 1 for strictly serial in-order execution).
struct SweepOptions {
  /// Size of the worker pool executing independent jobs concurrently.
  /// 0 (the default) means std::thread::hardware_concurrency(); 1
  /// preserves the strictly serial in-order execution of the pre-pool
  /// engine. With more than one worker the job function is called
  /// concurrently and must be thread-safe (the SweepRequest builder's
  /// per-job-engine functions are). Ignored when shards > 0 (process
  /// sharding is the parallelism then; each worker process runs its
  /// jobs serially).
  int workers = 0;
  /// Process sharding (POSIX only). 0 (the default) executes jobs
  /// in-process on the thread pool above; N > 0 forks N worker
  /// processes and assigns jobs to them over a length-prefixed pipe
  /// protocol (see exec/shard/supervisor.h). Unlike threads, a worker
  /// process can die — segfault, OOM kill, a truly infinite loop — and
  /// the sweep survives: the supervisor detects the death (waitpid +
  /// heartbeat timeout), respawns the worker with the bounded-backoff
  /// policy below, re-assigns the in-flight job, and quarantines a job
  /// that keeps killing its workers (poison_kill_threshold) as a
  /// permanent ErrorKind::kWorkerDeath failure. With a journal_path
  /// each worker appends to its own crash-safe shard journal and a
  /// deterministic merge step folds the shards into the canonical
  /// journal in submission order — byte-identical to a single-process
  /// run of the same grid (set record_wall_time = false) — and resume
  /// recovers completed work from the shards even after the supervisor
  /// itself was killed.
  int shards = 0;
  /// Sharded mode: a worker that holds a job and has been silent this
  /// long is presumed stuck (an infinite loop heartbeats never) and is
  /// SIGKILLed; the in-flight job goes back to the queue or, past the
  /// poison threshold, to quarantine. This is the process-level
  /// analogue of deadline_s — it must exceed the worst-case honest job
  /// time (including in-worker retries).
  double heartbeat_timeout_s = 30.0;
  /// Sharded mode: worker deaths attributed to the same job before the
  /// job is quarantined as a permanent JobError instead of being
  /// re-assigned to (and re-killing) fresh workers forever.
  int poison_kill_threshold = 2;
  /// Extra attempts per job on a retryable failure. Mirrors the PR 1
  /// calibration policy (pcie::RobustnessOptions).
  int max_retries = 3;
  /// Backoff before retry k is min(backoff_initial_s * 2^k, backoff_max_s),
  /// recorded in the outcome; the simulated harness does not sleep.
  double backoff_initial_s = 1e-3;
  double backoff_max_s = 0.25;
  /// Wall-clock deadline per attempt. Infinity (the default) runs jobs
  /// inline; a finite deadline runs each attempt on a supervised thread
  /// and abandons it when the deadline passes. Job functions used with a
  /// finite deadline must tolerate abandonment (see SweepEngine docs).
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Journal file path; empty disables journaling (and resume).
  std::string journal_path;
  /// Replay journaled "ok" records instead of re-running their jobs.
  bool resume = true;
  /// Record per-job wall-clock time in journal records. Disable to make
  /// the journal bytes a pure function of the jobs and their results —
  /// bitwise identical across runs and worker counts (the determinism
  /// suite relies on this; timing stays available in JobOutcome either
  /// way).
  bool record_wall_time = true;

  /// Throws UsageError naming the offending field for any value the
  /// engine cannot run with (negative counts, non-positive deadlines,
  /// inverted backoff bounds). Mirrors ProjectionOptions::validate:
  /// invalid knobs are a bad *request*, not a programming error, so
  /// they surface as the user-facing taxonomy kind instead of a
  /// ContractViolation. SweepEngine's constructor calls this.
  void validate() const;
};

/// Sweep-wide accounting, the dashboard a campaign is judged by.
struct SweepSummary {
  std::vector<JobOutcome> outcomes;  ///< One per job, in submission order.

  int ok = 0;            ///< Executed and succeeded this run.
  int resumed = 0;       ///< Replayed from the journal (skipped).
  int deduped = 0;       ///< Duplicates that reused an earlier job's result.
  int failed = 0;        ///< Permanently failed.
  int retried = 0;       ///< Jobs that needed more than one attempt.
  int attempts = 0;      ///< Total executions across all jobs.
  double backoff_total_s = 0.0;
  /// True when any successful projection ran in degraded mode (its
  /// calibration fell back to the spec-derived bus model).
  bool degraded = false;
  /// Journal lines that failed validation on resume (torn tail: <= 1
  /// after a crash; more indicates real corruption).
  int journal_corrupt_lines = 0;
  /// Of those, lines *followed by further lines* — impossible as a crash
  /// artifact of the append-only writer; real damage. describe() warns
  /// loudly when nonzero (includes checksummed lines whose payload no
  /// longer parses as a JobRecord).
  int journal_corrupt_interior = 0;
  /// The journal file the corruption counters refer to; empty for
  /// journal-less runs. Sharded runs append every damaged shard journal
  /// ("; <path>") so triage names the exact file instead of leaving the
  /// operator to guess which shard.
  std::string journal_path;

  // --- process-sharded execution accounting (shards > 0 only) ---
  // Deliberately absent from describe(): a transient worker death that
  // was recovered must not change the human-readable summary of an
  // otherwise identical sweep (the chaos gate compares describe() of a
  // killed sharded run against an unfaulted serial run).
  int worker_deaths = 0;     ///< Worker processes that died mid-sweep.
  int worker_respawns = 0;   ///< Replacement workers forked.
  int quarantined = 0;       ///< Poison jobs failed with kWorkerDeath.
  double respawn_backoff_s = 0.0;  ///< Backoff the respawn policy imposed.

  /// The outcome of one spec, or nullptr when it was not in the sweep.
  const JobOutcome* find(const JobSpec& spec) const;

  /// Multi-line human-readable account. Deliberately excludes wall-clock
  /// values, so a deterministic sweep describes identically across runs
  /// and worker counts.
  std::string describe() const;
};

/// Maps a spec to its projection; may throw anything.
using JobFn = std::function<core::ProjectionReport(const JobSpec&)>;

/// One attempt at a job: its projection, or why there is none.
struct AttemptResult {
  std::optional<core::ProjectionReport> report;
  JobError error;  ///< Meaningful when report is empty.
};

/// The supervised attempt SweepEngine and serve::Daemon share. With an
/// infinite deadline the job runs inline, with no thread and no lock.
/// Otherwise it runs on its own thread while the caller waits out the
/// deadline; a late attempt is *abandoned* (it keeps running, its result
/// is discarded) and its thread joined by a later supervised attempt once
/// it finished, or by join_strays() and the destructor. So an abandoned
/// job must terminate eventually (simulated hangs do; a truly infinite
/// loop would block teardown — isolate such jobs in processes) and may
/// only touch state that is safe to race with a later attempt.
/// Thread-safe.
class AttemptRunner {
 public:
  AttemptRunner() = default;
  ~AttemptRunner() { join_strays(); }

  AttemptRunner(const AttemptRunner&) = delete;
  AttemptRunner& operator=(const AttemptRunner&) = delete;

  /// Runs fn(spec) once; never throws. A failure is classified by
  /// classify_current_exception, a late attempt is a retryable kTimeout.
  AttemptResult run(const JobSpec& spec, const JobFn& fn, double deadline_s);

  /// Blocks until every abandoned attempt has finished and joins it.
  void join_strays() { join(/*finished_only=*/false); }

  /// Attempts abandoned so far.
  std::uint64_t abandoned() const;
  /// Abandoned attempts whose thread is not joined yet.
  std::size_t strays() const;

 private:
  struct Stray {
    std::thread thread;
    std::future<core::ProjectionReport> done;
  };

  void join(bool finished_only);

  mutable std::mutex mutex_;
  std::vector<Stray> strays_;
  std::uint64_t abandoned_ = 0;
};

/// Runs batches of projection jobs with fault isolation, deadlines,
/// retries, crash-safe journaling, and a deterministic worker pool.
///
/// The job function maps a spec to its projection; it may throw anything.
/// With workers > 1 it is called concurrently from pool threads and must
/// be thread-safe. With a finite deadline each attempt is supervised by
/// an AttemptRunner, whose abandonment contract the job function must
/// meet.
class SweepEngine {
 public:
  using JobFn = exec::JobFn;

  explicit SweepEngine(SweepOptions options = {});

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Runs every job; outcomes, summary counters, and journal appends are
  /// in submission order regardless of worker count. Jobs with an
  /// identical fingerprint are executed once: every later occurrence
  /// reuses the first one's result (JobStatus::kDeduped) without running
  /// or journaling. Never throws for job failures; see SweepSummary.
  /// Throws UsageError only when the journal file cannot be opened.
  SweepSummary run(const std::vector<JobSpec>& jobs, const JobFn& fn);

  const SweepOptions& options() const { return options_; }

  /// The pool size run() will use: options().workers, with 0 resolved to
  /// std::thread::hardware_concurrency() (at least 1).
  int effective_workers() const;

  /// The supervised retry loop for one job (thread-safe; called from pool
  /// workers). Produces a fully-populated outcome including its record.
  /// Public so a shard worker process (exec/shard/worker.h) can run the
  /// exact same attempt/retry/record policy as the in-process engine —
  /// the property that makes a sharded journal byte-identical to a
  /// serial one.
  JobOutcome execute_job(const JobSpec& spec, const JobFn& fn);

 private:
  /// The journal's parseable records by fingerprint (later records win),
  /// with its path and corruption counts folded into `summary`. Empty
  /// without a journal_path.
  std::map<std::string, JobRecord> read_journal(SweepSummary& summary) const;
  /// Folds one committed outcome into the summary counters. Called in
  /// submission order only, so the counters are identical for any worker
  /// or shard count.
  static void tally(SweepSummary& summary, const JobOutcome& outcome);

  SweepOptions options_;
  AttemptRunner attempts_;
};

}  // namespace grophecy::exec
