// The process-shard supervisor: worker-death survival for sweeps.
//
// Threads share a fate: a segfault, an OOM kill, or a genuinely infinite
// loop in one in-process worker takes the whole sweep (and every
// uncommitted result) with it. SweepOptions::shards > 0 trades the thread
// pool for N forked worker *processes*, and this module is the parent
// side of that trade. The supervisor:
//
//   * forks the workers (plain fork, no exec — the job closure crosses
//     for free) and talks to each over its own AF_UNIX socketpair with
//     the length-prefixed protocol of exec/shard/protocol.h;
//   * hands out jobs dynamically in submission order, one in flight per
//     worker;
//   * detects death three ways: socket EOF (the kernel closes the fd when
//     the process dies), waitpid classification (clean exit / nonzero
//     exit / fatal signal), and heartbeat silence (a worker holding a job
//     that says nothing for heartbeat_timeout_s is presumed wedged and is
//     SIGKILLed — an infinite loop cannot be detected any other way);
//   * re-queues the dead worker's in-flight job at the FRONT of the queue
//     and respawns a replacement with the same bounded exponential
//     backoff policy the retry path uses (recorded, not slept), under a
//     total respawn budget so a dying *machine* cannot respawn forever;
//   * quarantines poison: a job whose execution has now killed
//     poison_kill_threshold workers stops being re-assigned and becomes a
//     permanent, structured ErrorKind::kWorkerDeath failure — one bad job
//     cannot chew through the fleet while every other job completes.
//
// The supervisor is strictly single-threaded — one poll(2) loop, no
// worker pool, no committer thread — so fork(2) is always called from a
// single-threaded process (well-defined even under TSan) and no lock can
// be held across a fork.
//
// Journaling and the crash-consistent merge are the other half of the
// story: each worker appends to its own shard journal before acking, and
// SweepEngine::run commits every job in submission order, appending the
// acked record bytes (settle) verbatim to the canonical journal —
// byte-identical to a serial run of the same grid. If the *supervisor*
// dies, the shard files remain; the next run's plan reads them back
// (recover_shards) and only genuinely missing jobs execute again. Once the
// canonical journal is fsync'd, retire_shards deletes them. See
// docs/robustness.md ("Process isolation and sharding").
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/shard/protocol.h"
#include "exec/sweep.h"

namespace grophecy::exec::shard {

/// The shard journal path for worker slot `slot` of `journal_path`:
/// "<journal_path>.shard<slot, 3 digits>". Kept next to the canonical
/// journal so shards survive exactly as long as their sweep's directory.
std::string shard_path(const std::string& journal_path, int slot);

/// Every existing shard file of `journal_path`, sorted. Matches any slot
/// number, not just the current shard count, so a resume with fewer
/// shards still recovers every file a wider previous run left behind.
std::vector<std::string> existing_shard_paths(const std::string& journal_path);

/// One pending job: its index in the sweep's submission order (the key of
/// SuperviseResult::jobs) plus the spec itself.
struct PendingJob {
  std::size_t index = 0;
  JobSpec spec;
};

/// How supervision ended for one pending job.
enum class ShardJobStatus {
  kCompleted,    ///< A worker acked it (ok or failed — see the record).
  kQuarantined,  ///< Killed >= poison_kill_threshold workers; poison.
  kAbandoned,    ///< Respawn budget exhausted before it could run.
};

struct ShardJobResult {
  ShardJobStatus status = ShardJobStatus::kAbandoned;
  Completion completion;      ///< Meaningful when kCompleted.
  int worker_kills = 0;       ///< Worker deaths attributed to this job.
  std::string death_message;  ///< Last death classification, when killed.
};

/// Sweep-level accounting of the supervision pass.
struct SuperviseResult {
  std::map<std::size_t, ShardJobResult> jobs;  ///< Keyed by PendingJob::index.
  int worker_deaths = 0;
  int worker_respawns = 0;
  int quarantined = 0;             ///< Jobs that ended kQuarantined.
  double respawn_backoff_s = 0.0;  ///< Recorded (never slept) backoff.
};

/// A record a previous run's worker made durable in a shard journal, with
/// the exact bytes it journaled.
struct RecoveredRecord {
  JobRecord record;
  std::string bytes;
};

/// Shard recovery: every parseable record in the shard journals of
/// `journal_path`, by fingerprint (later records win). A torn shard tail
/// is the expected crash artifact of a killed worker and is not counted;
/// interior damage is folded into `summary`'s corruption counters, and
/// each damaged shard's path is appended to summary.journal_path. Throws
/// UsageError on a non-POSIX platform, where shards cannot run.
std::map<std::string, RecoveredRecord> recover_shards(
    const std::string& journal_path, SweepSummary& summary);

/// Shard retirement: deletes every shard journal of `journal_path`. Call
/// only once their records are fsync'd in the canonical journal; leaving
/// them would re-merge stale results next run.
void retire_shards(const std::string& journal_path);

/// The outcome of one supervised job, and the exact record bytes to append
/// to the canonical journal: a completed job's bytes as its worker
/// journaled them, or a structured kWorkerDeath failure for a quarantined
/// or abandoned one.
std::pair<JobOutcome, std::string> settle(const JobSpec& spec,
                                          const ShardJobResult& result);

/// The poll-loop parent of the worker fleet. Construct with the sweep's
/// options (validated; shards >= 1), the job function, and the pending
/// jobs in submission order; run() forks, supervises, and reaps every
/// worker before returning. POSIX only — run() throws UsageError
/// elsewhere. Single use: construct, run once, discard.
class ShardSupervisor {
 public:
  /// `journal_path` is the canonical journal path ("" = no journaling);
  /// workers derive their shard paths from it via shard_path().
  ShardSupervisor(const SweepOptions& options, const SweepEngine::JobFn& fn,
                  std::string journal_path, std::vector<PendingJob> pending);

  SuperviseResult run();

 private:
  struct Slot;  // One worker process: pid, socket, reader, in-flight job.

  void spawn(std::vector<Slot>& slots, std::size_t slot_index);
  /// Reaps a dead worker, attributes its in-flight job (re-queue or
  /// quarantine), and respawns a replacement when there is still queued
  /// work and respawn budget. `reason` adds context (e.g. "heartbeat
  /// timeout") to the waitpid classification.
  void handle_death(std::vector<Slot>& slots, std::size_t slot_index,
                    SuperviseResult& result, const char* reason = nullptr);
  void assign_if_possible(Slot& slot);

  const SweepOptions& options_;
  const SweepEngine::JobFn& fn_;
  std::string journal_path_;
  std::vector<PendingJob> pending_;

  // Supervision state (valid during run()).
  std::vector<std::size_t> queue_;           ///< Indices into pending_.
  std::map<std::size_t, int> kills_by_job_;  ///< pending_ index -> deaths.
  std::size_t settled_ = 0;  ///< Jobs with a final ShardJobResult.
  int respawn_budget_ = 0;
};

}  // namespace grophecy::exec::shard
