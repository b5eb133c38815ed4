#include "exec/shard/worker.h"

#include <cstdlib>
#include <limits>

#include "exec/journal.h"
#include "exec/shard/protocol.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GROPHECY_SHARD_POSIX 1
#endif

namespace grophecy::exec::shard {

#ifdef GROPHECY_SHARD_POSIX

void worker_main(int fd, const std::string& shard_journal_path,
                 const SweepOptions& options,
                 const SweepEngine::JobFn& fn) {
  // The worker's own execution profile: strictly serial, attempts run
  // inline on this (the only) thread. The in-process deadline watchdog is
  // deliberately disabled — process-level supervision replaces it: a hung
  // attempt silences the heartbeats and the supervisor SIGKILLs the whole
  // worker, which is strictly stronger than abandoning a thread. Retries,
  // backoff, and record shape are exactly the in-process engine's, which
  // is what makes the shard journal byte-identical to a serial run.
  SweepOptions worker_options = options;
  worker_options.shards = 0;
  worker_options.workers = 1;
  worker_options.deadline_s = std::numeric_limits<double>::infinity();
  worker_options.journal_path.clear();
  SweepEngine engine(std::move(worker_options));

  ResultJournal journal;
  if (!shard_journal_path.empty()) {
    try {
      journal.open_append(shard_journal_path);
    } catch (...) {
      _exit(kWorkerExitJournal);
    }
  }

  // No work is assigned before the hello, so dying anywhere above this
  // line is a clean respawn for the supervisor, never a lost job.
  if (!write_frame(fd, MsgType::kHello, "")) _exit(kWorkerExitClean);

  while (true) {
    const std::optional<Frame> frame = read_frame(fd);
    // EOF or a broken frame means the supervisor is gone (killed, or its
    // end of the socket closed at exit). Orphaned workers must not keep
    // running jobs nobody will collect.
    if (!frame) _exit(kWorkerExitClean);
    if (frame->type == MsgType::kShutdown) _exit(kWorkerExitClean);
    if (frame->type != MsgType::kJob) _exit(kWorkerExitProtocol);
    const std::optional<JobAssignment> assignment = decode_job(frame->payload);
    if (!assignment) _exit(kWorkerExitProtocol);

    // One heartbeat at job start, from this same thread. A job that
    // wedges in an infinite loop sends nothing more — the silence is the
    // supervisor's kill signal, so heartbeat_timeout_s bounds the
    // worst-case honest job time.
    if (!write_frame(fd, MsgType::kHeartbeat, "")) _exit(kWorkerExitClean);

    const JobOutcome outcome = engine.execute_job(assignment->spec, fn);

    // Durable before acked: the record reaches the shard journal (CRC +
    // fsync) before the completion frame is sent. An acked record can
    // never be lost; an unacked one is recovered from the shard on
    // resume. A crash between the two at worst re-runs one job.
    const std::string record_json = outcome.record.to_json();
    if (journal.is_open()) journal.append(record_json);

    Completion completion;
    completion.index = assignment->index;
    completion.status = outcome.status == JobStatus::kOk ? JobStatus::kOk
                                                         : JobStatus::kFailed;
    completion.attempts = outcome.attempts;
    completion.elapsed_s = outcome.elapsed_s;
    completion.backoff_s = outcome.backoff_s;
    completion.record_json = record_json;
    if (!write_frame(fd, MsgType::kDone, encode_done(completion)))
      _exit(kWorkerExitClean);
  }
}

#else  // !GROPHECY_SHARD_POSIX

void worker_main(int, const std::string&, const SweepOptions&,
                 const SweepEngine::JobFn&) {
  // Unreachable: SweepEngine::run refuses shards on non-POSIX platforms.
  std::abort();
}

#endif

}  // namespace grophecy::exec::shard
