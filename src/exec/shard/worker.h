// The sweep shard worker process: a single-threaded job-execution loop
// at the far end of a fork.
//
// A worker is forked by shard::ShardSupervisor and never execs: it
// inherits the whole parent image — the JobFn closure, the parsed
// workload suite, any warm calibration cache — so it can execute
// arbitrary job functions with zero serialization of code or captured
// state. It is deliberately single-threaded between jobs (a job may
// start threads of its own, such as a detailed kernel measurement's
// helpers, but joins all of them before it returns):
//
//   * fork(2) of a multi-threaded process only carries the calling
//     thread into the child; the supervisor forks while single-threaded
//     and the worker never forks, which keeps every fork well-defined
//     (no locks held by threads that no longer exist);
//   * heartbeats are sent from the same thread that runs jobs, so a job
//     spinning forever silences them — which is exactly how the
//     supervisor detects a stuck worker. A background heartbeat thread
//     would keep beating under a wedged job and mask it.
//
// Every finished job is appended to the worker's own crash-safe shard
// journal (CRC + fsync) *before* the completion ack is sent: an acked
// record is durable, and a record the supervisor never saw acked is
// still recovered from the shard on resume. The worker exits — always
// via _exit, never by unwinding into the forked copy of the parent's
// stack and atexit handlers — when told to shut down, or the moment the
// supervisor side of the socket goes away.
#pragma once

#include <string>

#include "exec/sweep.h"

namespace grophecy::exec::shard {

/// Worker exit codes (WEXITSTATUS) the supervisor classifies in its
/// death messages. 0 is the only clean exit (shutdown or supervisor EOF).
inline constexpr int kWorkerExitClean = 0;
inline constexpr int kWorkerExitJournal = 3;   ///< Shard journal open failed.
inline constexpr int kWorkerExitProtocol = 4;  ///< Unparseable frame.

/// Runs the worker loop on `fd` (the worker end of the supervisor's
/// socketpair), journaling to `shard_journal_path` (empty = no journal).
/// `options` is the sweep's option block; the worker derives its own
/// in-process profile from it (serial, inline attempts — the heartbeat
/// timeout is the process-level deadline, so the thread watchdog is
/// not used). Never returns; terminates with _exit.
[[noreturn]] void worker_main(int fd, const std::string& shard_journal_path,
                              const SweepOptions& options,
                              const SweepEngine::JobFn& fn);

}  // namespace grophecy::exec::shard
