#include "exec/shard/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "exec/journal.h"
#include "exec/shard/protocol.h"
#include "exec/shard/worker.h"
#include "util/error.h"
#include "util/table.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define GROPHECY_SHARD_POSIX 1
#endif

namespace grophecy::exec::shard {

std::string shard_path(const std::string& journal_path, int slot) {
  return journal_path + util::strfmt(".shard%03d", slot);
}

std::vector<std::string> existing_shard_paths(
    const std::string& journal_path) {
  std::vector<std::string> paths;
#ifdef GROPHECY_SHARD_POSIX
  if (journal_path.empty()) return paths;
  const std::size_t slash = journal_path.find_last_of('/');
  const bool rooted = slash != std::string::npos;
  const std::string dir =
      !rooted ? std::string(".")
              : (slash == 0 ? std::string("/") : journal_path.substr(0, slash));
  const std::string base =
      rooted ? journal_path.substr(slash + 1) : journal_path;
  const std::string prefix = base + ".shard";
  DIR* handle = ::opendir(dir.c_str());
  if (!handle) return paths;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0)
      continue;
    // Only all-digit suffixes: "<base>.shard017", any width — a resume
    // with fewer shards still collects every file a wider run left.
    if (!std::all_of(name.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                     name.end(), [](char c) { return c >= '0' && c <= '9'; }))
      continue;
    paths.push_back(rooted ? journal_path.substr(0, slash + 1) + name : name);
  }
  ::closedir(handle);
  std::sort(paths.begin(), paths.end());
#else
  (void)journal_path;
#endif
  return paths;
}

#ifdef GROPHECY_SHARD_POSIX

namespace {

constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "unknown";
  }
}

/// Human classification of a reaped worker's wait status: fatal signal,
/// nonzero exit (with the known worker exit codes spelled out), or a
/// clean exit that nonetheless abandoned its job.
std::string describe_wait_status(int status) {
  if (WIFSIGNALED(status))
    return util::strfmt("killed by signal %d (%s)", WTERMSIG(status),
                        signal_name(WTERMSIG(status)));
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kWorkerExitClean)
      return "exited cleanly without completing its job";
    if (code == kWorkerExitJournal)
      return util::strfmt("exited with status %d (could not open its shard "
                          "journal)", code);
    if (code == kWorkerExitProtocol)
      return util::strfmt("exited with status %d (protocol error)", code);
    return util::strfmt("exited with status %d", code);
  }
  return "died with an unrecognized wait status";
}

}  // namespace

/// One worker process as the supervisor sees it.
struct ShardSupervisor::Slot {
  pid_t pid = -1;
  int fd = -1;               ///< Supervisor end of the socketpair.
  bool ready = false;        ///< Hello received; jobs may be assigned.
  std::size_t job = kNoJob;  ///< Index into pending_, kNoJob when idle.
  Clock::time_point last_activity;
  int respawns = 0;  ///< Times this slot has been respawned (backoff exp).
  FrameReader reader;

  bool live() const { return pid > 0; }
  /// Slots that must produce bytes within the heartbeat timeout: a
  /// worker holding a job, or one that has not said hello yet. Idle
  /// ready workers owe nothing and are never timed out.
  bool watched() const { return live() && (!ready || job != kNoJob); }
};

ShardSupervisor::ShardSupervisor(const SweepOptions& options,
                                 const SweepEngine::JobFn& fn,
                                 std::string journal_path,
                                 std::vector<PendingJob> pending)
    : options_(options),
      fn_(fn),
      journal_path_(std::move(journal_path)),
      pending_(std::move(pending)) {}

void ShardSupervisor::spawn(std::vector<Slot>& slots, std::size_t slot_index) {
  Slot& slot = slots[slot_index];
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw UsageError(util::strfmt("sharded sweep: socketpair failed: %s",
                                  std::strerror(errno)));
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(sv[0]);
    ::close(sv[1]);
    throw UsageError(util::strfmt("sharded sweep: fork failed: %s",
                                  std::strerror(err)));
  }
  if (pid == 0) {
    // Child. Drop the supervisor end of our own pair AND every inherited
    // supervisor-end fd of the sibling slots: if a sibling's supervisor
    // end survived in this process, that sibling would never see EOF when
    // the supervisor dies and would linger as an orphan.
    ::close(sv[0]);
    for (const Slot& other : slots)
      if (other.fd >= 0) ::close(other.fd);
    const std::string journal =
        journal_path_.empty()
            ? std::string()
            : shard_path(journal_path_, static_cast<int>(slot_index));
    worker_main(sv[1], journal, options_, fn_);  // [[noreturn]]
  }
  ::close(sv[1]);
  const int respawns = slot.respawns;
  slot = Slot{};
  slot.pid = pid;
  slot.fd = sv[0];
  slot.last_activity = Clock::now();
  slot.respawns = respawns;
}

void ShardSupervisor::assign_if_possible(Slot& slot) {
  if (!slot.live() || !slot.ready || slot.job != kNoJob || queue_.empty())
    return;
  const std::size_t pos = queue_.front();
  queue_.erase(queue_.begin());
  slot.job = pos;
  slot.last_activity = Clock::now();
  // A failed write means the worker died under us; the poll loop will see
  // the EOF and route this job through the normal death path.
  write_frame(slot.fd, MsgType::kJob,
              encode_job(pos, pending_[pos].spec));
}

void ShardSupervisor::handle_death(std::vector<Slot>& slots,
                                   std::size_t slot_index,
                                   SuperviseResult& result,
                                   const char* reason) {
  Slot& slot = slots[slot_index];
  ::close(slot.fd);
  slot.fd = -1;
  int status = 0;
  ::waitpid(slot.pid, &status, 0);
  slot.pid = -1;
  ++result.worker_deaths;

  std::string death = describe_wait_status(status);
  if (reason) death = util::strfmt("%s; %s", death.c_str(), reason);

  if (slot.job != kNoJob) {
    const std::size_t pos = slot.job;
    slot.job = kNoJob;
    const int kills = ++kills_by_job_[pos];
    if (kills >= options_.poison_kill_threshold) {
      // Poison: this job has now taken poison_kill_threshold workers
      // with it. It stops being re-assigned and becomes a permanent,
      // structured failure; every other job keeps running.
      ShardJobResult job_result;
      job_result.status = ShardJobStatus::kQuarantined;
      job_result.worker_kills = kills;
      job_result.death_message = death;
      result.jobs[pending_[pos].index] = std::move(job_result);
      ++result.quarantined;
      ++settled_;
    } else {
      // Front of the queue: the interrupted job runs next, preserving
      // submission-order-first scheduling as closely as death allows.
      queue_.insert(queue_.begin(), pos);
    }
  }

  // Respawn a replacement only when there is queued work for it. The
  // budget bounds pathological machines (every fork dies instantly):
  // once spent, no worker is ever forked again and run() fails whatever
  // cannot drain. Backoff is recorded, not slept, like the retry path.
  if (!queue_.empty() && respawn_budget_ > 0) {
    --respawn_budget_;
    ++result.worker_respawns;
    result.respawn_backoff_s +=
        std::min(options_.backoff_initial_s * std::pow(2.0, slot.respawns),
                 options_.backoff_max_s);
    spawn(slots, slot_index);
    ++slots[slot_index].respawns;
  }
}

SuperviseResult ShardSupervisor::run() {
  SuperviseResult result;
  if (pending_.empty()) return result;

  queue_.clear();
  kills_by_job_.clear();
  settled_ = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) queue_.push_back(i);
  // Generous: enough for every job to kill a worker once, every slot to
  // die twice, and still finish. A run that exceeds it is not having
  // transient bad luck; its machine or its grid is broken.
  respawn_budget_ =
      2 * static_cast<int>(pending_.size()) + 2 * options_.shards;

  const int worker_count = std::max(
      1, std::min(options_.shards, static_cast<int>(pending_.size())));
  std::vector<Slot> slots(static_cast<std::size_t>(worker_count));
  for (std::size_t s = 0; s < slots.size(); ++s) spawn(slots, s);

  while (settled_ < pending_.size()) {
    bool any_live = false;
    for (const Slot& slot : slots) any_live |= slot.live();
    if (!any_live) break;  // Budget exhausted; abandon the queue below.

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].live()) continue;
      fds.push_back(pollfd{slots[s].fd, POLLIN, 0});
      fd_slot.push_back(s);
    }

    // Wake in time to enforce the earliest heartbeat deadline. Death by
    // EOF needs no timeout — the kernel closes the socket the instant
    // the worker dies and poll returns immediately.
    int timeout_ms = -1;
    const Clock::time_point now = Clock::now();
    for (const Slot& slot : slots) {
      if (!slot.watched()) continue;
      const double remaining =
          options_.heartbeat_timeout_s -
          seconds_between(slot.last_activity, now);
      const int ms =
          remaining <= 0.0
              ? 0
              : static_cast<int>(std::min(remaining * 1000.0 + 1.0, 3.6e6));
      timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
    }

    const int events = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              timeout_ms);
    if (events < 0) {
      if (errno == EINTR) continue;
      throw UsageError(util::strfmt("sharded sweep: poll failed: %s",
                                    std::strerror(errno)));
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t s = fd_slot[k];
      Slot& slot = slots[s];
      if (!slot.live()) continue;

      std::vector<Frame> frames;
      const FrameReader::Status status =
          slot.reader.read_available(slot.fd, frames);
      slot.last_activity = Clock::now();

      bool protocol_violation = status == FrameReader::Status::kProtocol;
      for (const Frame& frame : frames) {
        if (protocol_violation) break;
        switch (frame.type) {
          case MsgType::kHello:
            slot.ready = true;
            break;
          case MsgType::kHeartbeat:
            break;  // last_activity already refreshed.
          case MsgType::kDone: {
            const std::optional<Completion> completion =
                decode_done(frame.payload);
            if (!completion || slot.job == kNoJob ||
                completion->index != slot.job) {
              protocol_violation = true;
              break;
            }
            ShardJobResult job_result;
            job_result.status = ShardJobStatus::kCompleted;
            job_result.completion = *completion;
            const auto kills = kills_by_job_.find(slot.job);
            job_result.worker_kills =
                kills == kills_by_job_.end() ? 0 : kills->second;
            result.jobs[pending_[slot.job].index] = std::move(job_result);
            ++settled_;
            slot.job = kNoJob;
            break;
          }
          default:
            // Workers never send kJob/kShutdown; anything else is noise
            // from a corrupted peer.
            protocol_violation = true;
            break;
        }
      }

      if (protocol_violation) {
        // Partial trust is no trust: kill the worker outright and let
        // the death machinery re-assign its job.
        ::kill(slot.pid, SIGKILL);
        handle_death(slots, s, result, "protocol violation");
        continue;
      }
      if (status == FrameReader::Status::kEof) {
        handle_death(slots, s, result);
        continue;
      }
      assign_if_possible(slot);
    }

    // Heartbeat enforcement: a watched worker silent past the timeout is
    // presumed wedged (an infinite loop emits no frames and never dies
    // on its own) and is SIGKILLed. waitpid then classifies the kill.
    const Clock::time_point scan = Clock::now();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.watched()) continue;
      if (seconds_between(slot.last_activity, scan) <
          options_.heartbeat_timeout_s)
        continue;
      ::kill(slot.pid, SIGKILL);
      handle_death(slots, s, result,
                   "silent past the heartbeat timeout; presumed stuck");
    }

    // Catch-all assignment pass: a worker idled by a Done while the
    // queue was empty picks up jobs re-queued by later deaths.
    for (Slot& slot : slots) assign_if_possible(slot);
  }

  // Respawn budget exhausted with jobs still queued: fail them as
  // structured worker-death errors rather than looping forever.
  for (const std::size_t pos : queue_) {
    ShardJobResult job_result;
    job_result.status = ShardJobStatus::kAbandoned;
    const auto kills = kills_by_job_.find(pos);
    job_result.worker_kills =
        kills == kills_by_job_.end() ? 0 : kills->second;
    job_result.death_message = util::strfmt(
        "worker respawn budget exhausted after %d respawns",
        result.worker_respawns);
    result.jobs[pending_[pos].index] = std::move(job_result);
    ++settled_;
  }
  queue_.clear();

  // Orderly teardown: shutdown frame (best effort), close — which is EOF
  // and therefore exit for any worker that missed the frame — then reap.
  for (Slot& slot : slots) {
    if (!slot.live()) continue;
    write_frame(slot.fd, MsgType::kShutdown, "");
    ::close(slot.fd);
    slot.fd = -1;
  }
  for (Slot& slot : slots) {
    if (slot.pid <= 0) continue;
    int status = 0;
    ::waitpid(slot.pid, &status, 0);
    slot.pid = -1;
  }
  return result;
}

#else  // !GROPHECY_SHARD_POSIX

struct ShardSupervisor::Slot {};

ShardSupervisor::ShardSupervisor(const SweepOptions& options,
                                 const SweepEngine::JobFn& fn,
                                 std::string journal_path,
                                 std::vector<PendingJob> pending)
    : options_(options),
      fn_(fn),
      journal_path_(std::move(journal_path)),
      pending_(std::move(pending)) {}

SuperviseResult ShardSupervisor::run() {
  throw UsageError(
      "SweepOptions.shards > 0 requires a POSIX platform "
      "(fork, socketpair, poll)");
}

void ShardSupervisor::spawn(std::vector<Slot>&, std::size_t) {}
void ShardSupervisor::handle_death(std::vector<Slot>&, std::size_t,
                                   SuperviseResult&, const char*) {}
void ShardSupervisor::assign_if_possible(Slot&) {}

#endif

std::map<std::string, RecoveredRecord> recover_shards(
    const std::string& journal_path, SweepSummary& summary) {
#ifndef GROPHECY_SHARD_POSIX
  throw UsageError(
      "SweepOptions.shards > 0 requires a POSIX platform "
      "(fork, socketpair, poll)");
#endif
  std::map<std::string, RecoveredRecord> recovered;
  for (const std::string& path : existing_shard_paths(journal_path)) {
    const JournalReadResult shard_read = ResultJournal::read(path);
    const int interior_before = summary.journal_corrupt_interior;
    summary.journal_corrupt_lines += shard_read.corrupt_interior;
    summary.journal_corrupt_interior += shard_read.corrupt_interior;
    for (const std::string& payload : shard_read.records) {
      auto record = JobRecord::from_json(payload);
      if (!record) {
        ++summary.journal_corrupt_lines;
        ++summary.journal_corrupt_interior;
        continue;
      }
      const std::string fingerprint = record->fingerprint;
      recovered[fingerprint] = {std::move(*record), payload};
    }
    // Name the exact shard journal that took interior damage so
    // describe() points triage at the file, not at a guess.
    if (summary.journal_corrupt_interior > interior_before)
      summary.journal_path += "; " + path;
  }
  return recovered;
}

void retire_shards(const std::string& journal_path) {
  for (const std::string& path : existing_shard_paths(journal_path))
    std::remove(path.c_str());
}

std::pair<JobOutcome, std::string> settle(const JobSpec& spec,
                                          const ShardJobResult& result) {
  JobOutcome outcome;
  outcome.spec = spec;
  outcome.status = JobStatus::kFailed;
  JobError error;
  if (result.status == ShardJobStatus::kCompleted) {
    const Completion& completion = result.completion;
    outcome.attempts = completion.attempts;
    outcome.elapsed_s = completion.elapsed_s;
    outcome.backoff_s = completion.backoff_s;
    outcome.record = *JobRecord::from_json(completion.record_json);
    if (completion.status == JobStatus::kOk) {
      outcome.status = JobStatus::kOk;
      outcome.report = outcome.record.to_report();
    } else {
      error.kind = outcome.record.error_kind.value_or(ErrorKind::kException);
      error.message = outcome.record.error_message;
      error.timed_out = error.kind == ErrorKind::kTimeout;
      outcome.error = std::move(error);
    }
    return {std::move(outcome), completion.record_json};
  }
  // Quarantined poison or an abandoned queue: a structured kWorkerDeath
  // failure, journaled like any other failure.
  outcome.attempts = result.worker_kills;
  error.kind = ErrorKind::kWorkerDeath;
  error.message =
      result.status == ShardJobStatus::kQuarantined
          ? util::strfmt("job %s killed %d worker process%s (last: %s); "
                         "quarantined as poison",
                         spec.key().c_str(), result.worker_kills,
                         result.worker_kills == 1 ? "" : "es",
                         result.death_message.c_str())
          : util::strfmt("job %s not run: %s", spec.key().c_str(),
                         result.death_message.c_str());
  outcome.record = JobRecord::from_error(spec, error, outcome.attempts, 0.0);
  outcome.error = std::move(error);
  std::string bytes = outcome.record.to_json();
  return {std::move(outcome), std::move(bytes)};
}

}  // namespace grophecy::exec::shard
