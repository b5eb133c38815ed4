#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "exec/journal.h"
#include "exec/shard/supervisor.h"
#include "exec/sweep.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/table.h"

namespace grophecy::exec {

JobError classify_current_exception() {
  JobError error;
  try {
    throw;
  } catch (const MeasurementError& e) {
    error.kind =
        e.timed_out() ? ErrorKind::kTimeout : ErrorKind::kMeasurement;
    error.timed_out = e.timed_out();
    error.retryable = true;
    error.message = e.what();
  } catch (const CalibrationError& e) {
    error.kind = ErrorKind::kCalibration;
    error.message = e.what();
  } catch (const ParseError& e) {
    error.kind = ErrorKind::kParse;
    error.message = e.what();
  } catch (const UsageError& e) {
    error.kind = ErrorKind::kUsage;
    error.message = e.what();
  } catch (const ContractViolation& e) {
    error.kind = ErrorKind::kContract;
    error.message = e.what();
  } catch (const std::exception& e) {
    error.kind = ErrorKind::kException;
    error.message = e.what();
  } catch (...) {
    error.kind = ErrorKind::kException;
    error.message = "unknown exception";
  }
  return error;
}

namespace {

/// A run of committed records is written before it would pass this size,
/// so the committer's buffer stays bounded however far the pool runs ahead.
constexpr std::size_t kGroupCommitBytes = 64 * 1024;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void SweepOptions::validate() const {
  // As in ProjectionOptions::validate: a message is formatted only for a
  // failing check, and each check is written !(ok) so NaN fails too.
  const auto fail = [](const char* field, const std::string& why) {
    throw UsageError(util::strfmt("SweepOptions.%s %s", field,
                                  why.c_str()));
  };
  if (!(workers >= 0))
    fail("workers", util::strfmt("must be non-negative, got %d", workers));
  if (!(shards >= 0))
    fail("shards", util::strfmt("must be non-negative, got %d", shards));
  if (!(max_retries >= 0))
    fail("max_retries",
         util::strfmt("must be non-negative, got %d", max_retries));
  if (!(backoff_initial_s >= 0.0))
    fail("backoff_initial_s",
         util::strfmt("must be non-negative, got %g", backoff_initial_s));
  if (!(backoff_max_s >= backoff_initial_s))
    fail("backoff_max_s",
         util::strfmt("must be >= backoff_initial_s (%g), got %g",
                      backoff_initial_s, backoff_max_s));
  if (!(deadline_s > 0.0))
    fail("deadline_s", util::strfmt("must be positive, got %g", deadline_s));
  if (!(heartbeat_timeout_s > 0.0))
    fail("heartbeat_timeout_s",
         util::strfmt("must be positive, got %g", heartbeat_timeout_s));
  if (!(poison_kill_threshold >= 1))
    fail("poison_kill_threshold",
         util::strfmt("must be >= 1, got %d", poison_kill_threshold));
}

void SweepEngine::tally(SweepSummary& summary, const JobOutcome& outcome) {
  switch (outcome.status) {
    case JobStatus::kOk:
      ++summary.ok;
      break;
    case JobStatus::kResumed:
      ++summary.resumed;
      break;
    case JobStatus::kDeduped:
      ++summary.deduped;
      break;
    case JobStatus::kFailed:
      ++summary.failed;
      break;
  }
  if (outcome.attempts > 1) ++summary.retried;
  summary.attempts += outcome.attempts;
  summary.backoff_total_s += outcome.backoff_s;
  summary.degraded |= outcome.record.calibration_fallback;
}

AttemptResult AttemptRunner::run(const JobSpec& spec, const JobFn& fn,
                                 double deadline_s) {
  if (std::isinf(deadline_s)) {
    // No watchdog: run inline, call-for-call identical to the bare loop.
    try {
      return {fn(spec), {}};
    } catch (...) {
      return {std::nullopt, classify_current_exception()};
    }
  }

  join(/*finished_only=*/true);
  // Supervised attempt: the job runs on its own thread while this thread
  // watches the clock. The task copies fn and spec so an abandoned thread
  // never dereferences caller stack frames after run() returns.
  std::packaged_task<core::ProjectionReport()> task(
      [fn, spec] { return fn(spec); });
  std::future<core::ProjectionReport> future = task.get_future();
  std::thread thread(std::move(task));
  if (future.wait_for(std::chrono::duration<double>(deadline_s)) !=
      std::future_status::ready) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++abandoned_;
      strays_.push_back({std::move(thread), std::move(future)});
    }
    return {std::nullopt,
            {.kind = ErrorKind::kTimeout,
             .message = util::strfmt(
                 "job %s exceeded the %.3gs deadline; attempt abandoned",
                 spec.key().c_str(), deadline_s),
             .timed_out = true,
             .retryable = true}};
  }
  thread.join();
  try {
    return {future.get(), {}};
  } catch (...) {
    return {std::nullopt, classify_current_exception()};
  }
}

void AttemptRunner::join(bool finished_only) {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = strays_.begin(); it != strays_.end();) {
      if (finished_only && it->done.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
        ++it;
        continue;
      }
      threads.push_back(std::move(it->thread));
      it = strays_.erase(it);
    }
  }
  // Outside the lock: a finished stray only has its thread exit left, but
  // an unfinished one may run for a while yet.
  for (std::thread& thread : threads) thread.join();
}

std::uint64_t AttemptRunner::abandoned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return abandoned_;
}

std::size_t AttemptRunner::strays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return strays_.size();
}

SweepEngine::SweepEngine(SweepOptions options) : options_(std::move(options)) {
  options_.validate();
}

int SweepEngine::effective_workers() const {
  if (options_.workers > 0) return options_.workers;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

JobOutcome SweepEngine::execute_job(const JobSpec& spec, const JobFn& fn) {
  JobOutcome outcome;
  outcome.spec = spec;

  const auto start = std::chrono::steady_clock::now();
  while (true) {
    ++outcome.attempts;
    AttemptResult attempt = attempts_.run(spec, fn, options_.deadline_s);
    if (attempt.report) {
      outcome.status = JobStatus::kOk;
      outcome.report = std::move(attempt.report);
      break;
    }
    outcome.error = attempt.error;
    if (attempt.error.retryable && outcome.attempts <= options_.max_retries) {
      // Bounded exponential backoff, same shape as the PR 1 calibration
      // policy. Recorded, not slept: the simulated harness must stay
      // fast and deterministic; a real-hardware runner would sleep.
      const double backoff =
          std::min(options_.backoff_initial_s *
                       std::pow(2.0, outcome.attempts - 1),
                   options_.backoff_max_s);
      outcome.backoff_s += backoff;
      continue;
    }
    outcome.status = JobStatus::kFailed;
    break;
  }
  outcome.elapsed_s = seconds_since(start);
  // The journaled wall-clock time is the one nondeterministic field of a
  // record; zeroing it (record_wall_time = false) makes the journal bytes
  // a pure function of the results.
  const double recorded_elapsed =
      options_.record_wall_time ? outcome.elapsed_s : 0.0;

  if (outcome.status == JobStatus::kOk) {
    outcome.record = JobRecord::from_report(spec, *outcome.report,
                                            outcome.attempts,
                                            recorded_elapsed);
  } else {
    outcome.record = JobRecord::from_error(spec, *outcome.error,
                                           outcome.attempts,
                                           recorded_elapsed);
  }
  return outcome;
}

SweepSummary SweepEngine::run(const std::vector<JobSpec>& jobs,
                              const JobFn& fn) {
  SweepSummary summary;
  // One outcome per job, each filled in place: by a pool worker, or by the
  // commit loop below.
  summary.outcomes.resize(jobs.size());
  const bool sharded = options_.shards > 0 && !jobs.empty();

  // 1. Plan, in submission order, before anything runs. A repeated
  // fingerprint is a duplicate of its first occurrence: it never runs, so
  // the journal stays byte-identical whether or not the submission list
  // repeats itself. A first occurrence whose latest journaled record is
  // ok — in the canonical journal, or in a shard journal a killed
  // supervisor left behind — is resumed, not re-measured; failed records
  // do not shortcut, since resuming exists to give the missing and failed
  // jobs another chance. Everything else is pending.
  const std::map<std::string, JobRecord> journaled = read_journal(summary);
  std::map<std::string, shard::RecoveredRecord> recovered;
  if (sharded)
    recovered = shard::recover_shards(options_.journal_path, summary);
  ResultJournal journal;
  if (!options_.journal_path.empty())
    journal.open_append(options_.journal_path);

  struct Planned {
    std::optional<std::size_t> duplicate_of;
    const JobRecord* resumed = nullptr;
    const std::string* shard_bytes = nullptr;  ///< Merged when resumed.
  };
  std::vector<Planned> plan(jobs.size());
  std::vector<std::size_t> pending;
  std::map<std::string, std::size_t> first_with_fingerprint;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string fingerprint = jobs[i].fingerprint();
    const auto [first, inserted] =
        first_with_fingerprint.emplace(fingerprint, i);
    if (!inserted) {
      plan[i].duplicate_of = first->second;
      continue;
    }
    if (options_.resume) {
      if (const auto it = journaled.find(fingerprint);
          it != journaled.end() && it->second.ok()) {
        plan[i].resumed = &it->second;
        continue;
      }
      if (const auto it = recovered.find(fingerprint);
          it != recovered.end() && it->second.record.ok()) {
        plan[i].resumed = &it->second.record;
        plan[i].shard_bytes = &it->second.bytes;
        continue;
      }
    }
    pending.push_back(i);
  }

  // 2. Execute the pending jobs. Shards run them all before the first
  // commit, so the supervisor forks from a single-threaded process. A pool
  // publishes finished outcomes for the committer; with one worker the
  // committer runs each job inline when it reaches it.
  shard::SuperviseResult supervised;
  if (sharded && !pending.empty()) {
    std::vector<shard::PendingJob> work;
    work.reserve(pending.size());
    for (const std::size_t i : pending) work.push_back({i, jobs[i]});
    supervised = shard::ShardSupervisor(options_, fn, options_.journal_path,
                                        std::move(work))
                     .run();
  }
  summary.worker_deaths = supervised.worker_deaths;
  summary.worker_respawns = supervised.worker_respawns;
  summary.quarantined = supervised.quarantined;
  summary.respawn_backoff_s = supervised.respawn_backoff_s;

  // A pool worker writes each outcome into its place in the summary,
  // marks the job done, and wakes the committer only when that is the
  // job it waits for.
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<char> done(jobs.size(), 0);  // Guarded by mutex.
  std::size_t awaited = jobs.size();        // Guarded by mutex.
  std::atomic<std::size_t> next_pending{0};
  const auto drain = [&] {
    for (std::size_t p;
         (p = next_pending.fetch_add(1, std::memory_order_relaxed)) <
         pending.size();) {
      const std::size_t i = pending[p];
      summary.outcomes[i] = execute_job(jobs[i], fn);
      bool wake = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        done[i] = 1;
        wake = awaited == i;
      }
      if (wake) done_cv.notify_one();
    }
  };
  std::vector<std::jthread> pool;
  const std::size_t workers = std::min(
      static_cast<std::size_t>(effective_workers()), pending.size());
  if (!sharded && workers > 1)
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);

  // 3. Commit, in submission order: the journal, the counters and the
  // outcome list are identical for any worker or shard count. Records are
  // group-committed: each run of consecutive finished records is framed
  // into one buffer and written with one fwrite and fflush before the
  // committer waits for or runs the next job, before the buffer would pass
  // kGroupCommitBytes, and at the end. An fsync follows the write before a
  // wait or a run and at the end, so with one worker each record is
  // written and fsync'd before the next job starts, and a crash loses at
  // most the unsynced tail — the torn-tail case the reader tolerates.
  std::string group;  // Framed records not yet written.
  if (journal.is_open()) group.reserve(kGroupCommitBytes);
  bool unsynced = false;
  const auto write_group = [&] {
    if (group.empty()) return;
    journal.append_framed(group);
    group.clear();
    unsynced = true;
  };
  const auto sync = [&] {
    write_group();
    if (unsynced) journal.sync();
    unsynced = false;
  };
  // Leaves job i's outcome in summary.outcomes[i]: runs it inline with
  // one worker, or waits for the pool to finish it.
  const auto execute_or_await = [&](std::size_t i) {
    if (pool.empty()) {
      sync();
      summary.outcomes[i] = execute_job(jobs[i], fn);
      return;
    }
    std::unique_lock<std::mutex> lock(mutex);
    if (done[i]) return;
    lock.unlock();
    sync();
    lock.lock();
    awaited = i;
    done_cv.wait(lock, [&] { return done[i] != 0; });
  };

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Planned& step = plan[i];
    JobOutcome& outcome = summary.outcomes[i];
    std::string bytes;  // Appended to the journal unless empty.
    if (step.duplicate_of) {
      // A duplicate of a successful (or resumed) job reuses its result; a
      // duplicate of a failed job fails identically. Either way it runs
      // zero times and journals nothing: the original's record covers it.
      const JobOutcome& original = summary.outcomes[*step.duplicate_of];
      outcome.spec = jobs[i];
      outcome.status = original.status == JobStatus::kFailed
                           ? JobStatus::kFailed
                           : JobStatus::kDeduped;
      outcome.record = original.record;
      outcome.report = original.report;
      outcome.error = original.error;
    } else if (step.resumed) {
      outcome.spec = jobs[i];
      outcome.status = JobStatus::kResumed;
      outcome.record = *step.resumed;
      outcome.report = step.resumed->to_report();
      if (step.shard_bytes) bytes = *step.shard_bytes;
    } else if (sharded) {
      // The worker's exact record bytes, so the canonical journal is
      // byte-identical to a single-process run of the same grid.
      std::tie(outcome, bytes) =
          shard::settle(jobs[i], supervised.jobs.at(i));
    } else {
      execute_or_await(i);
      if (journal.is_open()) bytes = outcome.record.to_json();
    }
    if (journal.is_open() && !bytes.empty()) {
      if (group.size() + bytes.size() + ResultJournal::kFrameBytes >
          kGroupCommitBytes)
        write_group();
      ResultJournal::frame(group, bytes);
    }
    tally(summary, outcome);
  }
  sync();
  // Every recovered or acked record is durable in the canonical journal
  // now, so the shard files are redundant.
  if (sharded) shard::retire_shards(options_.journal_path);
  return summary;
}

std::map<std::string, JobRecord> SweepEngine::read_journal(
    SweepSummary& summary) const {
  std::map<std::string, JobRecord> records;
  if (options_.journal_path.empty()) return records;
  JournalReadResult previous = ResultJournal::read(options_.journal_path);
  summary.journal_path = options_.journal_path;
  summary.journal_corrupt_lines = previous.corrupt_lines;
  summary.journal_corrupt_interior = previous.corrupt_interior;
  for (const std::string& payload : previous.records) {
    if (auto record = JobRecord::from_json(payload)) {
      records[record->fingerprint] = std::move(*record);
    } else {
      // A line whose checksum verified but whose payload no longer
      // parses cannot be a torn tail either — count it as interior
      // damage so describe() warns.
      ++summary.journal_corrupt_lines;
      ++summary.journal_corrupt_interior;
    }
  }
  return records;
}

const JobOutcome* SweepSummary::find(const JobSpec& spec) const {
  const std::string fingerprint = spec.fingerprint();
  for (const JobOutcome& outcome : outcomes)
    if (outcome.record.fingerprint == fingerprint ||
        outcome.spec.fingerprint() == fingerprint)
      return &outcome;
  return nullptr;
}

std::string SweepSummary::describe() const {
  std::ostringstream oss;
  oss << "sweep: " << outcomes.size() << " jobs — " << ok << " ok, "
      << resumed << " resumed, ";
  if (deduped > 0) oss << deduped << " deduped, ";
  oss << failed << " failed ("
      << retried << " retried; " << attempts << " attempts; "
      << util::strfmt("%.3f", backoff_total_s) << "s backoff)";
  if (degraded) oss << " [DEGRADED: spec-derived calibration in use]";
  // Name the damaged file in the warning — sharded-sweep triage must not
  // have to guess which shard journal took the hit.
  const std::string journal_label =
      journal_path.empty() ? std::string("journal")
                           : "journal " + journal_path;
  if (journal_corrupt_interior > 0)
    // Interior damage can never be the benign torn-tail crash artifact:
    // the writer is append-only, so anything invalid *followed by more
    // lines* means the file was damaged after it was written.
    oss << " [" << journal_label << ": " << journal_corrupt_interior
        << " corrupt INTERIOR line(s) — not a crash artifact; the journal "
           "file has been damaged and lost records were re-run]";
  else if (journal_corrupt_lines > 0)
    oss << " [" << journal_label << ": " << journal_corrupt_lines
        << " corrupt line(s)]";
  oss << '\n';
  for (const JobOutcome& outcome : outcomes) {
    oss << "  " << outcome.spec.key() << ": ";
    switch (outcome.status) {
      case JobStatus::kOk:
        oss << util::strfmt("ok (%d attempt%s)", outcome.attempts,
                            outcome.attempts == 1 ? "" : "s");
        break;
      case JobStatus::kResumed:
        oss << "resumed from journal";
        break;
      case JobStatus::kDeduped:
        oss << "duplicate (reused earlier result)";
        break;
      case JobStatus::kFailed:
        oss << "FAILED [" << to_string(outcome.error->kind) << "] "
            << outcome.error->message;
        break;
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace grophecy::exec
