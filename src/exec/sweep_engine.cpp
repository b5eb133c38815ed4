#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <sstream>

#include "exec/journal.h"
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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void SweepOptions::validate() const {
  auto require = [](bool ok, const char* field, const std::string& why) {
    if (!ok)
      throw UsageError(util::strfmt("SweepOptions.%s %s", field,
                                    why.c_str()));
  };
  require(workers >= 0, "workers",
          util::strfmt("must be non-negative, got %d", workers));
  require(shards >= 0, "shards",
          util::strfmt("must be non-negative, got %d", shards));
  require(max_retries >= 0, "max_retries",
          util::strfmt("must be non-negative, got %d", max_retries));
  require(backoff_initial_s >= 0.0, "backoff_initial_s",
          util::strfmt("must be non-negative, got %g", backoff_initial_s));
  require(backoff_max_s >= backoff_initial_s, "backoff_max_s",
          util::strfmt("must be >= backoff_initial_s (%g), got %g",
                       backoff_initial_s, backoff_max_s));
  // NaN fails the comparison too, which is exactly right.
  require(deadline_s > 0.0, "deadline_s",
          util::strfmt("must be positive, got %g", deadline_s));
  require(heartbeat_timeout_s > 0.0, "heartbeat_timeout_s",
          util::strfmt("must be positive, got %g", heartbeat_timeout_s));
  require(poison_kill_threshold >= 1, "poison_kill_threshold",
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
  // Dedupe pre-pass: identical fingerprints execute once. Duplicates are
  // resolved by expansion AFTER the unique jobs ran, so the worker pool
  // never has to synchronize on an in-flight original, and the journal —
  // which only sees the unique jobs — stays byte-identical across worker
  // counts whether or not the submission list contained duplicates.
  std::map<std::string, std::size_t> first_with_fingerprint;
  std::vector<std::optional<std::size_t>> duplicate_of(jobs.size());
  std::vector<JobSpec> unique;
  unique.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, inserted] =
        first_with_fingerprint.emplace(jobs[i].fingerprint(), i);
    if (inserted)
      unique.push_back(jobs[i]);
    else
      duplicate_of[i] = it->second;
  }
  if (unique.size() == jobs.size()) return run_unique(jobs, fn);

  SweepSummary inner = run_unique(unique, fn);
  SweepSummary summary;
  summary.journal_corrupt_lines = inner.journal_corrupt_lines;
  summary.journal_corrupt_interior = inner.journal_corrupt_interior;
  summary.journal_path = inner.journal_path;
  summary.worker_deaths = inner.worker_deaths;
  summary.worker_respawns = inner.worker_respawns;
  summary.quarantined = inner.quarantined;
  summary.respawn_backoff_s = inner.respawn_backoff_s;
  summary.outcomes.reserve(jobs.size());
  std::size_t next_unique = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!duplicate_of[i]) {
      summary.outcomes.push_back(std::move(inner.outcomes[next_unique++]));
    } else {
      // The original precedes its duplicates in submission order, so its
      // outcome is already in place at its full-list index.
      const JobOutcome& original = summary.outcomes[*duplicate_of[i]];
      JobOutcome outcome;
      outcome.spec = jobs[i];
      outcome.record = original.record;
      outcome.report = original.report;
      outcome.error = original.error;
      // A duplicate of a successful (or resumed) job reused its result; a
      // duplicate of a failed job fails identically — either way, zero
      // executions.
      outcome.status = original.status == JobStatus::kFailed
                           ? JobStatus::kFailed
                           : JobStatus::kDeduped;
      summary.outcomes.push_back(std::move(outcome));
    }
    tally(summary, summary.outcomes.back());
  }
  return summary;
}

SweepSummary SweepEngine::run_unique(const std::vector<JobSpec>& jobs,
                                     const JobFn& fn) {
  if (options_.shards > 0 && !jobs.empty()) return run_sharded(jobs, fn);

  SweepSummary summary;
  summary.outcomes.reserve(jobs.size());

  // Load whatever a previous (possibly killed) run journaled. Later
  // records win, so a re-run of a previously failed job supersedes it.
  const std::map<std::string, JobRecord> journaled = read_journal(summary);
  ResultJournal journal;
  if (!options_.journal_path.empty())
    journal.open_append(options_.journal_path);

  // Resume decisions are made up front (deterministically, in submission
  // order): a journaled success is replayed, not re-measured. Failed
  // records do not shortcut — the whole point of resuming is giving the
  // missing and failed jobs another chance.
  auto resumed_outcome =
      [&](const JobSpec& spec) -> std::optional<JobOutcome> {
    if (!options_.resume) return std::nullopt;
    const auto it = journaled.find(spec.fingerprint());
    if (it == journaled.end() || it->second.status != RecordStatus::kOk)
      return std::nullopt;
    JobOutcome outcome;
    outcome.spec = spec;
    outcome.status = JobStatus::kResumed;
    outcome.record = it->second;
    outcome.report = it->second.to_report();
    return outcome;
  };

  const int workers =
      std::max(1, std::min<int>(effective_workers(),
                                static_cast<int>(jobs.size())));

  if (workers <= 1) {
    // Strictly serial, in submission order — call-for-call identical to
    // the bare loop the engine replaced. Each record is made durable
    // (fsync) before the next job starts.
    for (const JobSpec& spec : jobs) {
      JobOutcome outcome;
      if (auto resumed = resumed_outcome(spec))
        outcome = std::move(*resumed);
      else
        outcome = execute_job(spec, fn);
      tally(summary, outcome);
      if (journal.is_open() && outcome.status != JobStatus::kResumed)
        journal.append(outcome.record.to_json());
      summary.outcomes.push_back(std::move(outcome));
    }
    return summary;
  }

  // Parallel execution with a sequenced committer. Workers claim jobs in
  // submission order and publish finished outcomes into `ready`; this
  // thread commits them — journal append, summary counters, outcome list
  // — strictly in submission order, so every observable artifact of the
  // sweep is identical to the serial run of the same job results. The
  // fsync is batched: one sync per drained run of consecutive outcomes
  // instead of one per record (each record is still flushed to the OS
  // before commit proceeds, and a crash loses at most the unsynced tail —
  // exactly the torn-tail case the journal reader already tolerates).
  std::atomic<std::size_t> next_job{0};
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::map<std::size_t, JobOutcome> ready;

  auto worker_loop = [&] {
    while (true) {
      const std::size_t index =
          next_job.fetch_add(1, std::memory_order_relaxed);
      if (index >= jobs.size()) return;
      const JobSpec& spec = jobs[index];
      JobOutcome outcome;
      if (auto resumed = resumed_outcome(spec))
        outcome = std::move(*resumed);
      else
        outcome = execute_job(spec, fn);
      {
        std::lock_guard<std::mutex> lock(mutex);
        ready.emplace(index, std::move(outcome));
      }
      ready_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker_loop);

  std::size_t committed = 0;
  while (committed < jobs.size()) {
    std::vector<JobOutcome> batch;
    {
      std::unique_lock<std::mutex> lock(mutex);
      ready_cv.wait(lock, [&] { return ready.count(committed) != 0; });
      // Drain every consecutive outcome that is already finished.
      for (auto it = ready.find(committed); it != ready.end();
           it = ready.find(committed + batch.size())) {
        batch.push_back(std::move(it->second));
        ready.erase(it);
      }
    }
    bool appended = false;
    for (JobOutcome& outcome : batch) {
      tally(summary, outcome);
      if (journal.is_open() && outcome.status != JobStatus::kResumed) {
        journal.append(outcome.record.to_json(), /*sync_now=*/false);
        appended = true;
      }
      summary.outcomes.push_back(std::move(outcome));
    }
    if (appended) journal.sync();
    committed += batch.size();
  }

  for (std::thread& thread : pool) thread.join();
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
