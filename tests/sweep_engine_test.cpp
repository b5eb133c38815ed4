// Tests for exec::SweepEngine — the PR's acceptance scenarios:
//
//   * fault isolation: a throwing job becomes a structured JobError and
//     the rest of the sweep completes;
//   * retry with bounded exponential backoff for transient failures, no
//     retry for permanent ones (calibration/contract/usage);
//   * the wall-clock deadline watchdog converts hangs (including
//     faults::FaultInjector-scripted hangs) into timed-out JobErrors
//     instead of a stuck sweep, and AttemptRunner — the supervised
//     attempt the engine shares with serve::Daemon — runs without a
//     thread when there is no deadline and joins its abandoned attempts;
//   * crash-safe journaling + resume: a second run replays completed jobs
//     from the journal and re-executes only failed/missing ones, and the
//     resumed table equals the fault-free results wherever jobs succeeded.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/experiment.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "faults/fault_injector.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "skeleton/parse.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/units.h"
#include "workloads/workload.h"

namespace grophecy::exec {
namespace {

namespace fs = std::filesystem;

class TempJournal {
 public:
  explicit TempJournal(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("grophecy_sweep_test_" + name + std::to_string(::getpid()) +
                ".jsonl"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A fast fake projection so engine-mechanics tests don't pay for real
/// calibrations. Deterministic per spec.
core::ProjectionReport fake_report(const JobSpec& spec) {
  core::ProjectionReport report;
  report.app_name = spec.workload + " " + spec.size_label;
  report.machine_name = "fake";
  report.iterations = spec.iterations;
  report.predicted_kernel_s = 0.010 + 0.001 * spec.iterations;
  report.measured_kernel_s = 0.011;
  report.predicted_transfer_s = 0.020;
  report.measured_transfer_s = 0.019;
  report.measured_cpu_s = 0.300;
  return report;
}

std::vector<JobSpec> three_jobs() {
  return {{"W", "a", 1}, {"W", "b", 1}, {"W", "c", 1}};
}

// --- isolation & retry mechanics ---

TEST(SweepEngine, FaultFreeSweepRunsEveryJobOnceInOrder)
{
  std::vector<std::string> executed;
  // workers = 1: this test asserts strict serial execution order and the
  // lambda mutates unsynchronized state. The parallel path is covered by
  // sweep_determinism_test.
  SweepOptions serial;
  serial.workers = 1;
  SweepEngine engine(serial);
  const SweepSummary summary =
      engine.run(three_jobs(), [&](const JobSpec& spec) {
        executed.push_back(spec.size_label);
        return fake_report(spec);
      });
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.retried, 0);
  EXPECT_EQ(summary.attempts, 3);
  EXPECT_EQ((std::vector<std::string>{"a", "b", "c"}), executed);
  ASSERT_EQ(summary.outcomes.size(), 3u);
  EXPECT_TRUE(summary.outcomes[0].report.has_value());
  EXPECT_EQ(summary.outcomes[0].report->app_name, "W a");
}

TEST(SweepEngine, TransientFailureIsRetriedWithBoundedBackoff) {
  std::map<std::string, int> calls;
  SweepOptions options;
  options.workers = 1;  // unsynchronized call counting
  options.max_retries = 3;
  options.backoff_initial_s = 0.001;
  options.backoff_max_s = 0.002;  // cap below initial * 2^2 to see bounding
  SweepEngine engine(options);
  const SweepSummary summary =
      engine.run(three_jobs(), [&](const JobSpec& spec) {
        if (spec.size_label == "b" && ++calls["b"] <= 2)
          throw MeasurementError("flaky transfer");
        return fake_report(spec);
      });
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.retried, 1);
  EXPECT_EQ(summary.attempts, 5);  // a:1, b:3, c:1
  const JobOutcome* b = summary.find({"W", "b", 1});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->attempts, 3);
  // Backoff: min(0.001*2^0, 0.002) + min(0.001*2^1, 0.002) = 0.003.
  EXPECT_DOUBLE_EQ(b->backoff_s, 0.003);
}

TEST(SweepEngine, RetryBudgetExhaustionFailsTheJobNotTheSweep) {
  SweepOptions options;
  options.workers = 1;
  options.max_retries = 2;
  SweepEngine engine(options);
  const SweepSummary summary =
      engine.run(three_jobs(), [&](const JobSpec& spec) {
        if (spec.size_label == "b") throw MeasurementError("always flaky");
        return fake_report(spec);
      });
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 1);
  const JobOutcome* b = summary.find({"W", "b", 1});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->status, JobStatus::kFailed);
  EXPECT_EQ(b->attempts, 3);  // 1 + 2 retries
  ASSERT_TRUE(b->error.has_value());
  EXPECT_EQ(b->error->kind, ErrorKind::kMeasurement);
  EXPECT_TRUE(b->error->retryable);
}

TEST(SweepEngine, PermanentErrorsAreNeverRetried) {
  struct Case {
    std::function<void()> thrower;
    ErrorKind kind;
  };
  const Case cases[] = {
      {[] { throw CalibrationError("no converge"); }, ErrorKind::kCalibration},
      {[] { throw skeleton::ParseError(3, "bad line"); }, ErrorKind::kParse},
      {[] { throw UsageError("unknown workload"); }, ErrorKind::kUsage},
      {[] { throw ContractViolation("invariant"); }, ErrorKind::kContract},
      {[] { throw std::runtime_error("misc"); }, ErrorKind::kException},
  };
  for (const Case& test_case : cases) {
    int calls = 0;
    SweepOptions options;
    options.workers = 1;
    options.max_retries = 5;
    SweepEngine engine(options);
    const SweepSummary summary =
        engine.run({{"W", "a", 1}}, [&](const JobSpec&) -> core::ProjectionReport {
          ++calls;
          test_case.thrower();
          return {};
        });
    EXPECT_EQ(summary.failed, 1) << to_string(test_case.kind);
    EXPECT_EQ(calls, 1) << to_string(test_case.kind);  // no retry
    ASSERT_TRUE(summary.outcomes[0].error.has_value());
    EXPECT_EQ(summary.outcomes[0].error->kind, test_case.kind);
    EXPECT_FALSE(summary.outcomes[0].error->retryable)
        << to_string(test_case.kind);
  }
}

TEST(SweepEngine, DegradedCalibrationBubblesUp) {
  SweepEngine engine;
  const SweepSummary summary =
      engine.run({{"W", "a", 1}}, [&](const JobSpec& spec) {
        core::ProjectionReport report = fake_report(spec);
        report.calibration.used_fallback = true;
        return report;
      });
  EXPECT_TRUE(summary.degraded);
  EXPECT_TRUE(summary.outcomes[0].record.calibration_fallback);
}

// --- the deadline watchdog ---

TEST(SweepEngine, DeadlineConvertsAHangIntoATimedOutJobError) {
  SweepOptions options;
  options.workers = 1;  // the elapsed-time bound assumes serial execution
  options.deadline_s = 0.05;
  options.max_retries = 0;
  SweepEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const SweepSummary summary =
      engine.run(three_jobs(), [&](const JobSpec& spec) {
        if (spec.size_label == "b")  // scripted hang: far beyond deadline
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return fake_report(spec);
      });
  // The sweep itself finished (all three jobs decided) without waiting
  // for the hang to clear.
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 1);
  const JobOutcome* b = summary.find({"W", "b", 1});
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->error.has_value());
  EXPECT_EQ(b->error->kind, ErrorKind::kTimeout);
  EXPECT_TRUE(b->error->timed_out);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 0.35);  // did not block on the 400ms sleep
}

TEST(SweepEngine, TimeoutIsRetryable) {
  std::atomic<int> calls{0};
  SweepOptions options;
  options.deadline_s = 0.03;
  options.max_retries = 2;
  SweepEngine engine(options);
  const SweepSummary summary =
      engine.run({{"W", "a", 1}}, [&](const JobSpec& spec) {
        if (calls.fetch_add(1) == 0)  // only the first attempt hangs
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return fake_report(spec);
      });
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.retried, 1);
  EXPECT_GE(summary.outcomes[0].attempts, 2);
}

TEST(SweepEngine, FaultInjectorHangSurfacesAsTimeoutNotAStuckSweep) {
  // The real fault-injection stack: a SimulatedBus wrapped in a
  // FaultInjector whose plan scripts a hang on every observation. The job
  // realizes the injected duration as wall-clock time (scaled down:
  // 1 simulated second -> 1 real millisecond), which is exactly what a
  // measurement harness driving real hardware would experience.
  const hw::MachineSpec machine = hw::anl_eureka();
  faults::FaultPlan plan;
  plan.hang_probability = 1.0;
  plan.hang_factor = 10000.0;

  pcie::SimulatedBus bus(machine.pcie, 7);
  faults::FaultInjector injector(bus, plan);
  // A timed-out attempt is abandoned, not cancelled: its thread may still
  // be realizing the stall when the retry re-enters the injector. The
  // injector call itself is microseconds, so serializing it (but not the
  // sleep) keeps the shared RNG race-free without affecting the deadline.
  std::mutex injector_mutex;

  SweepOptions options;
  options.workers = 1;  // the injector's scripted stream is shared state
  options.deadline_s = 0.05;
  options.max_retries = 1;
  SweepEngine engine(options);
  const SweepSummary summary =
      engine.run(three_jobs(), [&](const JobSpec& spec) {
        if (spec.size_label == "b") {
          double simulated_s = 0.0;
          {
            std::lock_guard<std::mutex> lock(injector_mutex);
            simulated_s = injector.time_transfer(
                util::kMiB, hw::Direction::kHostToDevice,
                hw::HostMemory::kPinned);
          }
          // Realize the simulated stall as wall-clock time, capped so an
          // abandoned attempt still terminates promptly at teardown. The
          // hang_factor makes simulated_s seconds long; the cap keeps the
          // test fast while staying far beyond the 50ms deadline.
          const double realized_s = std::min(simulated_s, 0.2);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(realized_s));
        }
        return fake_report(spec);
      });
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 1);
  const JobOutcome* b = summary.find({"W", "b", 1});
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->error.has_value());
  EXPECT_EQ(b->error->kind, ErrorKind::kTimeout);
  EXPECT_TRUE(b->error->timed_out);
  EXPECT_EQ(b->attempts, 2);  // timed out, retried, timed out again
  {
    std::lock_guard<std::mutex> lock(injector_mutex);
    EXPECT_GE(injector.stats().hangs, 1u);
  }
}

// --- the supervised attempt (shared with serve::Daemon) ---

TEST(AttemptRunner, InfiniteDeadlineRunsInlineOnTheCallingThread) {
  AttemptRunner runner;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  const AttemptResult ok = runner.run(
      {"W", "a", 1, ""},
      [&](const JobSpec& spec) {
        ran_on = std::this_thread::get_id();
        return fake_report(spec);
      },
      std::numeric_limits<double>::infinity());
  ASSERT_TRUE(ok.report.has_value());
  EXPECT_EQ(ran_on, caller);

  // A failure is classified on either path, never thrown.
  const JobFn permanent = [](const JobSpec&) -> core::ProjectionReport {
    throw CalibrationError("poisoned config");
  };
  for (double deadline_s : {std::numeric_limits<double>::infinity(), 5.0}) {
    const AttemptResult failed = runner.run({"W", "a", 1, ""}, permanent,
                                            deadline_s);
    EXPECT_FALSE(failed.report.has_value());
    EXPECT_EQ(failed.error.kind, ErrorKind::kCalibration);
    EXPECT_FALSE(failed.error.retryable);
  }
  EXPECT_EQ(runner.abandoned(), 0u);
  EXPECT_EQ(runner.strays(), 0u);
}

TEST(AttemptRunner, LateAttemptIsAbandonedAndJoinedOnceFinished) {
  std::atomic<bool> release{false};  // outlives the runner's strays
  AttemptRunner runner;
  const AttemptResult late = runner.run(
      {"W", "a", 1, ""},
      [&](const JobSpec& spec) {
        while (!release.load()) std::this_thread::yield();
        return fake_report(spec);
      },
      0.02);
  EXPECT_FALSE(late.report.has_value());
  EXPECT_EQ(late.error.kind, ErrorKind::kTimeout);
  EXPECT_TRUE(late.error.timed_out);
  EXPECT_TRUE(late.error.retryable);
  EXPECT_EQ(late.error.message,
            "job W/a/x1 exceeded the 0.02s deadline; attempt abandoned");
  EXPECT_EQ(runner.abandoned(), 1u);
  EXPECT_EQ(runner.strays(), 1u);  // still running: nothing to join yet

  // Once the stray has finished, a later supervised attempt joins it.
  release = true;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (runner.strays() > 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(runner.run({"W", "b", 1, ""}, fake_report, 5.0).report);
  }
  EXPECT_EQ(runner.strays(), 0u);
  EXPECT_EQ(runner.abandoned(), 1u);
}

TEST(AttemptRunner, JoinStraysWaitsForAbandonedAttempts) {
  std::atomic<bool> finished{false};  // outlives the runner's strays
  AttemptRunner runner;
  runner.run(
      {"W", "a", 1, ""},
      [&](const JobSpec& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        finished = true;
        return fake_report(spec);
      },
      0.01);
  EXPECT_EQ(runner.strays(), 1u);
  runner.join_strays();
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(runner.strays(), 0u);
}

// --- journaling + resume ---

TEST(SweepEngine, JournalReplaysCompletedJobsAndRerunsFailedOnes) {
  TempJournal journal("resume");
  std::map<std::string, int> calls;

  SweepOptions options;
  options.workers = 1;  // unsynchronized call counting
  options.journal_path = journal.path();
  options.max_retries = 0;
  const auto jobs = three_jobs();

  {  // First run: "b" fails permanently, the others succeed + journal.
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
      ++calls[spec.size_label];
      if (spec.size_label == "b") throw CalibrationError("poisoned config");
      return fake_report(spec);
    });
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(summary.failed, 1);
  }
  {  // Second run: a and c replay from the journal, only b re-executes.
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
      ++calls[spec.size_label];
      return fake_report(spec);
    });
    EXPECT_EQ(summary.resumed, 2);
    EXPECT_EQ(summary.ok, 1);
    EXPECT_EQ(summary.failed, 0);
    EXPECT_EQ(summary.attempts, 1);  // only b ran
    const JobOutcome* a = summary.find({"W", "a", 1});
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->status, JobStatus::kResumed);
    EXPECT_EQ(a->attempts, 0);
    // The resumed report carries the journaled scalars.
    ASSERT_TRUE(a->report.has_value());
    EXPECT_DOUBLE_EQ(a->report->measured_speedup(),
                     fake_report({"W", "a", 1}).measured_speedup());
  }
  EXPECT_EQ(calls["a"], 1);
  EXPECT_EQ(calls["b"], 2);
  EXPECT_EQ(calls["c"], 1);

  {  // Third run: everything resumes; the job function must not run.
    SweepEngine engine(options);
    const SweepSummary summary =
        engine.run(jobs, [&](const JobSpec&) -> core::ProjectionReport {
          ADD_FAILURE() << "no job should execute on a complete journal";
          return {};
        });
    EXPECT_EQ(summary.resumed, 3);
    EXPECT_EQ(summary.attempts, 0);
  }
}

TEST(SweepEngine, ResumeDisabledReRunsEverything) {
  TempJournal journal("noresume");
  SweepOptions options;
  options.workers = 1;  // unsynchronized call counting
  options.journal_path = journal.path();
  options.resume = false;
  int calls = 0;
  for (int run = 0; run < 2; ++run) {
    SweepEngine engine(options);
    engine.run(three_jobs(), [&](const JobSpec& spec) {
      ++calls;
      return fake_report(spec);
    });
  }
  EXPECT_EQ(calls, 6);
}

TEST(SweepEngine, TornJournalTailResumesCleanly) {
  TempJournal journal("torn");
  SweepOptions options;
  options.workers = 1;  // unsynchronized call counting
  options.journal_path = journal.path();
  const auto jobs = three_jobs();
  {
    SweepEngine engine(options);
    engine.run(jobs, [&](const JobSpec& spec) { return fake_report(spec); });
  }
  // Crash mid-append of the final record.
  const auto size = fs::file_size(journal.path());
  fs::resize_file(journal.path(), size - 5);

  SweepEngine engine(options);
  int calls = 0;
  const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
    ++calls;
    return fake_report(spec);
  });
  EXPECT_EQ(summary.journal_corrupt_lines, 1);
  EXPECT_EQ(summary.resumed, 2);  // the two intact records survive
  EXPECT_EQ(summary.ok, 1);       // only the torn job re-ran
  EXPECT_EQ(calls, 1);
  // The re-run record replaced the torn line instead of being glued to it.
  const JournalReadResult healed = ResultJournal::read(journal.path());
  EXPECT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.corrupt_lines, 0);
}

TEST(SweepEngine, OneWorkerMakesEachRecordDurableBeforeTheNextJobStarts) {
  TempJournal journal("durable");
  SweepOptions options;
  options.workers = 1;
  options.journal_path = journal.path();
  const std::vector<JobSpec> jobs{
      {"W", "a", 1}, {"W", "b", 1}, {"W", "c", 1}, {"W", "d", 1},
      {"W", "e", 1}};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  SweepEngine engine(options);
  const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(ResultJournal::read(journal.path()).records.size());
    return fake_report(spec);
  });
  EXPECT_EQ(summary.ok, 5);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// Group commit still hands every committed record to the OS before the
// committer blocks: job d waits until a, b and c are in the file, which
// happens only if the committer writes them before it waits for d.
TEST(SweepEngine, PoolCommitterWritesEveryRecordBeforeItBlocks) {
  TempJournal journal("before_block");
  SweepOptions options;
  options.workers = 2;
  options.journal_path = journal.path();
  const std::vector<JobSpec> jobs{{"W", "a", 1, ""},
                                  {"W", "b", 1, ""},
                                  {"W", "c", 1, ""},
                                  {"W", "d", 1, ""},
                                  {"W", "e", 1, ""}};
  std::size_t seen_by_d = 0;
  SweepEngine engine(options);
  const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
    if (spec.size_label == "d") {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while ((seen_by_d = ResultJournal::read(journal.path()).records.size()) <
                 3 &&
             std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fake_report(spec);
  });
  EXPECT_EQ(seen_by_d, 3u);
  EXPECT_EQ(summary.ok, 5);
}

// --- group commit under SIGKILL ---
// The committer writes each run of finished records with one write. Kill
// a journaled 2-worker sweep at several points: whatever reached the file
// must be a byte prefix of the fault-free journal (whole records in
// submission order, then at most one torn line), and resuming must
// restore the fault-free bytes exactly.

/// 400 jobs with ~0.4 KiB records. Job 5 stalls while the other worker
/// runs ahead, so the committer finds a run of finished records larger
/// than one 64 KiB write.
std::vector<JobSpec> crash_grid() {
  const std::string pad(200, 'p');
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 400; ++i)
    jobs.push_back({"W", pad + std::to_string(i), 1, ""});
  return jobs;
}

core::ProjectionReport paced_report(const JobSpec& spec) {
  const bool stall = spec.size_label.ends_with("p5");  // Job 5 only.
  std::this_thread::sleep_for(stall ? std::chrono::microseconds(30000)
                                    : std::chrono::microseconds(100));
  return fake_report(spec);
}

SweepOptions crash_options(const std::string& path) {
  SweepOptions options;
  options.workers = 2;
  options.journal_path = path;
  options.record_wall_time = false;
  return options;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(GroupCommitCrash, KilledSweepLeavesAPrefixAndResumesToTheSameBytes) {
  const std::vector<JobSpec> jobs = crash_grid();
  const int delays_ms[] = {0, 2, 6, 15, 30};
  std::vector<std::unique_ptr<TempJournal>> killed;
  int mid_sweep = 0;

  // Fork every child before the parent starts a thread of its own.
  for (const int delay_ms : delays_ms) {
    killed.push_back(
        std::make_unique<TempJournal>("crash" + std::to_string(delay_ms)));
    const std::string& path = killed.back()->path();
    int started[2];
    ASSERT_EQ(::pipe(started), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(started[0]);
      std::atomic<bool> told{false};
      try {
        SweepEngine engine(crash_options(path));
        engine.run(jobs, [&](const JobSpec& spec) {
          if (!told.exchange(true)) {
            const char byte = 'g';
            (void)!::write(started[1], &byte, 1);
          }
          return paced_report(spec);
        });
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    ::close(started[1]);
    char byte = 0;
    ASSERT_EQ(::read(started[0], &byte, 1), 1);
    ::close(started[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    if (WIFSIGNALED(status)) {
      ++mid_sweep;
    } else {
      EXPECT_EQ(WEXITSTATUS(status), 0) << "the child's sweep failed";
    }
  }
  EXPECT_GE(mid_sweep, 1);

  TempJournal reference("crash_reference");
  SweepEngine(crash_options(reference.path())).run(jobs, paced_report);
  const std::string expected = file_bytes(reference.path());
  const JournalReadResult expected_records =
      ResultJournal::read(reference.path());
  ASSERT_EQ(expected_records.records.size(), jobs.size());
  const std::string expected_describe =
      SweepEngine(crash_options(reference.path()))
          .run(jobs, paced_report)
          .describe();

  for (const std::unique_ptr<TempJournal>& journal : killed) {
    const std::string survived = file_bytes(journal->path());
    ASSERT_LE(survived.size(), expected.size());
    EXPECT_EQ(expected.compare(0, survived.size(), survived), 0)
        << journal->path() << " is not a prefix of the fault-free journal";
    const JournalReadResult read = ResultJournal::read(journal->path());
    EXPECT_EQ(read.corrupt_interior, 0);
    EXPECT_LE(read.corrupt_tail, 1);
    for (std::size_t i = 0; i < read.records.size(); ++i)
      ASSERT_EQ(read.records[i], expected_records.records[i]);

    const SweepSummary resumed =
        SweepEngine(crash_options(journal->path())).run(jobs, paced_report);
    EXPECT_EQ(resumed.resumed, static_cast<int>(read.records.size()));
    EXPECT_EQ(resumed.ok + resumed.resumed, static_cast<int>(jobs.size()));
    EXPECT_EQ(file_bytes(journal->path()), expected) << journal->path();
    EXPECT_EQ(SweepEngine(crash_options(journal->path()))
                  .run(jobs, paced_report)
                  .describe(),
              expected_describe);
  }
}

// --- the chaos sweep: the full acceptance scenario ---

// A Fig. 7-style CFD size sweep through the real projection pipeline with
// faults::FaultInjector scripting transient failures, plus one permanently
// poisoned configuration. Healthy jobs must complete and journal; a second
// engine run must resume from the journal re-executing only the failed
// job; and every successful result must equal the fault-free run.
TEST(SweepEngine, ChaosSweepPreservesCompletedWorkAndResumes) {
  const auto all = workloads::paper_workloads();
  const workloads::Workload& cfd = workloads::find_workload(all, "CFD");

  std::vector<JobSpec> jobs;
  for (const workloads::DataSize& size : cfd.paper_data_sizes())
    jobs.push_back({"CFD", size.label, 1});
  ASSERT_GE(jobs.size(), 2u);
  const std::string poisoned = jobs[1].size_label;

  // Per-spec runner construction keeps every job's stochastic streams
  // independent of which other jobs ran — the property that makes the
  // fault-free comparison exact.
  const auto project = [&](const JobSpec& spec) {
    core::ExperimentRunner runner;
    return runner.run(cfd, workloads::find_data_size(cfd, spec.size_label),
                      spec.iterations);
  };

  // Fault-free reference.
  std::map<std::string, core::ProjectionReport> reference;
  for (const JobSpec& spec : jobs) reference.emplace(spec.size_label, project(spec));

  TempJournal journal("chaos");
  SweepOptions options;
  // workers = 1: the scripted fail_first transients must land on the first
  // job deterministically. The 8-worker chaos variant lives in
  // sweep_determinism_test.
  options.workers = 1;
  options.journal_path = journal.path();
  options.max_retries = 3;

  // The real injection stack scripts the transients: the first two
  // observations fail (MeasurementError), later ones pass.
  const hw::MachineSpec machine = hw::anl_eureka();
  faults::FaultPlan plan;
  plan.fail_first = 2;
  pcie::SimulatedBus bus(machine.pcie, 11);
  faults::FaultInjector injector(bus, plan);

  {  // Run 1: transients + one poisoned configuration.
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
      // A pre-flight probe transfer through the injector: transient
      // failures surface exactly as they would from flaky hardware.
      injector.time_transfer(util::kMiB, hw::Direction::kHostToDevice,
                             hw::HostMemory::kPinned);
      if (spec.size_label == poisoned)
        throw CalibrationError("poisoned configuration");
      return project(spec);
    });

    EXPECT_EQ(summary.ok, static_cast<int>(jobs.size()) - 1);
    EXPECT_EQ(summary.failed, 1);
    EXPECT_GE(summary.retried, 1);  // the fail_first transients got retried
    EXPECT_TRUE(summary.describe().find("FAILED") != std::string::npos);

    // Job-level attempt counts: the first job absorbed the two scripted
    // transients (3 attempts), the poisoned one failed on attempt 1.
    EXPECT_EQ(summary.outcomes[0].attempts, 3);
    const JobOutcome* failed = summary.find({"CFD", poisoned, 1});
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->attempts, 1);
    EXPECT_EQ(failed->error->kind, ErrorKind::kCalibration);
  }

  {  // Run 2: faults cleared; only the poisoned job re-executes.
    int executed = 0;
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
      ++executed;
      EXPECT_EQ(spec.size_label, poisoned);
      return project(spec);
    });
    EXPECT_EQ(executed, 1);
    EXPECT_EQ(summary.resumed, static_cast<int>(jobs.size()) - 1);
    EXPECT_EQ(summary.ok, 1);
    EXPECT_EQ(summary.failed, 0);

    // The final table equals the fault-free run everywhere: resumed rows
    // replay the journaled scalars, the re-run row recomputed them.
    for (const JobOutcome& outcome : summary.outcomes) {
      ASSERT_TRUE(outcome.report.has_value());
      const core::ProjectionReport& expected =
          reference.at(outcome.spec.size_label);
      EXPECT_DOUBLE_EQ(outcome.report->measured_speedup(),
                       expected.measured_speedup());
      EXPECT_DOUBLE_EQ(outcome.report->predicted_speedup_both(),
                       expected.predicted_speedup_both());
      EXPECT_DOUBLE_EQ(outcome.report->predicted_speedup_kernel_only(),
                       expected.predicted_speedup_kernel_only());
      EXPECT_DOUBLE_EQ(outcome.report->speedup_error_both_pct(),
                       expected.speedup_error_both_pct());
    }
  }
}

}  // namespace
}  // namespace grophecy::exec
