// The determinism contract of the parallel sweep engine (exec/sweep.h):
// for any worker count, a sweep's measured values, summary, and journal
// bytes are identical — scheduling must never be observable in results.
//
//   * fake-job sweeps: summary counters, outcome order, record payloads,
//     and journal bytes equal across workers in {1, 2, 8};
//   * real-pipeline sweeps through exec::SweepRequest: every job's
//     ProjectionReport equals the serial run bit-for-bit (per-job seeds
//     make results a pure function of the spec), and a detailed_sim
//     sweep, whose kernel measurements run on helper threads, journals
//     and describes the same bytes with 1 and 4 workers;
//   * per-job seeding: stream_seed is a pure decorrelated function of
//     (base seed, spec identity);
//   * the chaos scenario under 8 workers: FaultInjector-scripted hangs
//     and transients across a journaled sweep, resumed to the fault-free
//     answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataflow/usage_cache.h"
#include "exec/journal.h"
#include "exec/sweep_request.h"
#include "faults/fault_injector.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "util/error.h"
#include "util/units.h"
#include "workloads/skeleton_cache.h"

namespace grophecy::exec {
namespace {

namespace fs = std::filesystem;

class TempJournal {
 public:
  explicit TempJournal(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("grophecy_determinism_" + name + std::to_string(::getpid()) +
                ".jsonl"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  std::string bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

 private:
  std::string path_;
};

/// Deterministic fake projection: a pure function of the spec.
core::ProjectionReport fake_report(const JobSpec& spec) {
  core::ProjectionReport report;
  report.app_name = spec.workload + " " + spec.size_label;
  report.machine_name = "fake";
  report.iterations = spec.iterations;
  report.predicted_kernel_s = 0.010 + 0.001 * spec.iterations;
  report.measured_kernel_s =
      0.011 + 1e-6 * static_cast<double>(spec.size_label.size());
  report.predicted_transfer_s = 0.020;
  report.measured_transfer_s = 0.019;
  report.measured_cpu_s = 0.300;
  return report;
}

std::vector<JobSpec> grid(int sizes, int iteration_counts) {
  std::vector<JobSpec> jobs;
  for (int s = 0; s < sizes; ++s)
    for (int i = 0; i < iteration_counts; ++i)
      jobs.push_back({"W", "size" + std::to_string(s), 1 << i});
  return jobs;
}

// --- per-job seed derivation ---

TEST(StreamSeed, IsAPureDecorrelatedFunctionOfBaseAndIdentity) {
  const JobSpec a{"CFD", "97K", 1};
  EXPECT_EQ(a.stream_seed(42), a.stream_seed(42));  // pure
  EXPECT_NE(a.stream_seed(42), a.stream_seed(43));  // base matters
  // Distinct specs get distinct streams under one base.
  std::set<std::uint64_t> seeds;
  for (const JobSpec& spec : grid(4, 4)) seeds.insert(spec.stream_seed(42));
  EXPECT_EQ(seeds.size(), 16u);
  // Identity, not address or order: an equal spec agrees.
  EXPECT_EQ((JobSpec{"CFD", "97K", 1}).stream_seed(42), a.stream_seed(42));
}

// --- scheduling-independence with fake jobs ---

/// Runs one fake-job sweep at the given worker count, with the journal at
/// `path`, and returns the summary.
SweepSummary run_fake_sweep(int workers, const std::string& journal_path) {
  SweepOptions options;
  options.workers = workers;
  options.journal_path = journal_path;
  options.resume = false;
  // Zero journaled wall-clock: elapsed time is the one result field that
  // legitimately differs run to run.
  options.record_wall_time = false;
  SweepEngine engine(options);
  return engine.run(grid(4, 3), [](const JobSpec& spec) {
    // Stagger completion so out-of-order worker finishes actually happen:
    // later submissions sleep less, finishing first under concurrency.
    const int index = spec.iterations;
    std::this_thread::sleep_for(std::chrono::microseconds(500 / index));
    return fake_report(spec);
  });
}

TEST(SweepDeterminism, SummaryAndJournalBytesEqualAcrossWorkerCounts) {
  TempJournal serial_journal("serial");
  const SweepSummary serial = run_fake_sweep(1, serial_journal.path());
  const std::string serial_bytes = serial_journal.bytes();
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial.ok, 12);

  for (int workers : {2, 8}) {
    TempJournal journal("w" + std::to_string(workers));
    const SweepSummary parallel = run_fake_sweep(workers, journal.path());

    EXPECT_EQ(parallel.ok, serial.ok) << workers;
    EXPECT_EQ(parallel.failed, serial.failed) << workers;
    EXPECT_EQ(parallel.attempts, serial.attempts) << workers;
    EXPECT_EQ(parallel.describe(), serial.describe()) << workers;

    // Outcomes in submission order with identical records.
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].spec.key(), serial.outcomes[i].spec.key());
      EXPECT_EQ(parallel.outcomes[i].record.to_json(),
                serial.outcomes[i].record.to_json());
    }

    // The strongest form: the journal files are byte-identical.
    EXPECT_EQ(journal.bytes(), serial_bytes) << workers << " workers";
  }
}

TEST(SweepDeterminism, FailuresLandDeterministicallyAcrossWorkerCounts) {
  auto run = [&](int workers) {
    SweepOptions options;
    options.workers = workers;
    options.max_retries = 0;
    SweepEngine engine(options);
    return engine.run(grid(4, 3), [](const JobSpec& spec) {
      if (spec.size_label == "size2")  // every size2 job fails permanently
        throw CalibrationError("poisoned: " + spec.key());
      return fake_report(spec);
    });
  };
  const SweepSummary serial = run(1);
  EXPECT_EQ(serial.failed, 3);
  for (int workers : {2, 8}) {
    const SweepSummary parallel = run(workers);
    EXPECT_EQ(parallel.describe(), serial.describe()) << workers;
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].status, serial.outcomes[i].status);
      if (serial.outcomes[i].error) {
        ASSERT_TRUE(parallel.outcomes[i].error.has_value());
        EXPECT_EQ(parallel.outcomes[i].error->kind,
                  serial.outcomes[i].error->kind);
        EXPECT_EQ(parallel.outcomes[i].error->message,
                  serial.outcomes[i].error->message);
      }
    }
  }
}

TEST(SweepDeterminism, WorkerPoolActuallyRunsJobsConcurrently) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  SweepOptions options;
  options.workers = 4;
  SweepEngine engine(options);
  EXPECT_EQ(engine.effective_workers(), 4);
  engine.run(grid(4, 2), [&](const JobSpec& spec) {
    const int now = in_flight.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in_flight.fetch_sub(1);
    return fake_report(spec);
  });
  // 8 jobs, 4 workers, 10ms each: genuine overlap must occur.
  EXPECT_GE(peak.load(), 2);
}

// --- scheduling-independence through the real pipeline ---

TEST(SweepDeterminism, RealPipelineResultsEqualSerialBitForBit) {
  auto run = [](int workers) {
    SweepOptions options;
    options.workers = workers;
    SweepEngine engine(options);
    return SweepRequest::on(hw::anl_eureka())
        .workloads({"HotSpot"})
        .sizes(all_sizes)
        .iterations({1, 8})
        .run(engine);
  };
  const SweepSummary serial = run(1);
  ASSERT_GT(serial.ok, 0);
  EXPECT_EQ(serial.failed, 0);

  for (int workers : {2, 8}) {
    const SweepSummary parallel = run(workers);
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      const core::ProjectionReport& a = *serial.outcomes[i].report;
      const core::ProjectionReport& b = *parallel.outcomes[i].report;
      // Bitwise equality of every journaled scalar: the projection is a
      // pure function of the spec, so scheduling cannot perturb it.
      EXPECT_EQ(a.predicted_kernel_s, b.predicted_kernel_s) << i;
      EXPECT_EQ(a.measured_kernel_s, b.measured_kernel_s) << i;
      EXPECT_EQ(a.predicted_transfer_s, b.predicted_transfer_s) << i;
      EXPECT_EQ(a.measured_transfer_s, b.measured_transfer_s) << i;
      EXPECT_EQ(a.measured_cpu_s, b.measured_cpu_s) << i;
    }
  }
}

// The shared-artifact caches must be invisible in results: a sweep whose
// artifacts are all built fresh (cache-cold) and a sweep served entirely
// from the process-wide caches (cache-warm) produce byte-identical
// journals, for any worker count. Content-addressed keys make a cached
// artifact bit-identical to a rebuilt one; this pins it end to end.
TEST(SweepDeterminism, JournalBytesEqualCacheColdAndCacheWarmAcrossWorkers) {
  auto run = [](int workers, bool cold, const std::string& name) {
    if (cold) {
      workloads::skeleton_cache().clear();
      dataflow::usage_cache().clear();
    }
    TempJournal journal(name);
    SweepOptions options;
    options.workers = workers;
    options.journal_path = journal.path();
    options.record_wall_time = false;
    SweepEngine engine(options);
    const SweepSummary summary = SweepRequest::on(hw::anl_eureka())
                                     .workloads({"HotSpot"})
                                     .sizes({"64 x 64", "512 x 512"})
                                     .iterations({1, 8})
                                     .run(engine);
    EXPECT_EQ(summary.failed, 0);
    return journal.bytes();
  };

  const std::string cold_serial = run(1, true, "cold_w1");
  ASSERT_FALSE(cold_serial.empty());
  // Warm runs (caches populated by the run above) and cold parallel runs
  // all journal the same bytes.
  EXPECT_EQ(run(1, false, "warm_w1"), cold_serial);
  for (int workers : {2, 8}) {
    const std::string tag = std::to_string(workers);
    EXPECT_EQ(run(workers, true, "cold_w" + tag), cold_serial) << workers;
    EXPECT_EQ(run(workers, false, "warm_w" + tag), cold_serial) << workers;
  }
}

// With detailed_sim each kernel measurement runs its ten runs on helper
// threads when it is big enough, and concurrent sweep workers share one
// helper budget. None of that may reach a journaled byte.
TEST(SweepDeterminism, DetailedSimJournalAndSummaryEqualAcrossWorkerCounts) {
  core::ProjectionOptions detailed;
  detailed.detailed_sim = true;
  const SweepRequest request =
      SweepRequest::on(hw::anl_eureka()).options(detailed);
  std::vector<JobSpec> jobs;
  for (const auto& [workload, size] :
       {std::pair{"CFD", "97K"}, std::pair{"HotSpot", "512 x 512"},
        std::pair{"SRAD", "1024 x 1024"}, std::pair{"Stassuij", "132 x 2048"}}) {
    const std::vector<JobSpec> cell =
        SweepRequest(request).workloads({workload}).sizes({size}).jobs();
    jobs.insert(jobs.end(), cell.begin(), cell.end());
  }
  auto run = [&](int workers) {
    TempJournal journal("detailed_w" + std::to_string(workers));
    SweepOptions options;
    options.workers = workers;
    options.journal_path = journal.path();
    options.record_wall_time = false;
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(jobs, request.job_fn());
    EXPECT_EQ(summary.ok, 4) << summary.describe();
    return std::pair{journal.bytes(), summary.describe()};
  };
  const auto serial = run(1);
  ASSERT_FALSE(serial.first.empty());
  const auto parallel = run(4);
  EXPECT_EQ(parallel.first, serial.first);
  EXPECT_EQ(parallel.second, serial.second);
}

TEST(SweepDeterminism, RequestJobsExpandDeterministically) {
  const SweepRequest request = SweepRequest::on(hw::anl_eureka())
                                   .workloads({"SRAD", "HotSpot"})
                                   .sizes(all_sizes)
                                   .iterations({1, 4});
  const std::vector<JobSpec> first = request.jobs();
  const std::vector<JobSpec> second = request.jobs();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].key(), second[i].key());
  // Declaration order: workload-major, then size, then iterations.
  EXPECT_EQ(first.front().workload, "SRAD");
  EXPECT_EQ(first.back().workload, "HotSpot");
  EXPECT_EQ(first[0].iterations, 1);
  EXPECT_EQ(first[1].iterations, 4);
}

TEST(SweepRequestValidation, UnknownNamesThrowUsageError) {
  EXPECT_THROW(
      SweepRequest::on(hw::anl_eureka()).workloads({"NoSuchApp"}).jobs(),
      UsageError);
  EXPECT_THROW(SweepRequest::on(hw::anl_eureka())
                   .workloads({"CFD"})
                   .sizes({"nonsense"})
                   .jobs(),
               UsageError);
  EXPECT_THROW(SweepRequest::on(hw::anl_eureka()).jobs(), UsageError);
  EXPECT_THROW(SweepRequest::on(hw::anl_eureka())
                   .workloads({"CFD"})
                   .iterations({})
                   .jobs(),
               UsageError);
}

// --- the chaos sweep under 8 workers ---

// FaultInjector-scripted hangs and transients across a journaled 8-worker
// sweep: healthy jobs journal their results, hung jobs time out, and a
// second (fault-free, 8-worker) run resumes to exactly the fault-free
// serial answer.
TEST(SweepDeterminism, ChaosSweepUnder8WorkersResumesToFaultFreeAnswer) {
  const std::vector<JobSpec> jobs = grid(4, 3);

  // Fault-free serial reference.
  SweepOptions reference_options;
  reference_options.workers = 1;
  SweepEngine reference_engine(reference_options);
  const SweepSummary reference = reference_engine.run(
      jobs, [](const JobSpec& spec) { return fake_report(spec); });
  ASSERT_EQ(reference.ok, static_cast<int>(jobs.size()));

  TempJournal journal("chaos8");
  SweepOptions options;
  options.workers = 8;
  options.journal_path = journal.path();
  options.max_retries = 1;
  // Healthy attempts (microseconds of work plus a thread start) stay far
  // inside the deadline even under sanitizers on a loaded machine, and
  // the scripted hang below (capped at 1 s) outlasts it four times over.
  options.deadline_s = 0.25;

  // The real injection stack scripts the faults. Probabilistic plan +
  // per-job injector stream keyed off the spec keeps the chaos itself
  // deterministic per job while exercising hangs and transients together.
  const hw::MachineSpec machine = hw::anl_eureka();

  {  // Run 1: jobs for "size1" hang past the deadline; "size2" jobs throw
     // a transient on their first attempt, then succeed on retry.
    std::atomic<int> hung{0};
    std::mutex transient_mutex;
    std::set<std::string> transient_thrown;
    SweepEngine engine(options);
    const SweepSummary chaotic = engine.run(jobs, [&](const JobSpec& spec) {
      if (spec.size_label == "size2") {
        std::lock_guard<std::mutex> lock(transient_mutex);
        if (transient_thrown.insert(spec.key()).second)
          throw MeasurementError("scripted transient: " + spec.key());
      }
      if (spec.size_label == "size1") {
        faults::FaultPlan plan;
        plan.hang_probability = 1.0;
        plan.hang_factor = 1e4;
        pcie::SimulatedBus bus(machine.pcie, spec.stream_seed(7));
        faults::FaultInjector injector(bus, plan);
        const double simulated_s = injector.time_transfer(
            util::kMiB, hw::Direction::kHostToDevice, hw::HostMemory::kPinned);
        hung.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(simulated_s, 1.0)));
      }
      return fake_report(spec);
    });
    EXPECT_EQ(hung.load(), 6);  // 3 size1 jobs x (1 attempt + 1 retry)
    EXPECT_EQ(chaotic.failed, 3);
    EXPECT_EQ(chaotic.ok, static_cast<int>(jobs.size()) - 3);
    EXPECT_EQ(chaotic.retried, 6);  // 3 hung (retried then failed) + 3 transient
    for (const JobOutcome& outcome : chaotic.outcomes) {
      if (outcome.spec.size_label != "size1") continue;
      ASSERT_TRUE(outcome.error.has_value()) << outcome.spec.key();
      EXPECT_EQ(outcome.error->kind, ErrorKind::kTimeout);
    }
  }

  {  // Run 2: faults cleared; only the timed-out jobs re-execute, and the
     // final table equals the fault-free reference everywhere. The deadline
     // is not under test here: a generous one keeps the attempts supervised
     // while a slow thread start on a loaded machine cannot time them out.
    SweepOptions resume_options = options;
    resume_options.deadline_s = 30.0;
    std::atomic<int> executed{0};
    SweepEngine engine(resume_options);
    const SweepSummary resumed = engine.run(jobs, [&](const JobSpec& spec) {
      executed.fetch_add(1);
      EXPECT_EQ(spec.size_label, "size1");
      return fake_report(spec);
    });
    EXPECT_EQ(executed.load(), 3);
    EXPECT_EQ(resumed.resumed, static_cast<int>(jobs.size()) - 3);
    EXPECT_EQ(resumed.ok, 3);
    EXPECT_EQ(resumed.failed, 0);
    ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      ASSERT_TRUE(resumed.outcomes[i].report.has_value());
      EXPECT_DOUBLE_EQ(resumed.outcomes[i].report->measured_speedup(),
                       reference.outcomes[i].report->measured_speedup());
      EXPECT_DOUBLE_EQ(resumed.outcomes[i].report->predicted_speedup_both(),
                       reference.outcomes[i].report->predicted_speedup_both());
    }
  }
}

}  // namespace
}  // namespace grophecy::exec
