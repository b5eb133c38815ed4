// In-sweep deduplication (exec/sweep.h): jobs with identical fingerprints
// execute once — every later occurrence reuses the first one's result as
// JobStatus::kDeduped without running or journaling — and a sweep with no
// duplicates behaves byte-for-byte as before.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/journal.h"
#include "exec/sweep.h"
#include "util/error.h"

namespace grophecy::exec {
namespace {

namespace fs = std::filesystem;

class TempJournal {
 public:
  explicit TempJournal(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("grophecy_dedupe_" + name + std::to_string(::getpid()) +
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

TEST(SweepDedupe, DuplicateSpecsExecuteOnceAndReuseTheResult) {
  // A, B, A, A, C — the three A's share one fingerprint.
  const std::vector<JobSpec> jobs{{"W", "a", 1},
                                  {"W", "b", 1},
                                  {"W", "a", 1},
                                  {"W", "a", 1},
                                  {"W", "c", 1}};
  std::atomic<int> executions{0};
  SweepOptions options;
  options.workers = 2;
  SweepEngine engine(options);
  const SweepSummary summary = engine.run(jobs, [&](const JobSpec& spec) {
    executions.fetch_add(1);
    return fake_report(spec);
  });

  EXPECT_EQ(executions.load(), 3);  // a, b, c — each once
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.deduped, 2);
  EXPECT_EQ(summary.failed, 0);
  ASSERT_EQ(summary.outcomes.size(), jobs.size());

  // Outcomes stay in submission order with the original specs.
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(summary.outcomes[i].spec.key(), jobs[i].key());

  EXPECT_EQ(summary.outcomes[0].status, JobStatus::kOk);
  EXPECT_EQ(summary.outcomes[2].status, JobStatus::kDeduped);
  EXPECT_EQ(summary.outcomes[3].status, JobStatus::kDeduped);

  // A duplicate carries the original's record and report verbatim, with
  // no executions of its own.
  for (const std::size_t dup : {std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(summary.outcomes[dup].attempts, 0);
    EXPECT_EQ(summary.outcomes[dup].record.to_json(),
              summary.outcomes[0].record.to_json());
    ASSERT_TRUE(summary.outcomes[dup].report.has_value());
    EXPECT_EQ(summary.outcomes[dup].report->predicted_kernel_s,
              summary.outcomes[0].report->predicted_kernel_s);
  }

  // The summary names the dedupe; a dedupe-free sweep would not.
  EXPECT_NE(summary.describe().find("deduped"), std::string::npos);
}

TEST(SweepDedupe, JournalContainsOnlyUniqueJobs) {
  const std::vector<JobSpec> jobs{{"W", "a", 1},
                                  {"W", "a", 1},
                                  {"W", "b", 1},
                                  {"W", "a", 1}};
  TempJournal journal("unique");
  SweepOptions options;
  options.workers = 1;
  options.journal_path = journal.path();
  options.record_wall_time = false;
  SweepEngine engine(options);
  const SweepSummary summary = engine.run(
      jobs, [](const JobSpec& spec) { return fake_report(spec); });
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.deduped, 2);

  // Two journal lines: fingerprints a and b, each exactly once.
  const std::string bytes = journal.bytes();
  std::size_t lines = 0;
  for (std::size_t pos = bytes.find('\n'); pos != std::string::npos;
       pos = bytes.find('\n', pos + 1))
    ++lines;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(bytes.find(JobSpec{"W", "a", 1}.fingerprint()),
            std::string::npos);
  EXPECT_NE(bytes.find(JobSpec{"W", "b", 1}.fingerprint()),
            std::string::npos);

  // And the journal bytes match a sweep submitted without duplicates.
  TempJournal clean("clean");
  SweepOptions clean_options = options;
  clean_options.journal_path = clean.path();
  SweepEngine clean_engine(clean_options);
  clean_engine.run({{"W", "a", 1}, {"W", "b", 1}},
                   [](const JobSpec& spec) { return fake_report(spec); });
  EXPECT_EQ(clean.bytes(), bytes);
}

TEST(SweepDedupe, DuplicateOfAFailedJobFailsIdentically) {
  const std::vector<JobSpec> jobs{{"W", "bad", 1}, {"W", "bad", 1}};
  std::atomic<int> executions{0};
  SweepOptions options;
  options.workers = 1;
  options.max_retries = 0;
  SweepEngine engine(options);
  const SweepSummary summary =
      engine.run(jobs, [&](const JobSpec& spec) -> core::ProjectionReport {
        executions.fetch_add(1);
        throw CalibrationError("poisoned: " + spec.key());
      });

  EXPECT_EQ(executions.load(), 1);  // the duplicate never runs
  EXPECT_EQ(summary.failed, 2);     // but fails like the original
  EXPECT_EQ(summary.deduped, 0);    // a failed duplicate is not a dedupe win
  ASSERT_EQ(summary.outcomes.size(), 2u);
  EXPECT_EQ(summary.outcomes[1].status, JobStatus::kFailed);
  ASSERT_TRUE(summary.outcomes[1].error.has_value());
  EXPECT_EQ(summary.outcomes[1].error->kind, summary.outcomes[0].error->kind);
  EXPECT_EQ(summary.outcomes[1].error->message,
            summary.outcomes[0].error->message);
}

TEST(SweepDedupe, NoDuplicatesMeansIdenticalSummaryText) {
  // Without duplicates describe() must not mention deduping at all — the
  // sweep is byte-identical to the pre-dedupe engine.
  const std::vector<JobSpec> jobs{{"W", "a", 1}, {"W", "b", 1}};
  SweepEngine engine(SweepOptions{});
  const SweepSummary summary = engine.run(
      jobs, [](const JobSpec& spec) { return fake_report(spec); });
  EXPECT_EQ(summary.deduped, 0);
  EXPECT_EQ(summary.describe().find("deduped"), std::string::npos);
}

TEST(SweepDedupe, DedupeIsDeterministicAcrossWorkerCounts) {
  std::vector<JobSpec> jobs;
  for (int round = 0; round < 3; ++round)
    for (int s = 0; s < 4; ++s)
      jobs.push_back({"W", "size" + std::to_string(s), 1 << (s % 2)});

  auto run = [&](int workers, const std::string& name, int shards = 0) {
    TempJournal journal(name);
    SweepOptions options;
    options.workers = workers;
    options.shards = shards;
    options.journal_path = journal.path();
    options.record_wall_time = false;
    SweepEngine engine(options);
    const SweepSummary summary = engine.run(
        jobs, [](const JobSpec& spec) { return fake_report(spec); });
    return std::make_pair(summary.describe(), journal.bytes());
  };

  const auto serial = run(1, "w1");
  for (int workers : {2, 8}) {
    const auto parallel = run(workers, "w" + std::to_string(workers));
    EXPECT_EQ(parallel.first, serial.first) << workers;
    EXPECT_EQ(parallel.second, serial.second) << workers;
  }
  // Worker processes dedupe and commit through the same plan.
  const auto sharded = run(1, "s2", /*shards=*/2);
  EXPECT_EQ(sharded.first, serial.first);
  EXPECT_EQ(sharded.second, serial.second);
}

}  // namespace
}  // namespace grophecy::exec
