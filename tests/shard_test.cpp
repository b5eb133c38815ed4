// Tests for the process-sharded sweep: the wire protocol, option
// validation, the shard supervisor's death/respawn/quarantine machinery,
// and the crash-consistent shard merge.
//
// The headline contracts:
//   * a sweep sharded across worker processes produces a journal and a
//     summary byte-identical to the in-process engine running the same
//     grid (record_wall_time = false);
//   * any worker may die at any instant — SIGKILL, _exit, std::abort, an
//     infinite loop — and the sweep still completes, re-assigning the
//     interrupted job to a fresh worker;
//   * a job that keeps killing its workers is quarantined as a permanent
//     structured ErrorKind::kWorkerDeath failure instead of eating the
//     fleet;
//   * leftover shard journals from a killed supervisor are merged into
//     the canonical journal on the next run and then retired.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "exec/journal.h"
#include "exec/shard/protocol.h"
#include "exec/shard/supervisor.h"
#include "exec/sweep.h"
#include "faults/fault_injector.h"
#include "util/error.h"

namespace grophecy::exec {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("grophecy_shard_test_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    cleanup();
  }
  ~TempPath() { cleanup(); }
  const std::string& path() const { return path_; }
  /// "<path>.<suffix>" helper for marker files etc.
  std::string with(const std::string& suffix) const {
    return path_ + "." + suffix;
  }

 private:
  void cleanup() {
    std::remove(path_.c_str());
    for (const std::string& shard : shard::existing_shard_paths(path_))
      std::remove(shard.c_str());
  }
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Deterministic fake projection (same shape as sweep_engine_test's).
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

std::vector<JobSpec> grid(int jobs) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < jobs; ++i)
    specs.push_back({"W", "size" + std::to_string(i), 1});
  return specs;
}

/// True once per marker path: creates the marker on the first call.
bool first_time(const std::string& marker) {
  if (::access(marker.c_str(), F_OK) == 0) return false;
  std::FILE* file = std::fopen(marker.c_str(), "w");
  if (file) std::fclose(file);
  return true;
}

SweepOptions sharded_options(int shards, const std::string& journal = "") {
  SweepOptions options;
  options.shards = shards;
  options.journal_path = journal;
  options.record_wall_time = false;
  options.heartbeat_timeout_s = 10.0;
  return options;
}

// --- the wire protocol ---

TEST(ShardProtocol, JobPayloadRoundTrips) {
  const JobSpec spec{"CFD", "97K", 8};
  const auto decoded = shard::decode_job(shard::encode_job(42, spec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, 42u);
  EXPECT_EQ(decoded->spec.workload, "CFD");
  EXPECT_EQ(decoded->spec.size_label, "97K");
  EXPECT_EQ(decoded->spec.iterations, 8);
}

TEST(ShardProtocol, DonePayloadRoundTripsExactRecordBytes) {
  const JobSpec spec{"CFD", "97K", 1};
  const JobRecord record =
      JobRecord::from_report(spec, fake_report(spec), 2, 0.0);
  shard::Completion completion;
  completion.index = 7;
  completion.status = JobStatus::kOk;
  completion.attempts = 2;
  completion.elapsed_s = 0.5;
  completion.backoff_s = 0.001;
  completion.record_json = record.to_json();

  const auto decoded = shard::decode_done(shard::encode_done(completion));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, 7u);
  EXPECT_EQ(decoded->status, JobStatus::kOk);
  EXPECT_EQ(decoded->attempts, 2);
  // The record travels as exact bytes: the merge appends them verbatim.
  EXPECT_EQ(decoded->record_json, record.to_json());
}

TEST(ShardProtocol, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(shard::decode_job("not json").has_value());
  EXPECT_FALSE(shard::decode_job("{\"index\":1}").has_value());
  EXPECT_FALSE(shard::decode_done("no newline").has_value());
  // Valid meta but a torn record part must not decode either.
  EXPECT_FALSE(
      shard::decode_done("{\"index\":1,\"status\":\"ok\",\"attempts\":1,"
                         "\"elapsed_s\":0,\"backoff_s\":0}\n{\"torn")
          .has_value());
}

TEST(ShardProtocol, FramesRoundTripOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(shard::write_frame(sv[0], shard::MsgType::kJob, "payload"));
  const auto frame = shard::read_frame(sv[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, shard::MsgType::kJob);
  EXPECT_EQ(frame->payload, "payload");
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ShardProtocol, FrameReaderReassemblesSplitFrames) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Build two frames worth of bytes, then deliver them split at an
  // awkward boundary: reader must buffer the partial second frame.
  int pair2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair2), 0);
  ASSERT_TRUE(shard::write_frame(pair2[0], shard::MsgType::kHeartbeat, ""));
  ASSERT_TRUE(shard::write_frame(pair2[0], shard::MsgType::kDone, "abcdef"));
  char bytes[64];
  const ssize_t total = ::read(pair2[1], bytes, sizeof bytes);
  ASSERT_GT(total, 8);

  shard::FrameReader reader;
  std::vector<shard::Frame> frames;
  ASSERT_EQ(::send(sv[0], bytes, 7, 0), 7);  // frame 1 + torn frame 2 header
  EXPECT_EQ(reader.read_available(sv[1], frames),
            shard::FrameReader::Status::kOpen);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, shard::MsgType::kHeartbeat);
  ASSERT_EQ(::send(sv[0], bytes + 7, static_cast<std::size_t>(total) - 7, 0),
            total - 7);
  EXPECT_EQ(reader.read_available(sv[1], frames),
            shard::FrameReader::Status::kOpen);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, shard::MsgType::kDone);
  EXPECT_EQ(frames[1].payload, "abcdef");
  ::close(sv[0]);
  ::close(sv[1]);
  ::close(pair2[0]);
  ::close(pair2[1]);
}

TEST(ShardProtocol, EofWithBufferedPartialFrameIsTorn) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Half a frame, then the writer "dies" (closes).
  const char torn[] = {0x10, 0x00, 0x00, 0x00, 'C', 'p', 'a'};
  ASSERT_EQ(::send(sv[0], torn, sizeof torn, 0),
            static_cast<ssize_t>(sizeof torn));
  ::close(sv[0]);
  shard::FrameReader reader;
  std::vector<shard::Frame> frames;
  // Drain until EOF; the torn bytes never become a frame.
  shard::FrameReader::Status status;
  do {
    status = reader.read_available(sv[1], frames);
  } while (status == shard::FrameReader::Status::kOpen);
  EXPECT_EQ(status, shard::FrameReader::Status::kEof);
  EXPECT_TRUE(frames.empty());
  ::close(sv[1]);
}

TEST(ShardProtocol, OversizedLengthIsAProtocolViolation) {
  EXPECT_FALSE(shard::write_frame(
      -1, shard::MsgType::kJob,
      std::string(shard::kMaxFramePayload + 1, 'x')));
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const unsigned char evil[] = {0xff, 0xff, 0xff, 0x7f, 'J'};
  ASSERT_EQ(::send(sv[0], evil, sizeof evil, 0),
            static_cast<ssize_t>(sizeof evil));
  shard::FrameReader reader;
  std::vector<shard::Frame> frames;
  EXPECT_EQ(reader.read_available(sv[1], frames),
            shard::FrameReader::Status::kProtocol);
  ::close(sv[0]);
  ::close(sv[1]);
}

// --- shard file naming ---

TEST(ShardPath, FormatsSlotNumbersAndScansOnlyShardFiles) {
  EXPECT_EQ(shard::shard_path("/tmp/j.jsonl", 7), "/tmp/j.jsonl.shard007");

  TempPath base("scan");
  const auto touch = [](const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
  };
  touch(base.path() + ".shard002");
  touch(base.path() + ".shard000");
  touch(base.path() + ".shard17");      // Different width: still a shard.
  touch(base.path() + ".shardx");       // Not numeric: not a shard.
  touch(base.path() + ".shard001junk");  // Trailing junk: not a shard.

  const std::vector<std::string> found =
      shard::existing_shard_paths(base.path());
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0], base.path() + ".shard000");
  EXPECT_EQ(found[1], base.path() + ".shard002");
  EXPECT_EQ(found[2], base.path() + ".shard17");
  for (const std::string& path : found) std::remove(path.c_str());
  std::remove((base.path() + ".shardx").c_str());
  std::remove((base.path() + ".shard001junk").c_str());
}

// --- option validation (UsageError naming the field) ---

TEST(ShardOptionsValidation, EachInvalidFieldNamesItselfInTheError) {
  struct Case {
    void (*mutate)(SweepOptions&);
    const char* message;
  };
  const Case cases[] = {
      {[](SweepOptions& o) { o.workers = -1; },
       "SweepOptions.workers must be non-negative, got -1"},
      {[](SweepOptions& o) { o.shards = -2; },
       "SweepOptions.shards must be non-negative, got -2"},
      {[](SweepOptions& o) { o.max_retries = -1; },
       "SweepOptions.max_retries must be non-negative, got -1"},
      {[](SweepOptions& o) { o.backoff_initial_s = -0.5; },
       "SweepOptions.backoff_initial_s must be non-negative, got -0.5"},
      {[](SweepOptions& o) { o.backoff_initial_s = std::nan(""); },
       "SweepOptions.backoff_initial_s must be non-negative, got nan"},
      {[](SweepOptions& o) {
         o.backoff_initial_s = 1.0;
         o.backoff_max_s = 0.5;
       },
       "SweepOptions.backoff_max_s must be >= backoff_initial_s (1), got 0.5"},
      {[](SweepOptions& o) { o.deadline_s = 0.0; },
       "SweepOptions.deadline_s must be positive, got 0"},
      // NaN deadlines are bad requests too, not crashes.
      {[](SweepOptions& o) { o.deadline_s = std::nan(""); },
       "SweepOptions.deadline_s must be positive, got nan"},
      {[](SweepOptions& o) { o.heartbeat_timeout_s = -3.0; },
       "SweepOptions.heartbeat_timeout_s must be positive, got -3"},
      {[](SweepOptions& o) { o.poison_kill_threshold = 0; },
       "SweepOptions.poison_kill_threshold must be >= 1, got 0"},
  };
  for (const Case& test_case : cases) {
    SweepOptions options;
    test_case.mutate(options);
    try {
      SweepEngine engine(options);
      ADD_FAILURE() << "no UsageError; expected: " << test_case.message;
    } catch (const UsageError& error) {
      EXPECT_STREQ(error.what(), test_case.message);
    }
  }
  // And the defaults validate.
  EXPECT_NO_THROW(SweepOptions{}.validate());
}

// --- the supervisor ---

TEST(ShardSupervisor, ShardedRunMatchesInProcessRunByteForByte) {
  TempPath serial("serial");
  TempPath sharded("sharded");
  const std::vector<JobSpec> jobs = grid(6);

  SweepOptions serial_options = sharded_options(0, serial.path());
  serial_options.workers = 1;
  SweepEngine serial_engine(serial_options);
  const SweepSummary serial_summary = serial_engine.run(jobs, fake_report);

  SweepEngine sharded_engine(sharded_options(3, sharded.path()));
  const SweepSummary sharded_summary = sharded_engine.run(jobs, fake_report);

  EXPECT_EQ(sharded_summary.ok, 6);
  EXPECT_EQ(sharded_summary.failed, 0);
  EXPECT_EQ(sharded_summary.worker_deaths, 0);
  EXPECT_EQ(sharded_summary.describe(), serial_summary.describe());
  EXPECT_EQ(read_file(sharded.path()), read_file(serial.path()));
  // Shard journals are retired after a successful merge.
  EXPECT_TRUE(shard::existing_shard_paths(sharded.path()).empty());
  // Outcomes carry equivalent records in the same order.
  ASSERT_EQ(sharded_summary.outcomes.size(), serial_summary.outcomes.size());
  for (std::size_t i = 0; i < sharded_summary.outcomes.size(); ++i)
    EXPECT_EQ(sharded_summary.outcomes[i].record.to_json(),
              serial_summary.outcomes[i].record.to_json());
}

TEST(ShardSupervisor, RunsWithoutAJournalToo) {
  SweepEngine engine(sharded_options(2));
  const SweepSummary summary = engine.run(grid(5), fake_report);
  EXPECT_EQ(summary.ok, 5);
  EXPECT_EQ(summary.failed, 0);
  ASSERT_TRUE(summary.outcomes[3].report.has_value());
  EXPECT_GT(summary.outcomes[3].report->predicted_kernel_s, 0.0);
}

TEST(ShardSupervisor, WorkerDeathReassignsTheJobToAFreshWorker) {
  TempPath journal("killonce");
  TempPath marker("killonce_marker");
  const std::vector<JobSpec> jobs = grid(4);
  const std::string kill_marker = marker.with("kill");
  const auto fn = [&](const JobSpec& spec) {
    if (spec.size_label == "size2" && first_time(kill_marker))
      ::raise(SIGKILL);  // First execution takes the whole worker down.
    return fake_report(spec);
  };

  SweepEngine engine(sharded_options(2, journal.path()));
  const SweepSummary summary = engine.run(jobs, fn);
  std::remove(kill_marker.c_str());

  EXPECT_EQ(summary.ok, 4);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.worker_deaths, 1);
  EXPECT_EQ(summary.worker_respawns, 1);
  EXPECT_EQ(summary.quarantined, 0);
  EXPECT_GT(summary.respawn_backoff_s, 0.0);
  // Recovered accounting stays out of describe(): the summary reads the
  // same as an unfaulted run.
  EXPECT_EQ(summary.describe().find("death"), std::string::npos);
}

TEST(ShardSupervisor, PoisonJobIsQuarantinedWhileEveryOtherJobCompletes) {
  TempPath journal("poison");
  // Cross-machine specs: a quarantined record must keep the machine, as
  // an in-process failure of the same spec does.
  std::vector<JobSpec> jobs = grid(6);
  for (JobSpec& spec : jobs) spec.machine = "volta_v100";
  const auto fn = [](const JobSpec& spec) {
    if (spec.size_label == "size3") ::raise(SIGKILL);  // Always fatal.
    return fake_report(spec);
  };

  SweepEngine engine(sharded_options(3, journal.path()));
  const SweepSummary summary = engine.run(jobs, fn);

  EXPECT_EQ(summary.ok, 5);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.quarantined, 1);
  EXPECT_EQ(summary.worker_deaths, 2);  // poison_kill_threshold = 2.

  const JobOutcome* poison = summary.find(jobs[3]);
  ASSERT_NE(poison, nullptr);
  EXPECT_EQ(poison->status, JobStatus::kFailed);
  ASSERT_TRUE(poison->error.has_value());
  EXPECT_EQ(poison->error->kind, ErrorKind::kWorkerDeath);
  EXPECT_NE(poison->error->message.find("quarantined as poison"),
            std::string::npos);
  EXPECT_NE(poison->error->message.find("SIGKILL"), std::string::npos);
  // The quarantine is journaled as a structured failure.
  ASSERT_TRUE(poison->record.error_kind.has_value());
  EXPECT_EQ(*poison->record.error_kind, ErrorKind::kWorkerDeath);
  const JournalReadResult journaled = ResultJournal::read(journal.path());
  EXPECT_EQ(journaled.records.size(), 6u);
  const std::string fingerprint = jobs[3].fingerprint();
  int poison_records = 0;
  for (const std::string& payload : journaled.records) {
    if (payload.find(fingerprint) == std::string::npos) continue;
    ++poison_records;
    EXPECT_NE(payload.find("\"machine\":\"volta_v100\""), std::string::npos)
        << payload;
  }
  EXPECT_EQ(poison_records, 1);
}

TEST(ShardSupervisor, CleanExitMidJobIsStillADeath) {
  const std::vector<JobSpec> jobs = grid(3);
  const auto fn = [](const JobSpec& spec) {
    if (spec.size_label == "size1") ::_exit(7);
    return fake_report(spec);
  };
  SweepEngine engine(sharded_options(2));
  const SweepSummary summary = engine.run(jobs, fn);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 1);
  const JobOutcome* failed = summary.find(JobSpec{"W", "size1", 1});
  ASSERT_NE(failed, nullptr);
  ASSERT_TRUE(failed->error.has_value());
  EXPECT_NE(failed->error->message.find("exited with status 7"),
            std::string::npos);
}

TEST(ShardSupervisor, HeartbeatTimeoutKillsAnInfiniteLoopJob) {
  const std::vector<JobSpec> jobs = grid(4);
  const auto fn = [](const JobSpec& spec) {
    if (spec.size_label == "size1") {
      // The faults:: loop kind: pure silence, never returns or throws.
      faults::FaultPlan plan;
      plan.loop_after = 0;
      faults::FaultEngine(plan).transform(1.0);
    }
    return fake_report(spec);
  };
  SweepOptions options = sharded_options(2);
  options.heartbeat_timeout_s = 0.3;   // Fast test: presume stuck quickly.
  options.poison_kill_threshold = 1;   // One strike: no second chance.
  SweepEngine engine(options);
  const SweepSummary summary = engine.run(jobs, fn);
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.quarantined, 1);
  const JobOutcome* stuck = summary.find(JobSpec{"W", "size1", 1});
  ASSERT_NE(stuck, nullptr);
  ASSERT_TRUE(stuck->error.has_value());
  EXPECT_EQ(stuck->error->kind, ErrorKind::kWorkerDeath);
  EXPECT_NE(stuck->error->message.find("heartbeat"), std::string::npos);
}

TEST(ShardSupervisor, AbortFaultKindTakesDownTheWorker) {
  const std::vector<JobSpec> jobs = grid(3);
  const auto fn = [](const JobSpec& spec) {
    if (spec.size_label == "size0") {
      faults::FaultPlan plan;
      plan.abort_after = 0;
      faults::FaultEngine(plan).transform(1.0);  // std::abort => SIGABRT.
    }
    return fake_report(spec);
  };
  SweepEngine engine(sharded_options(2));
  const SweepSummary summary = engine.run(jobs, fn);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.worker_deaths, 2);
  const JobOutcome* aborted = summary.find(JobSpec{"W", "size0", 1});
  ASSERT_NE(aborted, nullptr);
  ASSERT_TRUE(aborted->error.has_value());
  EXPECT_NE(aborted->error->message.find("SIGABRT"), std::string::npos);
}

TEST(ShardSupervisor, FailedJobsJournalAndReportExactlyLikeInProcess) {
  TempPath serial("fail_serial");
  TempPath sharded("fail_sharded");
  const std::vector<JobSpec> jobs = grid(4);
  // An ordinary thrown failure must NOT kill the worker: the in-worker
  // engine converts it to a failed record, identical to in-process runs.
  const auto fn = [](const JobSpec& spec) -> core::ProjectionReport {
    if (spec.size_label == "size2")
      throw CalibrationError("scripted permanent failure");
    return fake_report(spec);
  };

  SweepOptions serial_options = sharded_options(0, serial.path());
  serial_options.workers = 1;
  SweepEngine serial_engine(serial_options);
  const SweepSummary serial_summary = serial_engine.run(jobs, fn);
  SweepEngine sharded_engine(sharded_options(2, sharded.path()));
  const SweepSummary sharded_summary = sharded_engine.run(jobs, fn);

  EXPECT_EQ(sharded_summary.failed, 1);
  EXPECT_EQ(sharded_summary.worker_deaths, 0);
  EXPECT_EQ(sharded_summary.describe(), serial_summary.describe());
  EXPECT_EQ(read_file(sharded.path()), read_file(serial.path()));
}

// --- the merge ---

TEST(ShardMerge, LeftoverShardRecordsAreRecoveredMergedAndRetired) {
  TempPath journal("merge");
  const std::vector<JobSpec> jobs = grid(3);

  // A previous supervisor was killed: worker 1 had made job "size1"
  // durable in its shard journal, but the merge never ran.
  const JobRecord durable =
      JobRecord::from_report(jobs[1], fake_report(jobs[1]), 1, 0.0);
  {
    ResultJournal shard_journal;
    shard_journal.open_append(shard::shard_path(journal.path(), 1));
    shard_journal.append(durable.to_json());
  }

  SweepEngine engine(sharded_options(2, journal.path()));
  const SweepSummary summary = engine.run(jobs, fake_report);

  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.resumed, 1);  // Recovered from the shard, not re-run.
  EXPECT_EQ(summary.outcomes[1].status, JobStatus::kResumed);
  EXPECT_TRUE(shard::existing_shard_paths(journal.path()).empty());

  // The merged canonical journal is byte-identical to a clean
  // single-process run of the same grid: recovery is invisible.
  TempPath clean("merge_clean");
  SweepOptions clean_options = sharded_options(0, clean.path());
  clean_options.workers = 1;
  SweepEngine clean_engine(clean_options);
  clean_engine.run(jobs, fake_report);
  EXPECT_EQ(read_file(journal.path()), read_file(clean.path()));
}

TEST(ShardMerge, EmptySweepLeavesLeftoverShardJournalsAlone) {
  TempPath journal("empty");
  const std::vector<JobSpec> jobs = grid(1);
  {
    ResultJournal shard_journal;
    shard_journal.open_append(shard::shard_path(journal.path(), 0));
    shard_journal.append(
        JobRecord::from_report(jobs[0], fake_report(jobs[0]), 1, 0.0)
            .to_json());
  }

  // Nothing runs, so nothing is recovered, merged or retired.
  SweepEngine engine(sharded_options(2, journal.path()));
  const SweepSummary summary = engine.run({}, fake_report);
  EXPECT_TRUE(summary.outcomes.empty());
  EXPECT_EQ(read_file(journal.path()), "");
  EXPECT_EQ(shard::existing_shard_paths(journal.path()).size(), 1u);
}

TEST(ShardMerge, InteriorShardCorruptionIsLoudInTheSummary) {
  TempPath journal("interior");
  const std::vector<JobSpec> jobs = grid(3);

  // A damaged leftover shard: a corrupt line FOLLOWED by a valid one —
  // impossible as a crash artifact, so it must be called out.
  {
    ResultJournal shard_journal;
    shard_journal.open_append(shard::shard_path(journal.path(), 0));
    shard_journal.append(
        JobRecord::from_report(jobs[0], fake_report(jobs[0]), 1, 0.0)
            .to_json());
    shard_journal.append(
        JobRecord::from_report(jobs[1], fake_report(jobs[1]), 1, 0.0)
            .to_json());
  }
  const std::string shard_file = shard::shard_path(journal.path(), 0);
  std::string contents = read_file(shard_file);
  contents[10] ^= 0x20;  // Flip a bit in the first line.
  {
    std::ofstream out(shard_file, std::ios::trunc | std::ios::binary);
    out << contents;
  }

  SweepEngine engine(sharded_options(2, journal.path()));
  const SweepSummary summary = engine.run(jobs, fake_report);
  EXPECT_EQ(summary.journal_corrupt_interior, 1);
  EXPECT_NE(summary.describe().find("INTERIOR"), std::string::npos);
  // The damaged record's job was simply re-run; nothing was lost.
  EXPECT_EQ(summary.ok + summary.resumed, 3);
  EXPECT_EQ(summary.failed, 0);
}

TEST(ShardMerge, ResumeSkipsCanonicalRecordsWithoutRewritingThem) {
  TempPath journal("resume");
  const std::vector<JobSpec> jobs = grid(4);

  SweepEngine first(sharded_options(2, journal.path()));
  const SweepSummary first_summary = first.run(jobs, fake_report);
  EXPECT_EQ(first_summary.ok, 4);
  const std::string after_first = read_file(journal.path());

  SweepEngine second(sharded_options(2, journal.path()));
  const SweepSummary second_summary = second.run(jobs, fake_report);
  EXPECT_EQ(second_summary.resumed, 4);
  EXPECT_EQ(second_summary.ok, 0);
  // Nothing is re-journaled on a fully-resumed sweep.
  EXPECT_EQ(read_file(journal.path()), after_first);
}

}  // namespace
}  // namespace grophecy::exec
