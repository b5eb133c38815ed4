// Tests for the crash-safe result journal and its building blocks: CRC-32
// checksums, the flat-JSON codec, the checksummed line format, torn-write
// tolerance (the acceptance scenario: killing a sweep mid-append loses at
// most the in-flight record), and JobRecord round-tripping.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/report.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "util/checksum.h"
#include "util/jsonl.h"
#include "util/rng.h"
#include "util/table.h"

namespace grophecy::exec {
namespace {

namespace fs = std::filesystem;

/// A unique temp file path, removed when the fixture dies.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("grophecy_journal_test_" + name +
                std::to_string(::getpid()) + ".jsonl"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- CRC-32 ---

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32_hex("123456789"), "cbf43926");
}

TEST(Crc32, EmptyAndSensitivity) {
  EXPECT_EQ(util::crc32(""), 0u);
  EXPECT_NE(util::crc32("abc"), util::crc32("abd"));
  EXPECT_NE(util::crc32("abc"), util::crc32("acb"));
}

// crc32_hex and JobSpec::fingerprint write their hex digits without
// printf; the bytes must be exactly what "%08x" and "%016llx" print.
TEST(Crc32, HexDigitsAreExactlyPrintfs) {
  for (const std::uint32_t value :
       {0u, 1u, 0xfu, 0x10u, 0xffu, 0x100u, 0xabcdefu, 0x0fffffffu,
        0x10000000u, 0x7fffffffu, 0x80000000u, 0xfffffffeu, 0xffffffffu})
    EXPECT_EQ(util::hex_digits(value, 8), util::strfmt("%08x", value));
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xffffffff},
        std::uint64_t{1} << 63, ~std::uint64_t{0}})
    EXPECT_EQ(util::hex_digits(value, 16),
              util::strfmt("%016llx", static_cast<unsigned long long>(value)));
  util::Rng rng(29);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t value = rng.next_u64();
    ASSERT_EQ(util::hex_digits(value, 8),
              util::strfmt("%08x", static_cast<std::uint32_t>(value)));
    ASSERT_EQ(util::hex_digits(value, 16),
              util::strfmt("%016llx", static_cast<unsigned long long>(value)));
  }
  std::string payload;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(util::crc32_hex(payload),
              util::strfmt("%08x", util::crc32(payload)));
    payload.push_back(static_cast<char>(rng.next_u64()));
  }
}

// --- flat JSON ---

TEST(FlatJson, RoundTripsEveryScalarType) {
  util::FlatJson object;
  object.emplace_back("name", std::string("CFD \"97K\"\n\ttab\\slash"));
  object.emplace_back("value", 3.14159265358979);
  object.emplace_back("negative", -1e-9);
  object.emplace_back("flag", true);
  object.emplace_back("off", false);

  const std::string text = util::write_flat_json(object);
  const auto parsed = util::parse_flat_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*util::json_string(*parsed, "name"), "CFD \"97K\"\n\ttab\\slash");
  EXPECT_EQ(*util::json_number(*parsed, "value"), 3.14159265358979);
  EXPECT_EQ(*util::json_number(*parsed, "negative"), -1e-9);
  EXPECT_EQ(*util::json_bool(*parsed, "flag"), true);
  EXPECT_EQ(*util::json_bool(*parsed, "off"), false);
}

TEST(FlatJson, RejectsMalformedInputWithoutThrowing) {
  EXPECT_FALSE(util::parse_flat_json("").has_value());
  EXPECT_FALSE(util::parse_flat_json("{").has_value());
  EXPECT_FALSE(util::parse_flat_json("{\"a\":1").has_value());
  EXPECT_FALSE(util::parse_flat_json("{\"a\":}").has_value());
  EXPECT_FALSE(util::parse_flat_json("{\"a\":nan}").has_value());
  EXPECT_FALSE(util::parse_flat_json("{\"a\":[1,2]}").has_value());  // nested
  EXPECT_FALSE(util::parse_flat_json("{\"a\":{\"b\":1}}").has_value());
  EXPECT_FALSE(util::parse_flat_json("{\"a\":1} trailing").has_value());
  EXPECT_TRUE(util::parse_flat_json("{}").has_value());
  EXPECT_TRUE(util::parse_flat_json(" {\"a\": 1 } ").has_value());
}

/// The doubles the writer pins: 1M raw bit patterns from util::Rng (every
/// exponent, NaN payloads included), dyadic values, every power of two,
/// integers up to 2^53, and the edges (signed zeros, subnormals,
/// DBL_MIN, denorm_min, ±DBL_MAX, ±inf, NaN).
std::vector<double> writer_doubles() {
  std::vector<double> values;
  util::Rng rng(0x5eed);
  for (int i = 0; i < 1'000'000; ++i)
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  for (int i = 0; i < 20'000; ++i) {
    const auto mantissa = static_cast<double>(rng.uniform_int(-(1LL << 53), 1LL << 53));
    values.push_back(std::ldexp(mantissa, static_cast<int>(rng.uniform_int(-1074, 971))));
    values.push_back(static_cast<double>(rng.uniform_int(0, 1LL << 53)));
    values.push_back(static_cast<double>(rng.uniform_int(-1'000'000, 1'000'000)));
  }
  for (int exponent = -1074; exponent <= 1023; ++exponent)
    values.push_back(std::ldexp(1.0, exponent));
  for (std::int64_t k = 0; k <= 4096; ++k) {
    values.push_back(static_cast<double>((1LL << 53) - k));
    values.push_back(static_cast<double>(k));
  }
  using limits = std::numeric_limits<double>;
  for (double edge : {0.0, limits::denorm_min(), limits::min(),
                      limits::min() - limits::denorm_min(), limits::max(),
                      limits::infinity(), limits::quiet_NaN(), 0.1, 1.0 / 3.0})
    values.insert(values.end(), {edge, -edge});
  return values;
}

TEST(FlatJson, NumbersAreWrittenExactlyAsPrintfPercent17g) {
  // e2ebench's output check builds its expected bytes with this same
  // writer, so only a test against printf itself pins the journal bytes.
  for (double value : writer_doubles()) {
    const std::string text = util::write_flat_json({{"x", value}});
    ASSERT_EQ(text, "{\"x\":" + util::strfmt("%.17g", value) + "}")
        << "bits " << std::bit_cast<std::uint64_t>(value);
  }
}

TEST(FlatJson, WriteThenParseReturnsEveryFiniteDoubleBitExactly) {
  for (double value : writer_doubles()) {
    if (!std::isfinite(value)) continue;
    const auto parsed =
        util::parse_flat_json(util::write_flat_json({{"x", value}}));
    ASSERT_TRUE(parsed.has_value());
    const auto number = util::json_number(*parsed, "x");
    ASSERT_TRUE(number.has_value());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*number),
              std::bit_cast<std::uint64_t>(value));
  }
}

TEST(FlatJson, EscapesEveryControlByteQuoteAndBackslashToAPinnedLiteral) {
  std::string text;
  for (char byte = 0x01; byte <= 0x1f; ++byte) text += byte;
  text += "\"\\";
  EXPECT_EQ(util::write_flat_json({{text, text}}),
            R"({"\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r)"
            R"(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\":)"
            R"("\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r)"
            R"(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\"})");
  const auto parsed = util::parse_flat_json(util::write_flat_json({{"s", text}}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*util::json_string(*parsed, "s"), text);
}

// --- the journal itself ---

TEST(ResultJournal, MissingFileIsAnEmptyJournal) {
  const JournalReadResult result = ResultJournal::read("/nonexistent/nope");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.corrupt_lines, 0);
}

TEST(ResultJournal, AppendThenReadRoundTrips) {
  TempFile file("roundtrip");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"a\":1}");
    journal.append("{\"b\":\"two\"}");
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0], "{\"a\":1}");
  EXPECT_EQ(result.records[1], "{\"b\":\"two\"}");
  EXPECT_EQ(result.corrupt_lines, 0);
}

TEST(ResultJournal, ReopenAppendsAfterExistingRecords) {
  TempFile file("reopen");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"run\":1}");
  }
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"run\":2}");
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[1], "{\"run\":2}");
}

TEST(ResultJournal, TornFinalLineLosesOnlyTheInFlightRecord) {
  TempFile file("torn");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
    journal.append("{\"job\":3}");
  }
  // Simulate a crash mid-append: chop the file mid-way through the last
  // record (no trailing newline, checksum incomplete).
  const auto size = fs::file_size(file.path());
  fs::resize_file(file.path(), size - 7);

  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0], "{\"job\":1}");
  EXPECT_EQ(result.records[1], "{\"job\":2}");
  EXPECT_EQ(result.corrupt_lines, 1);
}

// Reopening after a crash cuts the torn line, so the next record starts a
// fresh line instead of being glued onto the torn one and lost with it.
TEST(ResultJournal, ReopenAfterATornTailStartsAFreshLine) {
  TempFile file("reopen_torn");
  TempFile clean("reopen_clean");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
    journal.append("{\"job\":3}");
  }
  fs::resize_file(file.path(), fs::file_size(file.path()) - 7);
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":4}");
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[2], "{\"job\":4}");
  EXPECT_EQ(result.corrupt_lines, 0);

  // Byte for byte what an uninterrupted writer leaves.
  {
    ResultJournal journal;
    journal.open_append(clean.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
    journal.append("{\"job\":4}");
  }
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(file.path()), bytes(clean.path()));

  // A file that is nothing but a torn line is cut to empty.
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out << "{\"crc\":\"12";
  }
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":5}");
  }
  const JournalReadResult rewritten = ResultJournal::read(file.path());
  ASSERT_EQ(rewritten.records.size(), 1u);
  EXPECT_EQ(rewritten.corrupt_lines, 0);
}

TEST(ResultJournal, FramedGroupReadsBackAsItsRecords) {
  TempFile file("framed");
  std::string group;
  for (int i = 0; i < 3; ++i)
    ResultJournal::frame(group, "{\"job\":" + std::to_string(i) + "}");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append_framed(group, /*sync_now=*/true);
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(result.records[static_cast<std::size_t>(i)],
              "{\"job\":" + std::to_string(i) + "}");
  EXPECT_EQ(result.corrupt_lines, 0);
}

TEST(ResultJournal, BitFlipInAnyRecordIsDetected) {
  TempFile file("bitflip");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
  }
  std::string contents;
  {
    std::ifstream in(file.path());
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one payload character of the first record.
  const auto at = contents.find("\"job\":1");
  ASSERT_NE(at, std::string::npos);
  contents[at + 6] = '7';
  {
    std::ofstream out(file.path(), std::ios::trunc);
    out << contents;
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], "{\"job\":2}");
  EXPECT_EQ(result.corrupt_lines, 1);
}

// --- tail vs interior corruption classification ---
// A torn *final* line is the expected crash artifact of the append-only
// writer; an invalid line *followed by further valid lines* can only mean
// the file was damaged after it was written. The read result reports the
// two separately so callers can stay calm about the former and loud about
// the latter.

TEST(ResultJournal, TornFinalLineIsTailCorruptionNotInterior) {
  TempFile file("tail_class");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
  }
  fs::resize_file(file.path(), fs::file_size(file.path()) - 5);
  const JournalReadResult result = ResultJournal::read(file.path());
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.corrupt_lines, 1);
  EXPECT_EQ(result.corrupt_tail, 1);
  EXPECT_EQ(result.corrupt_interior, 0);
}

TEST(ResultJournal, DamagedMiddleLineIsInteriorCorruption) {
  TempFile file("interior_class");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
    journal.append("{\"job\":3}");
  }
  std::string contents;
  {
    std::ifstream in(file.path());
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto at = contents.find("\"job\":2");
  ASSERT_NE(at, std::string::npos);
  contents[at + 6] = '9';
  {
    std::ofstream out(file.path(), std::ios::trunc);
    out << contents;
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.corrupt_lines, 1);
  EXPECT_EQ(result.corrupt_tail, 0);
  EXPECT_EQ(result.corrupt_interior, 1);
}

TEST(ResultJournal, InteriorDamagePlusTornTailCountsBoth) {
  TempFile file("both_class");
  {
    ResultJournal journal;
    journal.open_append(file.path());
    journal.append("{\"job\":1}");
    journal.append("{\"job\":2}");
    journal.append("{\"job\":3}");
  }
  std::string contents;
  {
    std::ifstream in(file.path());
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto at = contents.find("\"job\":1");
  ASSERT_NE(at, std::string::npos);
  contents[at + 6] = '8';
  contents.resize(contents.size() - 5);  // And tear the final line.
  {
    std::ofstream out(file.path(), std::ios::trunc);
    out << contents;
  }
  const JournalReadResult result = ResultJournal::read(file.path());
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], "{\"job\":2}");
  EXPECT_EQ(result.corrupt_lines, 2);
  EXPECT_EQ(result.corrupt_tail, 1);
  EXPECT_EQ(result.corrupt_interior, 1);
}

// --- real process death (not simulated truncation) ---
// The torn-tail contract stated with actual processes: fork a child that
// appends records, kill it with SIGKILL (or have it _exit mid-line), and
// verify the parent reads a valid prefix with at most a torn tail. No
// gtest assertions run in the children — a child that misbehaves shows up
// as a wrong journal in the parent.

TEST(JournalProcessDeath, SigkillMidAppendLoopLeavesAValidPrefix) {
  TempFile file("sigkill");
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(ready[0]);
    ResultJournal journal;
    journal.open_append(file.path());
    for (int i = 0;; ++i) {
      journal.append("{\"job\":" + std::to_string(i) + "}");
      if (i == 3) {
        // Tell the parent at least four records are durable; keep
        // appending until the SIGKILL lands mid-loop.
        const char byte = 'g';
        (void)!::write(ready[1], &byte, 1);
      }
    }
  }
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_GE(result.records.size(), 4u);
  // Every surviving record is exactly what was appended, in order: the
  // kill cost at most the one in-flight line.
  for (std::size_t i = 0; i < result.records.size(); ++i)
    EXPECT_EQ(result.records[i], "{\"job\":" + std::to_string(i) + "}");
  EXPECT_LE(result.corrupt_tail, 1);
  EXPECT_EQ(result.corrupt_interior, 0);
}

TEST(JournalProcessDeath, ExitMidLineLeavesOnlyATornTail) {
  TempFile file("midline");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    {
      ResultJournal journal;
      journal.open_append(file.path());
      journal.append("{\"job\":0}");
      journal.append("{\"job\":1}");
    }
    // Now die half-way through a raw third line: checksum prefix written,
    // record and newline never make it.
    const int fd = ::open(file.path().c_str(), O_WRONLY | O_APPEND);
    if (fd >= 0) (void)!::write(fd, "{\"crc\":\"dead", 12);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const JournalReadResult result = ResultJournal::read(file.path());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0], "{\"job\":0}");
  EXPECT_EQ(result.records[1], "{\"job\":1}");
  EXPECT_EQ(result.corrupt_lines, 1);
  EXPECT_EQ(result.corrupt_tail, 1);
  EXPECT_EQ(result.corrupt_interior, 0);
}

// --- JobSpec fingerprints ---

TEST(JobSpec, FingerprintIsDeterministicAndDiscriminates) {
  const JobSpec a{"CFD", "97K", 1};
  EXPECT_EQ(a.fingerprint(), (JobSpec{"CFD", "97K", 1}).fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 16u);
  EXPECT_NE(a.fingerprint(), (JobSpec{"CFD", "97K", 2}).fingerprint());
  EXPECT_NE(a.fingerprint(), (JobSpec{"CFD", "193K", 1}).fingerprint());
  EXPECT_NE(a.fingerprint(), (JobSpec{"SRAD", "97K", 1}).fingerprint());
  // The separator keeps concatenation ambiguities apart.
  EXPECT_NE((JobSpec{"ab", "c", 1}).fingerprint(),
            (JobSpec{"a", "bc", 1}).fingerprint());
}

// --- JobRecord ---

core::ProjectionReport sample_report() {
  core::ProjectionReport report;
  report.app_name = "CFD 97K";
  report.machine_name = "anl_eureka";
  report.iterations = 4;
  report.predicted_kernel_s = 0.0123;
  report.measured_kernel_s = 0.0119;
  report.predicted_transfer_s = 0.0456;
  report.measured_transfer_s = 0.0441;
  report.measured_cpu_s = 0.321;
  report.calibration.used_fallback = false;
  return report;
}

TEST(JobRecord, JsonRoundTripPreservesEverything) {
  const JobSpec spec{"CFD", "97K", 4};
  const JobRecord record =
      JobRecord::from_report(spec, sample_report(), 2, 0.75);
  const auto parsed = JobRecord::from_json(record.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint, spec.fingerprint());
  EXPECT_EQ(parsed->workload, "CFD");
  EXPECT_EQ(parsed->size_label, "97K");
  EXPECT_EQ(parsed->iterations, 4);
  EXPECT_EQ(parsed->status, RecordStatus::kOk);
  EXPECT_EQ(parsed->attempts, 2);
  EXPECT_EQ(parsed->elapsed_s, 0.75);
  EXPECT_EQ(parsed->machine, "anl_eureka");
  EXPECT_EQ(parsed->predicted_kernel_s, 0.0123);
  EXPECT_EQ(parsed->measured_cpu_s, 0.321);
  EXPECT_FALSE(parsed->calibration_fallback);
}

TEST(JobRecord, FailedRecordRoundTripsTheError) {
  JobRecord record;
  record.fingerprint = JobSpec{"CFD", "97K", 1}.fingerprint();
  record.workload = "CFD";
  record.size_label = "97K";
  record.iterations = 1;
  record.status = RecordStatus::kFailed;
  record.attempts = 4;
  record.elapsed_s = 1.5;
  record.error_kind = ErrorKind::kCalibration;
  record.error_message = "probe budget exhausted: \"broken link\"";
  const auto parsed = JobRecord::from_json(record.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, RecordStatus::kFailed);
  EXPECT_EQ(parsed->error_kind, ErrorKind::kCalibration);
  EXPECT_EQ(parsed->error_message, "probe budget exhausted: \"broken link\"");
}

TEST(JobRecord, RejectsMalformedPayloads) {
  EXPECT_FALSE(JobRecord::from_json("not json").has_value());
  EXPECT_FALSE(JobRecord::from_json("{}").has_value());
  EXPECT_FALSE(
      JobRecord::from_json("{\"fp\":\"x\",\"status\":\"weird\"}").has_value());
}

TEST(JobRecord, ReconstructedReportMatchesEveryDerivedMetric) {
  const core::ProjectionReport original = sample_report();
  const JobSpec spec{"CFD", "97K", 4};
  const JobRecord record = JobRecord::from_report(spec, original, 1, 0.1);
  const core::ProjectionReport rebuilt = record.to_report();

  EXPECT_EQ(rebuilt.app_name, original.app_name);
  EXPECT_EQ(rebuilt.iterations, original.iterations);
  EXPECT_DOUBLE_EQ(rebuilt.measured_speedup(), original.measured_speedup());
  EXPECT_DOUBLE_EQ(rebuilt.predicted_speedup_both(),
                   original.predicted_speedup_both());
  EXPECT_DOUBLE_EQ(rebuilt.predicted_speedup_kernel_only(),
                   original.predicted_speedup_kernel_only());
  EXPECT_DOUBLE_EQ(rebuilt.speedup_error_both_pct(),
                   original.speedup_error_both_pct());
  EXPECT_DOUBLE_EQ(rebuilt.speedup_error_limit_pct(),
                   original.speedup_error_limit_pct());
  EXPECT_DOUBLE_EQ(rebuilt.measured_speedup_limit(),
                   original.measured_speedup_limit());
}

}  // namespace
}  // namespace grophecy::exec
