// Unit tests for the utility layer: RNG determinism and distribution
// sanity, statistics (the paper's error-magnitude definition), units,
// tables, CSV quoting, contract checking, and the logger's level check.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/contracts.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace grophecy::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i)
    counts[static_cast<std::size_t>(rng.uniform_int(0, 5))]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, NormalMomentsAreRight) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalMedianIsParameter) {
  Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal(5.0, 0.3));
  EXPECT_NEAR(median(samples), 5.0, 0.1);
  for (double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Rng, LognormalZeroSigmaIsDeterministic) {
  Rng rng(17);
  EXPECT_DOUBLE_EQ(rng.lognormal(3.5, 0.0), 3.5);
}

TEST(Rng, FillNormalIsBitwiseTheSequentialStream) {
  // One bulk fill must equal the same number of sequential normal()
  // draws exactly — the cohort engine batches its jitter draws and
  // promises a bitwise-unchanged stream.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{64}, std::size_t{1001}}) {
    Rng sequential(42);
    Rng bulk(42);
    std::vector<double> expect(n);
    for (double& v : expect) v = sequential.normal();
    std::vector<double> got(n);
    bulk.fill_normal(got.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(expect[i], got[i]) << "n=" << n << " i=" << i;
    // The generators stay in lockstep afterwards (including the
    // Box-Muller pair cache: odd n leaves one value cached).
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(sequential.normal(), bulk.normal());
    ASSERT_EQ(sequential.next_u64(), bulk.next_u64());
  }
}

TEST(Rng, FillNormalSplitsAreBitwiseInvariant) {
  // Any split of one stream into fills and single draws produces the
  // same sequence: a fill may start by consuming a cached normal and end
  // by leaving one behind.
  constexpr std::size_t kTotal = 256;
  Rng sequential(99);
  std::vector<double> expect(kTotal);
  for (double& v : expect) v = sequential.normal();

  const std::vector<std::vector<std::size_t>> splits = {
      {kTotal},
      {1, kTotal - 1},          // fill starts on a cached value
      {3, 5, kTotal - 8},       // odd chunks: every boundary hits the cache
      {128, 128},
      {7, 1, 1, 9, kTotal - 18},
  };
  for (const auto& split : splits) {
    Rng rng(99);
    std::vector<double> got;
    got.reserve(kTotal);
    for (const std::size_t chunk : split) {
      std::vector<double> buf(chunk);
      rng.fill_normal(buf.data(), chunk);
      got.insert(got.end(), buf.begin(), buf.end());
    }
    ASSERT_EQ(got.size(), kTotal);
    for (std::size_t i = 0; i < kTotal; ++i)
      ASSERT_EQ(expect[i], got[i]) << "i=" << i;
  }

  // Mixing single draws between fills also keeps the stream intact.
  Rng mixed(99);
  std::vector<double> got;
  std::vector<double> buf(100);
  mixed.fill_normal(buf.data(), 3);
  got.insert(got.end(), buf.begin(), buf.begin() + 3);
  got.push_back(mixed.normal());
  mixed.fill_normal(buf.data(), 100);
  got.insert(got.end(), buf.begin(), buf.begin() + 100);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(expect[i], got[i]) << "i=" << i;
}

TEST(Rng, FillLognormalIsBitwiseTheSequentialStream) {
  constexpr std::size_t kTotal = 333;  // odd: exercises the cache tail
  Rng sequential(7);
  std::vector<double> expect(kTotal);
  for (double& v : expect) v = sequential.lognormal(2.5, 0.4);
  Rng bulk(7);
  std::vector<double> got(kTotal);
  bulk.fill_lognormal(2.5, 0.4, got.data(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_EQ(expect[i], got[i]) << "i=" << i;
  ASSERT_EQ(sequential.lognormal(2.5, 0.4), bulk.lognormal(2.5, 0.4));
}

TEST(Rng, FillZeroLengthLeavesTheStreamUntouched) {
  Rng a(5);
  Rng b(5);
  a.fill_normal(nullptr, 0);
  a.fill_lognormal(1.0, 0.1, nullptr, 0);
  ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiscardNormalsEqualsThatManyNormalCalls) {
  std::vector<std::uint64_t> counts;
  for (std::uint64_t n = 0; n <= 64; ++n) counts.push_back(n);
  counts.push_back(262145);  // one jittered run of a 262,144-block grid
  for (const bool cached : {false, true}) {
    for (const std::uint64_t n : counts) {
      Rng drawn(2024);
      Rng skipped(2024);
      if (cached) {
        // Each draws one pair and keeps its second value cached.
        (void)drawn.normal();
        (void)skipped.normal();
      }
      for (std::uint64_t i = 0; i < n; ++i) (void)drawn.normal();
      skipped.discard_normals(n);
      // Three draws read the cache left behind and a fresh pair.
      for (int i = 0; i < 3; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(drawn.normal()),
                  std::bit_cast<std::uint64_t>(skipped.normal()))
            << "n=" << n << " cached=" << cached << " draw " << i;
      ASSERT_EQ(drawn.next_u64(), skipped.next_u64())
          << "n=" << n << " cached=" << cached;
    }
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.2, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(23);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ContractsRejectBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.lognormal(-1.0, 0.1), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Stats, MeanMedianBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
}

TEST(Stats, StddevMatchesHandComputation) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1.0, 10.0, 100.0};
  EXPECT_NEAR(geometric_mean(v), 10.0, 1e-9);
  const std::vector<double> bad{1.0, -2.0};
  EXPECT_THROW(geometric_mean(bad), ContractViolation);
}

TEST(Stats, ErrorMagnitudeIsPaperDefinition) {
  // |predicted - measured| / measured * 100 (paper §V-A).
  EXPECT_DOUBLE_EQ(error_magnitude_percent(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(error_magnitude_percent(90.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_difference(90.0, 100.0), -10.0);
  EXPECT_THROW(error_magnitude_percent(1.0, 0.0), ContractViolation);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(29);
  std::vector<double> v;
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    v.push_back(x);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), mean(v), 1e-9);
  EXPECT_NEAR(stats.stddev(), stddev(v), 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), min_value(v));
  EXPECT_DOUBLE_EQ(stats.max(), max_value(v));
}

TEST(Stats, LeastSquaresRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, MadMatchesHandComputation) {
  // median = 3, absolute deviations {2, 1, 0, 1, 6} => MAD = 1.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 9.0};
  EXPECT_DOUBLE_EQ(mad(v), 1.0);
  const std::vector<double> constant{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(mad(constant), 0.0);
}

TEST(Stats, MadFilterDropsOnlyTheOutliers) {
  // A tight cluster plus one wild point: modified z-score of 100 is huge.
  const std::vector<double> v{10.0, 10.2, 9.8, 10.1, 9.9, 100.0};
  const std::vector<double> kept = mad_filter(v, 3.5);
  ASSERT_EQ(kept.size(), 5u);
  for (double x : kept) EXPECT_LT(x, 11.0);
  // Degenerate spread (MAD == 0) must not divide by zero or drop anything.
  const std::vector<double> constant{5.0, 5.0, 5.0, 7.0};
  EXPECT_EQ(mad_filter(constant, 3.5).size(), constant.size());
}

TEST(Stats, TrimmedMeanDiscardsTheTails) {
  const std::vector<double> v{0.0, 10.0, 10.0, 10.0, 1000.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.2), 10.0);  // trims one from each end
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.0), mean(v));
}

TEST(Stats, TheilSenShrugsOffOutliersLeastSquaresCannot) {
  std::vector<double> x, y;
  for (int i = 0; i < 30; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  y[5] = 500.0;  // one corrupted observation
  y[20] = -100.0;
  const LinearFit robust = theil_sen(x, y);
  EXPECT_NEAR(robust.slope, 2.0, 1e-9);
  EXPECT_NEAR(robust.intercept, 3.0, 1e-9);
  const LinearFit naive = least_squares(x, y);
  EXPECT_GT(std::abs(naive.slope - 2.0), 0.1);
}

TEST(Units, ByteFormatting) {
  EXPECT_EQ(format_bytes(1), "1B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2KB");
  EXPECT_EQ(format_bytes(512 * kMiB), "512MB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3.00GB");
}

TEST(Units, TimeFormatting) {
  EXPECT_EQ(format_time(12e-6), "12.00 us");
  EXPECT_EQ(format_time(3.5e-3), "3.50 ms");
  EXPECT_EQ(format_time(2.0), "2.00 s");
}

TEST(Units, Bandwidth) {
  EXPECT_DOUBLE_EQ(bandwidth_gbps(2.5e9, 1.0), 2.5);
  EXPECT_THROW(bandwidth_gbps(1.0, 0.0), ContractViolation);
}

TEST(Table, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | "), std::string::npos);
  EXPECT_NE(out.find("|    22 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), ContractViolation);
}

TEST(Table, Strfmt) {
  EXPECT_EQ(strfmt("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(strfmt("%d/%d", 3, 4), "3/4");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_row({"a", "b,c"});
  EXPECT_EQ(oss.str(), "a,\"b,c\"\n");
}

TEST(Contracts, ViolationMessageNamesLocation) {
  try {
    GROPHECY_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

// --- GROPHECY_LOG ---

/// Sets the log threshold for one test and restores it after.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : saved_(log_level()) {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Logging, LineBelowTheThresholdEvaluatesNoOperand) {
  const ScopedLogLevel level(LogLevel::kWarn);
  int evaluated = 0;
  const auto operand = [&] {
    ++evaluated;
    return "operand";
  };
  testing::internal::CaptureStderr();
  GROPHECY_LOG(kInfo) << operand() << ' ' << operand();
  GROPHECY_LOG(kDebug) << operand();
  GROPHECY_LOG(kOff) << operand();
  EXPECT_EQ(evaluated, 0);
  GROPHECY_LOG(kWarn) << operand() << ' ' << 7;
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[warn] operand 7\n");
}

// An `if` inside the macro would steal the caller's `else`; the pragma
// turns GCC's warning for that into an error in this test.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wdangling-else"
TEST(Logging, MacroIsASafeUnbracedIfElseBody) {
  const ScopedLogLevel level(LogLevel::kError);
  testing::internal::CaptureStderr();
  int else_taken = 0;
  for (const bool shown : {true, false}) {
    if (shown)
      GROPHECY_LOG(kError) << "shown";
    else
      ++else_taken;
  }
  if (else_taken == 1) GROPHECY_LOG(kError) << "bare if";
  EXPECT_EQ(else_taken, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[error] shown\n[error] bare if\n");
}
#pragma GCC diagnostic pop

}  // namespace
}  // namespace grophecy::util
