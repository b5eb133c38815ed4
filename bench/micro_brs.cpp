// micro_brs — BRS section-algebra throughput benchmark.
//
// Measures build-and-query rounds/second of the sorted-window SectionSet
// (brs/section_set.h) against the pinned pre-rewrite ReferenceSectionSet
// (linear scans, member-by-member subtraction) and emits a
// machine-readable BENCH_brs.json for scripts/bench_compare (the CI
// perf-smoke gate).
//
//   ./build/bench/micro_brs [--out FILE] [--quick]
//
// One round = add `n` sections to a fresh set, run `n` covers queries
// (half covered sub-ranges, half uncovered spans), then subtract a wide
// query from the set — the exact call mix the data-usage analyzer issues
// while tracking device-resident sections (paper §III-B). Both
// implementations run identical deterministic section sequences, so the
// fast/reference speedup isolates the algorithmic change. bench_compare
// gates on the speedups — they are machine-portable, unlike absolute
// throughput, which it only tracks as a warning. See docs/performance.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "brs/section.h"
#include "brs/section_set.h"
#include "skeleton/skeleton.h"
#include "support/reference_section_set.h"
#include "util/rng.h"

namespace {

using namespace grophecy;

/// One pre-generated workload: the sections to add, the covers probes,
/// and the wide subtraction query, shared verbatim by both
/// implementations.
struct Round {
  std::vector<brs::Section> adds;
  std::vector<brs::Section> probes;
  brs::Section wide;
};

brs::Section make_section(const skeleton::ArrayDecl& decl, std::int64_t lo,
                          std::int64_t hi, std::int64_t stride = 1) {
  brs::Section s = brs::Section::whole(0, decl);
  s.whole_array = false;
  s.dims[0] = brs::DimSection::range(lo, hi, stride);
  return s;
}

/// `n` disjoint, non-adjacent chunks in shuffled insertion order — no
/// pair merges, so the set holds `n` members (the worst case for the
/// reference's linear scans).
Round chunk_round(const skeleton::ArrayDecl& decl, int n, util::Rng& rng) {
  const std::int64_t chunk = 64;
  Round round;
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  for (const std::int64_t i : order) {
    const std::int64_t lo = i * 2 * chunk;  // gap keeps unions inexact
    round.adds.push_back(make_section(decl, lo, lo + chunk - 1));
  }
  for (int i = 0; i < n; ++i) {
    const std::int64_t pick = rng.uniform_int(0, n - 1);
    const std::int64_t lo = pick * 2 * chunk;
    if (i % 2 == 0) {
      // Covered: a sub-range of one member.
      round.probes.push_back(make_section(decl, lo + 8, lo + chunk - 9));
    } else {
      // Uncovered: spans the gap into the next chunk.
      round.probes.push_back(make_section(decl, lo + 8, lo + chunk + 8));
    }
  }
  round.wide = make_section(decl, 0, n * 2 * chunk - 1);
  return round;
}

/// `n` strided sections with random phases — unions are mostly inexact,
/// and every operation exercises the stride-aware containment checks.
Round strided_round(const skeleton::ArrayDecl& decl, int n, util::Rng& rng) {
  const std::int64_t span = 256;
  Round round;
  for (int i = 0; i < n; ++i) {
    const std::int64_t lo = rng.uniform_int(0, n * 32);
    round.adds.push_back(make_section(decl, lo, lo + span, 4));
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const brs::DimSection& d = round.adds[pick].dims[0];
    if (i % 2 == 0) {
      // Covered: a stride-aligned sub-range of one member.
      round.probes.push_back(
          make_section(decl, d.lower + 8, d.lower + span - 8, 4));
    } else {
      round.probes.push_back(
          make_section(decl, d.lower + 1, d.lower + span + 1, 4));
    }
  }
  round.wide = make_section(decl, 0, n * 32 + span);
  return round;
}

/// Runs one full round against `Set` and folds a checksum so nothing is
/// optimized away.
template <typename Set>
std::int64_t run_round(const Round& round) {
  Set set;
  for (const brs::Section& s : round.adds) set.add(s);
  std::int64_t sink = 0;
  for (const brs::Section& p : round.probes) sink += set.covers(p) ? 1 : 0;
  sink += static_cast<std::int64_t>(set.subtract_from(round.wide).size());
  sink += set.bounding_union().dims[0].upper;
  return sink;
}

/// Calls `fn` until ~min_seconds of wall clock accumulate; returns
/// calls/second.
template <typename Fn>
double throughput(Fn&& fn, double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::int64_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(calls) / elapsed;
}

struct Entry {
  std::string name;
  std::string pattern;
  int sections = 0;
  double throughput = 0.0;  ///< fast rounds / second
  double reference_per_sec = 0.0;
  double speedup = 0.0;
  double min_speedup = 1.0;
};

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"grophecy.bench_brs.v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"pattern\": \"%s\", \"sections\": %d,"
        " \"throughput\": %.6g, \"reference_per_sec\": %.6g,"
        " \"speedup\": %.6g, \"min_speedup\": %.3g}%s\n",
        e.name.c_str(), e.pattern.c_str(), e.sections, e.throughput,
        e.reference_per_sec, e.speedup, e.min_speedup,
        i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_brs.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--quick]\n", argv[0]);
      return 2;
    }
  }
  const double min_seconds = quick ? 0.02 : 0.15;

  const std::vector<int> sizes{64, 256, 1024};
  std::vector<Entry> entries;

  std::printf("%-20s %14s %14s %9s\n", "entry", "fast rounds/s",
              "ref rounds/s", "speedup");
  for (const char* pattern : {"chunks", "strided"}) {
    for (const int n : sizes) {
      skeleton::ArrayDecl decl{"a", skeleton::ElemType::kF32,
                               {static_cast<std::int64_t>(n) * 256}, false};
      util::Rng rng(static_cast<std::uint64_t>(n) * 7919 +
                    (pattern[0] == 'c' ? 1 : 2));
      const Round round = std::string(pattern) == "chunks"
                              ? chunk_round(decl, n, rng)
                              : strided_round(decl, n, rng);

      // On merge-free chunk workloads the two implementations must agree
      // on the checksum exactly. (Strided workloads may differ by a few
      // units: merge order changes which conservative answer each gives;
      // tests/brs_property_test.cpp pins both against the rasterized
      // oracle.)
      const std::int64_t fast_sink = run_round<brs::SectionSet>(round);
      const std::int64_t ref_sink = run_round<brs::ReferenceSectionSet>(round);
      if (pattern[0] == 'c' && fast_sink != ref_sink) {
        std::fprintf(stderr,
                     "FAIL: %s/%d checksum mismatch (fast %lld, ref %lld)\n",
                     pattern, n, static_cast<long long>(fast_sink),
                     static_cast<long long>(ref_sink));
        return 1;
      }

      Entry entry;
      entry.pattern = pattern;
      entry.sections = n;
      entry.name = std::string(pattern) + "/" + std::to_string(n);
      // Acceptance demands a measured speedup from 64 sections up; the
      // floors are set well under the measured ratios (see
      // bench/BENCH_brs.json) so slower CI machines do not flap, and
      // grow with n because the algorithmic gap does. Strided workloads
      // gain less (the window bound is loose when spans overlap), so
      // their floors are correspondingly lower.
      const bool chunks = pattern[0] == 'c';
      if (chunks) {
        entry.min_speedup = n >= 1024 ? 40.0 : (n >= 256 ? 20.0 : 8.0);
      } else {
        entry.min_speedup = n >= 1024 ? 4.0 : (n >= 256 ? 1.5 : 1.0);
      }
      entry.throughput =
          throughput([&] { (void)run_round<brs::SectionSet>(round); },
                     min_seconds);
      entry.reference_per_sec = throughput(
          [&] { (void)run_round<brs::ReferenceSectionSet>(round); },
          min_seconds);
      entry.speedup = entry.throughput / entry.reference_per_sec;
      std::printf("%-20s %14.0f %14.0f %8.1fx\n", entry.name.c_str(),
                  entry.throughput, entry.reference_per_sec, entry.speedup);
      entries.push_back(std::move(entry));
    }
  }

  write_json(entries, out_path);
  std::printf("wrote %s (%zu entries)\n", out_path.c_str(), entries.size());

  bool ok = true;
  for (const Entry& entry : entries) {
    if (entry.speedup < entry.min_speedup) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < required %.2fx\n",
                   entry.name.c_str(), entry.speedup, entry.min_speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
