// The shared-artifact layer (util/artifact_cache.h and its users):
//
//   * KeyBuilder: field-order and boundary sensitivity of the FNV-1a
//     content keys;
//   * ArtifactCache: single-flight builds, hit/miss accounting, eviction
//     of throwing factories (every waiter sees the typed failure),
//     clear(), immutable shared artifacts;
//   * the pipeline caches: skeleton/usage caching returns the same
//     immutable artifact, plan keys are iteration independent (paper
//     §III-B), and projections are bit-identical with the caches
//     (calibration included) on or off across the machine fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "dataflow/usage_cache.h"
#include "exec/sweep.h"
#include "hw/machine_registry.h"
#include "skeleton/fingerprint.h"
#include "util/artifact_cache.h"
#include "util/error.h"
#include "workloads/skeleton_cache.h"
#include "workloads/workload.h"

namespace grophecy {
namespace {

// --- KeyBuilder ---

TEST(ArtifactCache, KeyBuilderDistinguishesFieldBoundaries) {
  const std::uint64_t ab_c =
      util::KeyBuilder().field("ab").field("c").hash();
  const std::uint64_t a_bc =
      util::KeyBuilder().field("a").field("bc").hash();
  EXPECT_NE(ab_c, a_bc);  // length prefix keeps boundaries distinct

  EXPECT_NE(util::KeyBuilder().field(1).field(2).hash(),
            util::KeyBuilder().field(2).field(1).hash());
  EXPECT_NE(util::KeyBuilder().field(0.0).hash(),
            util::KeyBuilder().field(-0.0).hash());  // bit representation
  EXPECT_EQ(util::KeyBuilder().field("x").field(7).hash(),
            util::KeyBuilder().field("x").field(7).hash());
}

// --- ArtifactCache core contract ---

TEST(ArtifactCache, BuildsOncePerKeyAndCountsHits) {
  util::ArtifactCache<int> cache;
  int builds = 0;
  bool from_cache = true;
  const auto first = cache.get_or_build(1, [&] { return ++builds; },
                                        &from_cache);
  EXPECT_FALSE(from_cache);
  const auto second = cache.get_or_build(1, [&] { return ++builds; },
                                         &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());  // the same immutable artifact
  EXPECT_EQ(*second, 1);

  const auto other = cache.get_or_build(2, [&] { return ++builds; });
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(*other, 2);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ArtifactCache, SingleFlightUnderConcurrentMisses) {
  util::ArtifactCache<int> cache;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] = cache.get_or_build(42, [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 7;
      });
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);  // one flight, everyone shares it
  for (const auto& result : results) {
    ASSERT_TRUE(result);
    EXPECT_EQ(result.get(), results[0].get());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(ArtifactCache, ThrowingFactoryIsEvictedNotCached) {
  util::ArtifactCache<int> cache;
  EXPECT_THROW(cache.get_or_build(
                   5, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // the failed flight is evicted
  // A later call retries and can succeed.
  const auto value = cache.get_or_build(5, [] { return 11; });
  EXPECT_EQ(*value, 11);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ArtifactCache, FailedFlightEvictionNeverRemovesASuccessor) {
  // Regression: eviction after a failed flight is by flight *identity*,
  // mirroring the PR 6 CalibrationCache race fix. If clear() races
  // between the factory's throw and the eviction, and a fresh, healthy
  // flight has already been installed under the same key, that successor
  // must survive — the old code erased by key and would drop it,
  // re-running its factory and breaking single-flight.
  util::ArtifactCache<int> cache;
  std::atomic<bool> failing_started{false};
  std::atomic<bool> cleared{false};

  std::thread failing([&] {
    try {
      cache.get_or_build(99, [&]() -> int {
        failing_started = true;
        // Hold the flight open until the main thread has cleared the
        // cache and installed a healthy successor under the same key.
        while (!cleared.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("stale flight fails late");
      });
      ADD_FAILURE() << "the failing flight should throw";
    } catch (const std::runtime_error&) {
    }
  });

  while (!failing_started.load()) std::this_thread::yield();
  cache.clear();  // forget the in-flight failure-to-be
  int successor_builds = 0;
  const auto healthy = cache.get_or_build(99, [&] {
    ++successor_builds;
    return 21;
  });
  EXPECT_EQ(*healthy, 21);
  cleared = true;
  failing.join();  // the stale flight fails and runs its eviction path

  // The healthy successor survived the stale flight's eviction: a third
  // caller hits the cache instead of rebuilding.
  EXPECT_EQ(cache.size(), 1u);
  bool from_cache = false;
  const auto again = cache.get_or_build(99, [&]() -> int {
    ++successor_builds;
    return 999;
  }, &from_cache);
  EXPECT_EQ(successor_builds, 1);  // never re-ran
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(*again, 21);
}

TEST(ArtifactCache, FailedFlightEvictionUnderContendedRetries) {
  // Many threads hammer one key with a factory that fails for the first
  // wave and succeeds afterwards; interleaved clear() calls shuffle
  // flight lifetimes. The cache must end in a consistent state: a cached
  // healthy value, no lost successors, no caller hung.
  util::ArtifactCache<int> cache;
  std::atomic<int> attempts{0};
  std::atomic<int> successes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        try {
          const auto value = cache.get_or_build(7, [&]() -> int {
            const int n = attempts.fetch_add(1);
            std::this_thread::yield();
            if (n < 3) throw std::runtime_error("warming up");
            return 64;
          });
          EXPECT_EQ(*value, 64);
          successes.fetch_add(1);
        } catch (const std::runtime_error&) {
        }
        if (round % 10 == 3) cache.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(successes.load(), 0);
  // A final call settles the cache: either a healthy survivor or a fresh
  // build — never a poisoned entry.
  const auto final_value = cache.get_or_build(7, [] { return 64; });
  EXPECT_EQ(*final_value, 64);
  EXPECT_LE(cache.size(), 1u);
}

TEST(ArtifactCache, ConcurrentWaitersAllObserveTheSameTypedFailure) {
  // The failed-flight contract under concurrency: every caller joined to
  // a flight whose factory throws observes that same typed error (no
  // waiter hangs, none gets a half-built value), and the failure is
  // evicted so a *fresh* request retriggers the build.
  util::ArtifactCache<int> cache;
  std::atomic<int> factory_calls{0};
  const auto failing_factory = [&]() -> int {
    factory_calls.fetch_add(1);
    // Let the other callers join the in-flight future before it fails.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    throw CalibrationError("link down");
  };

  constexpr int kThreads = 8;
  std::atomic<int> typed_failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      try {
        cache.get_or_build(13, failing_factory);
      } catch (const CalibrationError& error) {
        EXPECT_EQ(error.kind(), ErrorKind::kCalibration);
        EXPECT_NE(std::string(error.what()).find("link down"),
                  std::string::npos);
        typed_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Whoever joined the failing flight saw its error; stragglers that
  // arrived after eviction re-ran the factory and failed the same way.
  EXPECT_EQ(typed_failures.load(), kThreads);
  EXPECT_GE(factory_calls.load(), 1);
  EXPECT_EQ(cache.size(), 0u);  // no failure is ever left cached

  // A fresh request retriggers the build and can succeed.
  EXPECT_EQ(*cache.get_or_build(13, [] { return 7; }), 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ArtifactCache, ClearDropsEntriesAndZeroesCounters) {
  util::ArtifactCache<int> cache;
  cache.get_or_build(1, [] { return 1; });
  cache.get_or_build(1, [] { return 1; });
  ASSERT_EQ(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  int factory_calls = 0;
  cache.get_or_build(1, [&] { return ++factory_calls; });
  EXPECT_EQ(factory_calls, 1);  // the old entry is really gone
}

// --- skeleton + usage caches and iteration independence ---

TEST(ArtifactCache, SkeletonCacheKeysOnWorkloadSizeAndIterations) {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  const workloads::Workload& hotspot = suite.find("HotSpot");
  const workloads::DataSize size = workloads::find_data_size(hotspot, "64 x 64");

  const auto a = workloads::cached_skeleton(hotspot, size, 4);
  const auto b = workloads::cached_skeleton(hotspot, size, 4);
  const auto c = workloads::cached_skeleton(hotspot, size, 8);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->content_hash, skeleton::fingerprint(a->app));
  EXPECT_EQ(a->usage_key, skeleton::usage_fingerprint(a->app));
}

TEST(ArtifactCache, UsageFingerprintIgnoresIterationsOnly) {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  const workloads::Workload& hotspot = suite.find("HotSpot");
  const workloads::DataSize size = workloads::find_data_size(hotspot, "64 x 64");
  const auto iters1 = workloads::cached_skeleton(hotspot, size, 1);
  const auto iters8 = workloads::cached_skeleton(hotspot, size, 8);

  // Same content except iterations: the full fingerprint differs, the
  // usage fingerprint (what the plan cache keys on) does not.
  EXPECT_NE(iters1->content_hash, iters8->content_hash);
  EXPECT_EQ(iters1->usage_key, iters8->usage_key);

  // So an iteration sweep shares one usage artifact.
  const auto plan1 = dataflow::cached_usage(iters1->usage_key, iters1->app);
  const auto plan8 = dataflow::cached_usage(iters8->usage_key, iters8->app);
  EXPECT_EQ(plan1.get(), plan8.get());

  // A different data size is a different plan.
  const workloads::DataSize big =
      workloads::find_data_size(hotspot, "512 x 512");
  const auto other = workloads::cached_skeleton(hotspot, big, 1);
  EXPECT_NE(other->usage_key, iters1->usage_key);
}

// --- the projection is identical with the caches on or off ---

TEST(ArtifactCache, ProjectionBitIdenticalWithCachesOnOrOff) {
  // Every registry machine x every paper point x several iteration counts
  // (1 leaves temporal fusion out, 3 and 8 try it), with one engine per
  // machine per side: each projection's journal record is byte-identical
  // whether the process-wide caches (calibration, skeleton, usage) served
  // it or the engine computed everything itself.
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  core::ProjectionOptions uncached_options;
  uncached_options.use_artifact_caches = false;
  for (const auto& machine : hw::MachineRegistry::global().machines()) {
    core::ExperimentRunner cached(*machine);
    core::ExperimentRunner uncached(*machine, uncached_options);
    for (const auto& workload : suite.all()) {
      for (const workloads::DataSize& size : workload->paper_data_sizes()) {
        for (int iterations : {1, 3, 8}) {
          const exec::JobSpec spec{workload->name(), size.label, iterations,
                                   machine->name};
          const core::ProjectionReport on =
              cached.run(*workload, size, iterations);
          const core::ProjectionReport off =
              uncached.run(*workload, size, iterations);
          ASSERT_TRUE(on.artifacts.caches_enabled);
          ASSERT_FALSE(off.artifacts.caches_enabled);
          EXPECT_EQ(exec::JobRecord::from_report(spec, on, 1, 0.0).to_json(),
                    exec::JobRecord::from_report(spec, off, 1, 0.0).to_json())
              << spec.key();
          EXPECT_EQ(on.describe(), off.describe()) << spec.key();
        }
      }
    }
  }
}

}  // namespace
}  // namespace grophecy
