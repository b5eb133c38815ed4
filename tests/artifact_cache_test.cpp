// The shared-artifact layer (util/artifact_cache.h and its users):
//
//   * KeyBuilder: field-order and boundary sensitivity of the FNV-1a
//     content keys;
//   * ArtifactCache: single-flight builds, hit/miss accounting, eviction
//     of throwing factories (every waiter sees the typed failure),
//     clear(), immutable shared artifacts, allocation-free hits;
//   * the pipeline caches: skeleton/usage caching returns the same
//     immutable artifact, plan keys are iteration independent (paper
//     §III-B), projections are bit-identical with the caches
//     (calibration and best variants included) on or off across the
//     machine fleet, and the best-variant key covers every GpuSpec,
//     ExplorerOptions and ModelOptions field.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "dataflow/usage_cache.h"
#include "exec/sweep.h"
#include "gpumodel/variant_cache.h"
#include "hw/machine_file.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "skeleton/fingerprint.h"
#include "util/artifact_cache.h"
#include "util/error.h"
#include "workloads/skeleton_cache.h"
#include "workloads/workload.h"

// --- Allocation counter ---
// Replaceable global operator new/delete that count allocations while
// armed, so a test can pin that a cache hit allocates nothing.
namespace {
std::atomic<long long> g_allocations{0};
std::atomic<bool> g_count_allocations{false};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace grophecy {
namespace {

/// Allocations `fn` makes on any thread.
template <typename Fn>
long long allocations_during(Fn&& fn) {
  g_allocations.store(0);
  g_count_allocations.store(true);
  fn();
  g_count_allocations.store(false);
  return g_allocations.load();
}

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

TEST(ArtifactCache, HitAllocatesNothing) {
  // Four captured references: a type-erased std::function factory would
  // allocate to hold them, and a promise made on every call would
  // allocate its shared state.
  util::ArtifactCache<std::string> cache;
  int a = 1, b = 2, c = 3, d = 4;
  const auto factory = [&a, &b, &c, &d] {
    return std::string(64, static_cast<char>('a' + a + b + c + d));
  };
  cache.get_or_build(9, factory);  // the miss builds
  bool from_cache = false;
  std::shared_ptr<const std::string> hit;
  EXPECT_EQ(allocations_during(
                [&] { hit = cache.get_or_build(9, factory, &from_cache); }),
            0);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(*hit, std::string(64, 'k'));

  // The best-variant lookup a projection makes: key fold plus hit.
  const workloads::Workload& hotspot =
      workloads::PaperSuite::instance().find("HotSpot");
  const auto built = workloads::cached_skeleton(
      hotspot, workloads::find_data_size(hotspot, "64 x 64"), 4);
  const gpumodel::Explorer explorer(hw::anl_eureka().gpu);
  gpumodel::cached_best(explorer, built->usage_key, built->app, 0, 2);
  const auto before = gpumodel::variant_cache().stats();
  std::shared_ptr<const gpumodel::ProjectedKernel> best;
  EXPECT_EQ(allocations_during([&] {
              best = gpumodel::cached_best(explorer, built->usage_key,
                                           built->app, 0, 2);
            }),
            0);
  const auto after = gpumodel::variant_cache().stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(best->variant.fuse_iterations, 2);
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

/// Projects every paper point at each of `iterations` on `machine`, with
/// one engine whose process-wide artifact caches are on and one whose
/// caches are off, and expects from both the same journal record and
/// describe() text. Any throw fails the calling test.
void expect_caches_change_nothing(const hw::MachineSpec& machine,
                                  core::ProjectionOptions options,
                                  std::initializer_list<int> iterations,
                                  const std::string& label) {
  options.use_artifact_caches = true;
  core::ProjectionOptions uncached_options = options;
  uncached_options.use_artifact_caches = false;
  core::ExperimentRunner cached(machine, options);
  core::ExperimentRunner uncached(machine, uncached_options);
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  for (const auto& workload : suite.all()) {
    for (const workloads::DataSize& size : workload->paper_data_sizes()) {
      for (int iteration_count : iterations) {
        const exec::JobSpec spec{workload->name(), size.label,
                                 iteration_count, machine.name};
        const core::ProjectionReport on =
            cached.run(*workload, size, iteration_count);
        const core::ProjectionReport off =
            uncached.run(*workload, size, iteration_count);
        ASSERT_TRUE(on.artifacts.caches_enabled);
        ASSERT_FALSE(off.artifacts.caches_enabled);
        EXPECT_EQ(exec::JobRecord::from_report(spec, on, 1, 0.0).to_json(),
                  exec::JobRecord::from_report(spec, off, 1, 0.0).to_json())
            << label << " " << spec.key();
        EXPECT_EQ(on.describe(), off.describe()) << label << " " << spec.key();
      }
    }
  }
}

TEST(ArtifactCache, ProjectionBitIdenticalWithCachesOnOrOff) {
  // Every registry machine x every paper point x iteration counts on each
  // side of every `fuse > iterations` edge of the fusion candidates
  // {1, 2, 4} (1 leaves temporal fusion out), with one engine per machine
  // per side: each projection's journal record is byte-identical whether
  // the process-wide caches (calibration, skeleton, usage, best variant)
  // served it or the engine computed everything itself.
  for (const auto& machine : hw::MachineRegistry::global().machines())
    expect_caches_change_nothing(*machine, {}, {1, 2, 3, 4, 5, 8, 64},
                                 machine->name);
}

TEST(ArtifactCache, VariantKeyCoversEveryGpuField) {
  // The unperturbed machine fills the caches first. A perturbed machine
  // keeps its name, so a key that left out the perturbed field would
  // serve the unperturbed best variant and change the projection.
  const hw::MachineSpec base = hw::anl_eureka();
  expect_caches_change_nothing(base, {}, {1, 4, 8}, "unperturbed");
  int perturbed = 0;
  for (const std::string& field : hw::machine_field_names()) {
    if (field.rfind("gpu.", 0) != 0) continue;
    hw::MachineSpec machine = base;
    if (field == "gpu.family") {
      machine.gpu.family = "fermi";
    } else if (!hw::scale_machine_field(machine, field, 2.0)) {
      continue;  // gpu.name: the key folds it, nothing can perturb it here
    }
    ASSERT_NE(hw::serialize_machine(machine), hw::serialize_machine(base))
        << field;
    ++perturbed;
    expect_caches_change_nothing(machine, {}, {1, 4, 8}, field);
  }
  EXPECT_EQ(perturbed, 25);  // every GpuSpec field but the name
}

TEST(ArtifactCache, VariantKeyCoversExplorerAndModelOptions) {
  const hw::MachineSpec machine = hw::anl_eureka();
  expect_caches_change_nothing(machine, {}, {1, 4, 8}, "default options");
  std::vector<std::pair<std::string, core::ProjectionOptions>> variations;
  auto vary = [&](const std::string& label,
                  const std::function<void(gpumodel::ExplorerOptions&)>& edit) {
    core::ProjectionOptions options;
    edit(options.explorer);
    variations.emplace_back(label, options);
  };
  vary("block_sizes", [](auto& o) { o.block_sizes = {128, 256}; });
  vary("unroll_factors", [](auto& o) { o.unroll_factors = {1}; });
  vary("seq_tile_factors", [](auto& o) { o.seq_tile_factors = {4}; });
  vary("explore_smem_staging", [](auto& o) { o.explore_smem_staging = false; });
  vary("explore_loop_interchange",
       [](auto& o) { o.explore_loop_interchange = false; });
  vary("model.streaming_bw_efficiency",
       [](auto& o) { o.model.streaming_bw_efficiency = 0.5; });
  vary("model.gathered_stream_efficiency",
       [](auto& o) { o.model.gathered_stream_efficiency = 0.6; });
  for (const auto& [label, options] : variations)
    expect_caches_change_nothing(machine, options, {1, 4, 8}, label);
}

TEST(ArtifactCache, ConcurrentEnginesSearchEachVariantKeyOnce) {
  // Eight engines project one spec at once: single-flight runs one search
  // per (kernel, fuse) key and the other seven engines wait for it.
  const workloads::Workload& hotspot =
      workloads::PaperSuite::instance().find("HotSpot");
  const auto built = workloads::cached_skeleton(
      hotspot, workloads::find_data_size(hotspot, "512 x 512"), 8);
  ASSERT_EQ(built->app.kernels.size(), 1u);  // so fuse 1, 2 and 4 are tried
  constexpr std::uint64_t kKeys = 3;
  constexpr int kEngines = 8;

  gpumodel::variant_cache().clear();
  std::vector<std::unique_ptr<core::Grophecy>> engines;
  for (int i = 0; i < kEngines; ++i)
    engines.push_back(std::make_unique<core::Grophecy>(hw::anl_eureka()));
  std::vector<std::string> described(kEngines);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kEngines; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      described[static_cast<std::size_t>(i)] =
          engines[static_cast<std::size_t>(i)]
              ->project(built->app, built->usage_key)
              .describe();
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const auto stats = gpumodel::variant_cache().stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, kEngines * kKeys - kKeys);
  EXPECT_EQ(gpumodel::variant_cache().size(), kKeys);
  for (const std::string& text : described) EXPECT_EQ(text, described[0]);
}

}  // namespace
}  // namespace grophecy
