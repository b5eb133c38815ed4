#include "sim/event_sim.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "sim/running_mean.h"
#include "util/contracts.h"

namespace grophecy::sim {

namespace {

/// Measurements below this many block-runs stay on the calling thread:
/// a helper's start costs more than the runs it could take over.
constexpr std::int64_t kParallelBlockRuns = 8192;

/// One jittered launch simulated on `engine`, drawing from `rng`:
/// per-block jitter inside the cohort simulation, then one whole-launch
/// jitter matching the wave simulator.
double jittered_launch(CohortEngine& engine, const hw::GpuSpec& gpu,
                       const gpumodel::KernelCharacteristics& kc,
                       util::Rng& rng) {
  const double sigma = gpu.timing_jitter_sigma;
  const double body = sigma > 0.0
                          ? engine.simulate_jittered(kc, gpu, sigma, rng)
                          : engine.simulate_expected(kc, gpu);
  return rng.lognormal(body + gpu.kernel_launch_overhead_s, sigma * 0.5);
}

/// The normals one jittered_launch draws: one per block (degenerate
/// blocks included) plus the whole-launch jitter; without jitter, only
/// the latter.
std::uint64_t normals_per_launch(const hw::GpuSpec& gpu,
                                 const gpumodel::KernelCharacteristics& kc) {
  return gpu.timing_jitter_sigma > 0.0
             ? static_cast<std::uint64_t>(kc.num_blocks) + 1
             : 1;
}

/// Helper threads that may be in flight at once across the process.
/// Concurrent measurements (a multi-worker detailed sweep) share it, so
/// they never run more than hardware_concurrency() - 1 helpers together.
std::atomic<int>& helper_budget() {
  static std::atomic<int> budget{
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) -
      1};
  return budget;
}

/// Up to `wanted` helpers taken from the budget; whatever is still held
/// goes back when the grant is destroyed.
class HelperGrant {
 public:
  explicit HelperGrant(int wanted) {
    std::atomic<int>& budget = helper_budget();
    int available = budget.load(std::memory_order_relaxed);
    while (available > 0) {
      const int take = std::min(wanted, available);
      if (budget.compare_exchange_weak(available, available - take,
                                       std::memory_order_relaxed)) {
        count_ = take;
        break;
      }
    }
  }
  ~HelperGrant() { release(count_); }
  HelperGrant(const HelperGrant&) = delete;
  HelperGrant& operator=(const HelperGrant&) = delete;

  int count() const { return count_; }

  /// Returns `n` of the held helpers to the budget now.
  void release(int n) {
    if (n <= 0) return;
    helper_budget().fetch_add(n, std::memory_order_relaxed);
    count_ -= n;
  }

 private:
  int count_ = 0;
};

/// One run of a parallel measurement: written by whichever thread ran
/// it, read by the caller once every helper is joined. Cache-line
/// aligned so runs finishing on different threads never share a line.
struct alignas(64) RunSlot {
  util::Rng start;  ///< Where the run's draws begin.
  util::Rng after;  ///< Where they ended (at the throw, if one failed).
  double sample = 0.0;
  std::exception_ptr error;
};

}  // namespace

EventGpuSimulator::EventGpuSimulator(hw::GpuSpec gpu, std::uint64_t seed,
                                     EventSimOptions)
    : gpu_(std::move(gpu)), rng_(seed) {}

SimBreakdown EventGpuSimulator::expected_launch(
    const gpumodel::KernelCharacteristics& kc) const {
  SimBreakdown out;
  out.launch_s = gpu_.kernel_launch_overhead_s;
  out.total_s =
      engine_.simulate_expected(kc, gpu_) + gpu_.kernel_launch_overhead_s;
  return out;
}

double EventGpuSimulator::run_launch_seconds(
    const gpumodel::KernelCharacteristics& kc) {
  return jittered_launch(engine_, gpu_, kc, rng_);
}

double EventGpuSimulator::measure_launch_seconds(
    const gpumodel::KernelCharacteristics& kc, int runs) {
  GROPHECY_EXPECTS(runs > 0);
  if (static_cast<std::int64_t>(runs) * kc.num_blocks < kParallelBlockRuns)
    return KernelTimer::measure_launch_seconds(kc, runs);
  HelperGrant grant(runs - 1);
  if (grant.count() == 0) return KernelTimer::measure_launch_seconds(kc, runs);

  // Each run draws a fixed number of normals, so every run's starting
  // stream is known before any run starts.
  const std::uint64_t draws_per_run = normals_per_launch(gpu_, kc);
  std::vector<RunSlot> slots(static_cast<std::size_t>(runs));
  util::Rng cursor = rng_;
  for (RunSlot& slot : slots) {
    slot.start = cursor;
    cursor.discard_normals(draws_per_run);
  }

  std::atomic<int> next_run{0};
  const auto run_claimed = [&](CohortEngine& engine) {
    for (int r = next_run.fetch_add(1, std::memory_order_relaxed); r < runs;
         r = next_run.fetch_add(1, std::memory_order_relaxed)) {
      RunSlot& slot = slots[static_cast<std::size_t>(r)];
      // The run advances a copy on this thread's stack: states advanced
      // in place in `slots` would put every thread's draws on shared
      // cache lines.
      util::Rng rng = slot.start;
      try {
        slot.sample = jittered_launch(engine, gpu_, kc, rng);
      } catch (...) {
        slot.error = std::current_exception();
      }
      slot.after = rng;
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(grant.count()));
    for (int unstarted = grant.count(); unstarted > 0; --unstarted) {
      try {
        helpers.emplace_back([&run_claimed] {
          CohortEngine engine;
          run_claimed(engine);
        });
      } catch (const std::system_error&) {
        // The runs it would have taken fall to the threads already going.
        grant.release(unstarted);
        break;
      }
    }
    run_claimed(engine_);
  }  // Joins every helper before the grant returns their budget.

  std::size_t folded = 0;
  return detail::running_mean(runs, [&] {
    const RunSlot& slot = slots[folded++];
    rng_ = slot.after;
    if (slot.error) std::rethrow_exception(slot.error);
    return slot.sample;
  });
}

}  // namespace grophecy::sim
