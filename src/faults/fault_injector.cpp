#include "faults/fault_injector.h"

#include <cmath>
#include <cstdlib>

#include "util/contracts.h"
#include "util/error.h"

namespace grophecy::faults {

FaultPlan FaultPlan::paper_outliers(double probability, double factor,
                                    std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.slow_probability = probability;
  plan.slow_factor = factor;
  return plan;
}

FaultPlan FaultPlan::flaky(double failure_probability,
                           double hang_probability, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.failure_probability = failure_probability;
  plan.hang_probability = hang_probability;
  return plan;
}

FaultPlan FaultPlan::broken(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.always_fail = true;
  return plan;
}

FaultEngine::FaultEngine(FaultPlan plan) : plan_(plan), rng_(plan.seed) {
  GROPHECY_EXPECTS(plan_.slow_probability >= 0.0 &&
                   plan_.slow_probability <= 1.0);
  GROPHECY_EXPECTS(plan_.slow_factor > 0.0);
  GROPHECY_EXPECTS(plan_.heavy_tail_probability >= 0.0 &&
                   plan_.heavy_tail_probability <= 1.0);
  GROPHECY_EXPECTS(plan_.heavy_tail_shape > 0.0);
  GROPHECY_EXPECTS(plan_.heavy_tail_cap >= 1.0);
  GROPHECY_EXPECTS(plan_.failure_probability >= 0.0 &&
                   plan_.failure_probability <= 1.0);
  GROPHECY_EXPECTS(plan_.fail_first >= 0);
  GROPHECY_EXPECTS(plan_.hang_probability >= 0.0 &&
                   plan_.hang_probability <= 1.0);
  GROPHECY_EXPECTS(plan_.hang_factor > 1.0);
  GROPHECY_EXPECTS(plan_.drift_per_call >= 0.0);
  GROPHECY_EXPECTS(plan_.abort_after >= -1);
  GROPHECY_EXPECTS(plan_.abort_probability >= 0.0 &&
                   plan_.abort_probability <= 1.0);
  GROPHECY_EXPECTS(plan_.loop_after >= -1);
  GROPHECY_EXPECTS(plan_.loop_probability >= 0.0 &&
                   plan_.loop_probability <= 1.0);
}

namespace {

/// A well-defined infinite loop: the volatile access is observable
/// behaviour, so the compiler may not assume termination (a bare `for(;;)`
/// with an empty body is undefined in C++20). From outside the process it
/// is pure silence — alive to waitpid, dead to heartbeats.
[[noreturn]] void spin_forever() {
  volatile unsigned long long spin = 0;
  for (;;) spin = spin + 1;
}

}  // namespace

double FaultEngine::transform(double clean_seconds) {
  const std::uint64_t index = stats_.calls++;  // 0-based observation index

  // Process faults first: they model the whole process dying, so nothing
  // downstream (including the failure faults) gets a say. The bernoulli
  // draws are guarded by probability > 0 so plans without process faults
  // consume exactly the same RNG stream as before these kinds existed.
  if ((plan_.abort_after >= 0 &&
       index >= static_cast<std::uint64_t>(plan_.abort_after)) ||
      (plan_.abort_probability > 0.0 &&
       rng_.bernoulli(plan_.abort_probability))) {
    ++stats_.aborts;
    std::abort();
  }
  if ((plan_.loop_after >= 0 &&
       index >= static_cast<std::uint64_t>(plan_.loop_after)) ||
      (plan_.loop_probability > 0.0 &&
       rng_.bernoulli(plan_.loop_probability))) {
    ++stats_.loops;
    spin_forever();
  }

  if (plan_.always_fail ||
      index < static_cast<std::uint64_t>(plan_.fail_first) ||
      (plan_.failure_probability > 0.0 &&
       rng_.bernoulli(plan_.failure_probability))) {
    ++stats_.failures;
    throw MeasurementError("injected measurement failure (observation " +
                           std::to_string(index) + ")");
  }

  double t = clean_seconds;

  if (plan_.drift_per_call > 0.0) {
    t *= std::pow(1.0 + plan_.drift_per_call, static_cast<double>(index));
  }
  if (plan_.slow_probability > 0.0 &&
      rng_.bernoulli(plan_.slow_probability)) {
    t *= plan_.slow_factor;
    ++stats_.slow;
  }
  if (plan_.heavy_tail_probability > 0.0 &&
      rng_.bernoulli(plan_.heavy_tail_probability)) {
    // Pareto with minimum 1: factor = (1 - u)^(-1/shape), capped.
    const double u = rng_.uniform();
    const double factor =
        std::min(plan_.heavy_tail_cap,
                 std::pow(1.0 - u, -1.0 / plan_.heavy_tail_shape));
    t *= factor;
    ++stats_.heavy_tail;
  }
  if (plan_.hang_probability > 0.0 &&
      rng_.bernoulli(plan_.hang_probability)) {
    t *= plan_.hang_factor;
    ++stats_.hangs;
  }

  ++stats_.returned;
  return t;
}

FaultInjector::FaultInjector(pcie::TransferTimer& inner, FaultPlan plan)
    : inner_(inner), engine_(plan) {}

double FaultInjector::time_transfer(std::uint64_t bytes, hw::Direction dir,
                                    hw::HostMemory mem) {
  return engine_.transform(inner_.time_transfer(bytes, dir, mem));
}

FaultyKernelTimer::FaultyKernelTimer(sim::KernelTimer& inner, FaultPlan plan)
    : inner_(inner), engine_(plan) {}

double FaultyKernelTimer::run_launch_seconds(
    const gpumodel::KernelCharacteristics& kc) {
  return engine_.transform(inner_.run_launch_seconds(kc));
}

}  // namespace grophecy::faults
