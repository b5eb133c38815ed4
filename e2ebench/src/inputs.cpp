#include "inputs.h"

#include <stdexcept>
#include <utility>

#include "exec/sweep_request.h"
#include "hw/registry.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace e2e {

namespace {

using grophecy::exec::JobSpec;

// Request counts per second of --seconds, sized so each workload measures
// about that long on a 4-vCPU x86 VM.
constexpr int kHotRequestsPerSecond = 5000;
constexpr int kFleetPassesPerSecond = 6;
constexpr int kDetailedPassesPerSecond = 1;

/// The 10 paper grid points (workload x Table I data size), iterations 1.
std::vector<JobSpec> paper_points() {
  std::vector<JobSpec> points;
  for (const auto& workload :
       grophecy::workloads::PaperSuite::instance().all())
    for (const auto& size : workload->paper_data_sizes())
      points.push_back({workload->name(), size.label, 1, ""});
  return points;
}

/// Fisher-Yates on util::Rng: std::shuffle's algorithm is unspecified, so
/// its order would differ between standard libraries for one seed.
template <typename T>
void shuffle(std::vector<T>& items, grophecy::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
}

/// A seed the daemon's command line accepts (a non-negative long).
std::uint64_t draw_seed(grophecy::util::Rng& rng) {
  return rng.next_u64() >> 2;
}

Inputs serve_hot(grophecy::util::Rng& rng, int run_seconds) {
  Inputs inputs;
  inputs.daemon_seed = draw_seed(rng);
  for (int iterations : {1, 8})
    for (JobSpec spec : paper_points()) {
      spec.iterations = iterations;
      inputs.warmup.push_back(spec);
    }
  std::vector<JobSpec> cycle = inputs.warmup;
  shuffle(cycle, rng);
  const std::size_t count =
      static_cast<std::size_t>(kHotRequestsPerSecond) * run_seconds;
  for (std::size_t i = 0; i < count; ++i)
    inputs.specs.push_back(cycle[i % cycle.size()]);
  return inputs;
}

Inputs sweep(grophecy::util::Rng& rng, int passes,
             grophecy::exec::SweepRequest grid) {
  Inputs inputs;
  inputs.specs = grid.jobs();
  inputs.warmup = inputs.specs;
  inputs.warmup_seed = draw_seed(rng);
  for (int i = 0; i < passes; ++i) inputs.pass_seeds.push_back(draw_seed(rng));
  return inputs;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& workload :
       grophecy::workloads::PaperSuite::instance().all())
    names.push_back(workload->name());
  return names;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  static const Workload workloads[] = {
      {"serve-hot", Kind::kServeHot},
      {"sweep-fleet", Kind::kSweepFleet},
      {"sweep-detailed", Kind::kSweepDetailed},
  };
  for (const Workload& workload : workloads)
    if (name == workload.name) return workload;
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed,
                   int run_seconds) {
  grophecy::util::Rng rng(seed);
  switch (workload.kind) {
    case Kind::kServeHot:
      return serve_hot(rng, run_seconds);
    case Kind::kSweepFleet: {
      std::vector<int> iterations;
      for (int n = 1; n <= 512; n *= 2) iterations.push_back(n);
      Inputs inputs = sweep(
          rng, kFleetPassesPerSecond * run_seconds,
          grophecy::exec::SweepRequest::on(grophecy::hw::anl_eureka())
              .machines(grophecy::exec::all_machines)
              .workloads(workload_names())
              .iterations(iterations));
      inputs.workers = 2;
      inputs.journal = true;
      return inputs;
    }
    case Kind::kSweepDetailed: {
      Inputs inputs = sweep(
          rng, kDetailedPassesPerSecond * run_seconds,
          grophecy::exec::SweepRequest::on(grophecy::hw::anl_eureka())
              .workloads(workload_names()));
      inputs.options.detailed_sim = true;
      inputs.workers = 1;
      return inputs;
    }
  }
  throw std::logic_error("unhandled workload kind");
}

}  // namespace e2e
