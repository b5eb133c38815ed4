#include "replay.h"

#include <limits>
#include <set>
#include <string>

#include "core/experiment.h"
#include "cpumodel/cpu_sim.h"
#include "dataflow/usage_cache.h"
#include "gpumodel/explorer.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibration_cache.h"
#include "pcie/calibrator.h"
#include "phase.h"
#include "sim/event_sim.h"
#include "sim/gpu_sim.h"
#include "workloads/skeleton_cache.h"
#include "workloads/workload.h"

namespace e2e {

namespace {

using grophecy::core::ProjectionOptions;

/// The machine and options SweepRequest::job_fn gives this projection.
struct Job {
  const grophecy::hw::MachineSpec* machine;
  ProjectionOptions options;
  const grophecy::workloads::Workload* workload;
  grophecy::workloads::DataSize size;
};

Job resolve(const Served& served, const ProjectionOptions& base,
            const grophecy::hw::MachineSpec& default_machine) {
  Job job{&default_machine, base, nullptr, {}};
  if (!served.spec.machine.empty())
    job.machine = &grophecy::hw::MachineRegistry::global().find(served.spec.machine);
  job.options.seed = served.spec.stream_seed(served.base_seed);
  job.options.calibration_seed = served.base_seed;
  job.workload =
      &grophecy::workloads::PaperSuite::instance().find(served.spec.workload);
  job.size = grophecy::workloads::find_data_size(*job.workload,
                                                 served.spec.size_label);
  return job;
}

/// One projection, stage by stage as Grophecy::project_impl runs it.
void replay_stages(const Served& served, const Job& job, LayerTotals& totals) {
  const ProjectionOptions& options = job.options;
  const int runs = options.measurement_runs;

  Clock::time_point start = Clock::now();
  grophecy::core::ExperimentRunner runner(*job.machine, options);
  totals.engine_s += seconds(Clock::now() - start);

  start = Clock::now();
  const std::shared_ptr<const grophecy::workloads::BuiltSkeleton> built =
      grophecy::workloads::cached_skeleton(*job.workload, job.size,
                                           served.spec.iterations);
  totals.skeleton_s += seconds(Clock::now() - start);
  const grophecy::skeleton::AppSkeleton& app = built->app;

  start = Clock::now();
  const std::shared_ptr<const grophecy::dataflow::UsageArtifact> usage =
      grophecy::dataflow::cached_usage(built->usage_key, app);
  totals.usage_s += seconds(Clock::now() - start);

  // Kernel projection: best variant over the fusion candidates.
  grophecy::gpumodel::Explorer explorer(job.machine->gpu, options.explorer);
  std::vector<grophecy::gpumodel::ProjectedKernel> best_kernels;
  double predicted_kernel_s = 0.0;
  start = Clock::now();
  const bool try_fusion = app.kernels.size() == 1 && app.iterations > 1;
  for (const grophecy::skeleton::KernelSkeleton& kernel : app.kernels) {
    grophecy::gpumodel::ProjectedKernel best{};
    double best_total = std::numeric_limits<double>::infinity();
    const std::vector<int> fusions =
        try_fusion ? options.fusion_candidates : std::vector<int>{1};
    for (int fuse : fusions) {
      if (fuse < 1 || fuse > app.iterations) continue;
      grophecy::gpumodel::ProjectedKernel candidate =
          explorer.best(app, kernel, fuse);
      const std::int64_t count = (app.iterations + fuse - 1) / fuse;
      const double total = candidate.time.total_s * static_cast<double>(count);
      if (total < best_total) {
        best_total = total;
        best = std::move(candidate);
      }
    }
    predicted_kernel_s += best_total;
    best_kernels.push_back(std::move(best));
  }
  totals.explore_s += seconds(Clock::now() - start);
  const grophecy::gpumodel::ExploreStats& explored = explorer.stats();
  totals.variants += explored.variants;
  totals.pruned += explored.pruned;
  totals.memo_hits += explored.occupancy_hits + explored.projection_hits;
  totals.memo_lookups += explored.occupancy_hits + explored.occupancy_misses +
                         explored.projection_hits + explored.projection_misses;

  // Kernel measurement on the simulated machine.
  if (options.detailed_sim) {
    grophecy::sim::EventGpuSimulator sim(job.machine->gpu, options.seed,
                                         options.event_sim);
    start = Clock::now();
    for (const auto& kernel : best_kernels)
      for (int run = 0; run < runs; ++run) {
        sim.run_launch_seconds(kernel.characteristics);
        totals.sim_events += sim.last_stats().events;
        totals.sim_blocks += sim.last_stats().blocks;
      }
    totals.sim_s += seconds(Clock::now() - start);
  } else {
    grophecy::sim::GpuSimulator sim(job.machine->gpu, options.seed);
    start = Clock::now();
    for (const auto& kernel : best_kernels)
      sim.measure_launch_seconds(kernel.characteristics, runs);
    totals.sim_s += seconds(Clock::now() - start);
  }

  // Transfers: priced by the calibrated model, measured on the bus.
  double predicted_transfer_s = 0.0;
  grophecy::pcie::SimulatedBus bus(job.machine->pcie, options.seed);
  start = Clock::now();
  for (const auto* list :
       {&usage->plan.host_to_device, &usage->plan.device_to_host})
    for (const grophecy::dataflow::Transfer& transfer : *list) {
      predicted_transfer_s += runner.engine().bus_model().predict_seconds(
          transfer.bytes, transfer.direction);
      bus.measure_mean(transfer.bytes, transfer.direction, options.memory, runs);
    }
  totals.bus_s += seconds(Clock::now() - start);

  grophecy::cpumodel::CpuSimulator cpu(job.machine->cpu, options.seed);
  start = Clock::now();
  cpu.measure_app_seconds(app, runs);
  totals.cpu_s += seconds(Clock::now() - start);

  ++totals.projections;
  if (predicted_kernel_s != served.predicted_kernel_s ||
      predicted_transfer_s != served.predicted_transfer_s)
    ++totals.mismatches;
}

}  // namespace

void clear_caches() {
  grophecy::pcie::CalibrationCache::instance().clear();
  grophecy::workloads::skeleton_cache().clear();
  grophecy::dataflow::usage_cache().clear();
}

LayerTotals replay(const std::vector<Served>& served,
                   const ProjectionOptions& options, int rounds,
                   const std::function<void()>& warm_up) {
  const grophecy::hw::MachineSpec default_machine = grophecy::hw::anl_eureka();
  std::vector<Job> jobs;
  for (const Served& item : served)
    jobs.push_back(resolve(item, options, default_machine));

  LayerTotals totals;
  clear_caches();
  warm_up();
  for (int round = 0; round < rounds; ++round)
    for (std::size_t i = 0; i < served.size(); ++i)
      replay_stages(served[i], jobs[i], totals);

  // The whole projection, from the same cache state.
  clear_caches();
  warm_up();
  for (int round = 0; round < rounds; ++round)
    for (std::size_t i = 0; i < served.size(); ++i) {
      grophecy::core::ExperimentRunner runner(*jobs[i].machine, jobs[i].options);
      const Clock::time_point start = Clock::now();
      runner.run(*jobs[i].workload, jobs[i].size, served[i].spec.iterations);
      totals.project_s += seconds(Clock::now() - start);
    }

  // A calibration miss per distinct machine.
  std::set<std::string> machines;
  for (const Job& job : jobs) {
    if (!machines.insert(job.machine->name).second) continue;
    grophecy::pcie::SimulatedBus bus(job.machine->pcie, served.front().base_seed);
    grophecy::pcie::TransferCalibrator calibrator(job.options.calibration);
    const Clock::time_point start = Clock::now();
    calibrator.calibrate_robust(bus, job.options.memory, &job.machine->pcie);
    totals.calibrate_s += seconds(Clock::now() - start);
    ++totals.calibrations;
  }
  return totals;
}

}  // namespace e2e
