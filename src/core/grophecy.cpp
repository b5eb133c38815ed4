#include "core/grophecy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dataflow/usage_analyzer.h"
#include "dataflow/usage_cache.h"
#include "gpumodel/variant_cache.h"
#include "pcie/calibration_cache.h"
#include "skeleton/fingerprint.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace grophecy::core {

namespace {

/// Decorrelated seeds for the pipeline's stochastic components.
enum Stream { kCalibrationBus, kMeasurementBus, kGpu, kCpu, kStreams };
using Seeds = std::array<std::uint64_t, kStreams>;

Seeds derive_seeds(std::uint64_t master) {
  util::Rng rng(master);
  Seeds seeds{};
  for (std::uint64_t& seed : seeds) seed = rng.next_u64();
  return seeds;
}

pcie::CalibrationReport calibrate(const hw::MachineSpec& machine,
                                  const ProjectionOptions& options,
                                  std::uint64_t seed) {
  // Calibration runs on its own bus instance: on real hardware it is a
  // separate synthetic-benchmark invocation with its own noise. The
  // machine spec serves as the degradation fallback, so engine
  // construction survives a measurement path that cannot converge.
  auto measure = [&] {
    pcie::SimulatedBus bus(machine.pcie, seed);
    pcie::TransferCalibrator calibrator(options.calibration);
    return calibrator.calibrate_robust(bus, options.memory, &machine.pcie);
  };
  if (!options.use_artifact_caches) return measure();
  pcie::CalibrationCache& cache = pcie::CalibrationCache::instance();
  bool from_cache = false;
  pcie::CalibrationReport report = *cache.get_or_build(
      pcie::calibration_cache_key(machine.pcie, options.calibration,
                                  options.memory, seed),
      measure, &from_cache);
  // The cached entry holds the measurement as made; this engine's copy
  // records where it came from.
  const pcie::CalibrationCache::Stats stats = cache.stats();
  report.from_cache = from_cache;
  report.cache_hits = stats.hits;
  report.cache_misses = stats.misses;
  return report;
}

std::unique_ptr<sim::KernelTimer> make_kernel_timer(
    const hw::GpuSpec& gpu, const ProjectionOptions& options,
    std::uint64_t seed) {
  if (options.detailed_sim)
    return std::make_unique<sim::EventGpuSimulator>(gpu, seed);
  return std::make_unique<sim::GpuSimulator>(gpu, seed);
}

/// Pass-through used in the constructor initializer list so invalid
/// options surface as UsageError *before* any member (notably the
/// calibrator, which enforces the same ranges as hard contracts) runs.
ProjectionOptions validated(ProjectionOptions options) {
  options.validate();
  return options;
}

}  // namespace

void ProjectionOptions::validate() const {
  // Messages are formatted only for a failing check: every engine
  // construction validates. Each check is written !(ok) so NaN fails.
  const auto fail = [](const char* field, const std::string& why) {
    throw UsageError(util::strfmt("ProjectionOptions.%s %s", field,
                                  why.c_str()));
  };
  if (!(measurement_runs > 0))
    fail("measurement_runs",
         util::strfmt("must be positive, got %d", measurement_runs));
  if (!(calibration.replicates > 0))
    fail("calibration.replicates",
         util::strfmt("must be positive, got %d", calibration.replicates));
  if (!(calibration.small_bytes > 0))
    fail("calibration.small_bytes", "must be positive");
  if (!(calibration.small_bytes < calibration.large_bytes))
    fail("calibration.large_bytes", "must exceed small_bytes");
  const pcie::RobustnessOptions& r = calibration.robustness;
  if (!(r.max_retries >= 0))
    fail("calibration.robustness.max_retries",
         util::strfmt("must be non-negative, got %d", r.max_retries));
  if (!(r.timeout_s > 0.0))
    fail("calibration.robustness.timeout_s",
         util::strfmt("must be positive, got %g", r.timeout_s));
  if (!(r.backoff_initial_s > 0.0))
    fail("calibration.robustness.backoff_initial_s", "must be positive");
  if (!(r.backoff_max_s >= r.backoff_initial_s))
    fail("calibration.robustness.backoff_max_s",
         "must be >= backoff_initial_s");
  if (!(r.outlier_z > 0.0))
    fail("calibration.robustness.outlier_z", "must be positive");
  if (!(r.target_rel_half_width > 0.0))
    fail("calibration.robustness.target_rel_half_width", "must be positive");
  if (!(r.max_replicates >= calibration.replicates))
    fail("calibration.robustness.max_replicates",
         "must be >= calibration.replicates");
  for (std::uint64_t bytes : calibration.sweep_bytes)
    if (!(bytes > 0))
      fail("calibration.sweep_bytes", "entries must be positive");
  for (int fuse : fusion_candidates)
    if (!(fuse >= 1))
      fail("fusion_candidates",
           util::strfmt("entries must be >= 1, got %d", fuse));
}

Grophecy::Grophecy(hw::MachineSpec machine, ProjectionOptions options)
    : Grophecy(std::move(machine), std::move(options),
               derive_seeds(options.seed)) {}

Grophecy::Grophecy(hw::MachineSpec&& machine, ProjectionOptions&& options,
                   const Seeds& seeds)
    : machine_(std::move(machine)),
      options_(validated(std::move(options))),
      measurement_bus_(machine_.pcie, seeds[kMeasurementBus]),
      calibration_report_(calibrate(
          machine_, options_,
          options_.calibration_seed.value_or(seeds[kCalibrationBus]))),
      explorer_(machine_.gpu, options_.explorer),
      kernel_timer_(make_kernel_timer(machine_.gpu, options_, seeds[kGpu])),
      cpu_sim_(machine_.cpu, seeds[kCpu]) {
  if (options_.measurement_noise)
    measurement_bus_.set_noise(*options_.measurement_noise);
  GROPHECY_LOG(kInfo) << "calibrated " << machine_.name << ": H2D "
                      << bus_model().h2d.describe() << ", D2H "
                      << bus_model().d2h.describe();
  if (calibration_report_.used_fallback) {
    GROPHECY_LOG(kWarn) << machine_.name
                        << ": calibration degraded to spec-derived model — "
                        << calibration_report_.warning;
  }
}

ProjectionReport Grophecy::project(const skeleton::AppSkeleton& app) {
  if (options_.use_artifact_caches)
    return project_impl(app, skeleton::usage_fingerprint(app));
  return project_impl(app, std::nullopt);
}

ProjectionReport Grophecy::project(const skeleton::AppSkeleton& app,
                                   std::uint64_t usage_key) {
  if (!options_.use_artifact_caches) return project_impl(app, std::nullopt);
  return project_impl(app, usage_key);
}

ProjectionReport Grophecy::project_impl(
    const skeleton::AppSkeleton& app,
    std::optional<std::uint64_t> usage_key) {
  app.validate();

  ProjectionReport report;
  report.app_name = app.name;
  report.machine_name = machine_.name;
  report.iterations = app.iterations;
  report.calibration = calibration_report_.summary();

  // --- transfer plan (data usage analysis) ---
  std::shared_ptr<const dataflow::UsageArtifact> usage;
  if (usage_key) {
    bool from_cache = false;
    usage = dataflow::cached_usage(*usage_key, app, &from_cache);
    report.plan = usage->plan;
    report.artifacts.caches_enabled = true;
    report.artifacts.plan_from_cache = from_cache;
    report.artifacts.usage_key = *usage_key;
  } else {
    dataflow::UsageAnalyzer analyzer;
    report.plan = analyzer.analyze(app);
  }

  // --- device footprint: every array a kernel touches stays resident ---
  std::vector<bool> touched(app.arrays.size(), false);
  for (const skeleton::KernelSkeleton& kernel : app.kernels)
    for (const skeleton::Statement& stmt : kernel.body)
      for (const skeleton::ArrayRef& ref : stmt.refs)
        touched[static_cast<std::size_t>(ref.array)] = true;
  for (std::size_t i = 0; i < app.arrays.size(); ++i)
    if (touched[i]) report.device_footprint_bytes += app.arrays[i].bytes();
  report.fits_device_memory =
      report.device_footprint_bytes <= machine_.gpu.memory_bytes;
  if (!report.fits_device_memory) {
    GROPHECY_LOG(kWarn) << app.name << ": device footprint "
                        << util::format_bytes(report.device_footprint_bytes)
                        << " exceeds " << machine_.gpu.name << " memory ("
                        << util::format_bytes(machine_.gpu.memory_bytes)
                        << "); projection assumes chunk-free residency";
  }

  // --- kernel projection: explore, pick the best, then "hand-code" the
  // same transformation on the machine (paper §IV-A) ---
  const bool try_fusion = app.kernels.size() == 1 && app.iterations > 1;
  for (std::size_t k = 0; k < app.kernels.size(); ++k) {
    const skeleton::KernelSkeleton& kernel = app.kernels[k];
    KernelResult result;
    result.name = kernel.name;

    std::shared_ptr<const gpumodel::ProjectedKernel> best;
    double best_total = std::numeric_limits<double>::infinity();
    std::int64_t best_launches = app.iterations;
    std::vector<int> fusions =
        try_fusion ? options_.fusion_candidates : std::vector<int>{1};
    for (int fuse : fusions) {
      if (fuse < 1 || fuse > app.iterations) continue;
      std::shared_ptr<const gpumodel::ProjectedKernel> candidate =
          usage_key ? gpumodel::cached_best(explorer_, *usage_key, app, k,
                                            fuse)
                    : std::make_shared<const gpumodel::ProjectedKernel>(
                          explorer_.best(app, kernel, fuse));
      const std::int64_t launches = (app.iterations + fuse - 1) / fuse;
      const double total = candidate->time.total_s *
                           static_cast<double>(launches);
      if (total < best_total) {
        best_total = total;
        best = std::move(candidate);
        best_launches = launches;
      }
    }
    GROPHECY_ENSURES(std::isfinite(best_total));

    result.projected = *best;
    result.launches = best_launches;
    result.predicted_s = best_total;
    const double per_launch = kernel_timer_->measure_launch_seconds(
        result.projected.characteristics, options_.measurement_runs);
    result.measured_s = per_launch * static_cast<double>(best_launches);
    report.predicted_kernel_s += result.predicted_s;
    report.measured_kernel_s += result.measured_s;
    report.kernels.push_back(std::move(result));
  }

  // --- transfer projection and measurement ---
  auto process_transfers = [&](const std::vector<dataflow::Transfer>& list) {
    for (const dataflow::Transfer& transfer : list) {
      TransferResult result;
      result.transfer = transfer;
      result.predicted_s =
          bus_model().predict_seconds(transfer.bytes, transfer.direction);
      result.measured_s = measurement_bus_.measure_mean(
          transfer.bytes, transfer.direction, options_.memory,
          options_.measurement_runs);
      report.predicted_transfer_s += result.predicted_s;
      report.measured_transfer_s += result.measured_s;
      report.transfers.push_back(std::move(result));
    }
  };
  process_transfers(report.plan.host_to_device);
  process_transfers(report.plan.device_to_host);

  // --- CPU baseline measurement ---
  report.measured_cpu_s =
      usage ? cpu_sim_.measure_app_seconds(usage->footprints, app.iterations,
                                           options_.measurement_runs)
            : cpu_sim_.measure_app_seconds(app, options_.measurement_runs);

  return report;
}

}  // namespace grophecy::core
