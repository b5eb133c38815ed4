// e2ebench: the end-to-end projection benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload (serve-hot, sweep-fleet, sweep-detailed)
// and prints, as the last line of standard output, one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation in the program's path. With --trace 1 they are the
// per-layer ones: the same measured phase runs once untraced and once with
// the serving layer hosted in this process behind timing wrappers, and a
// replay times the pipeline's stages. The exit code is 0 only when every
// output matched. See README.md for the workloads and metrics.
//
// Internal modes: --host NAME (a sweep host, see sweep.h), --list-metrics
// and --dump-inputs NAME (used by test_e2ebench.py).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "dataflow/usage_cache.h"
#include "hw/machine_registry.h"
#include "inputs.h"
#include "metrics.h"
#include "pcie/calibration_cache.h"
#include "phase.h"
#include "proc.h"
#include "replay.h"
#include "serve.h"
#include "serve/protocol.h"
#include "sweep.h"
#include "util/jsonl.h"
#include "workloads/skeleton_cache.h"

namespace e2e {
namespace {

/// Cold starts per untraced run; setup_s is their median.
constexpr int kColdStarts = 15;
/// serve-hot has only 20 distinct specs: the replay times each of them this
/// many times, so it times as many projections as a sweep pass.
constexpr int kServeReplayRounds = 50;

/// The result line: metric values in definition order.
class Result {
 public:
  explicit Result(const std::vector<MetricDef>& defs) : defs_(defs) {}

  void set(const std::string& name, double value) {
    if (!std::isfinite(value))
      throw std::logic_error("metric " + name + " is not finite");
    values_[name] = value;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::string json() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 && attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : defs_) {
      const auto found = values_.find(def.name);
      if (found == values_.end())
        throw std::logic_error(std::string("metric ") + def.name + " was not measured");
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", found->second);
      out += first ? "\"" : ", \"";
      out += def.name;
      out += "\": {\"value\": ";
      out += value;
      out += ", \"unit\": \"";
      out += def.unit;
      out += "\"}";
      first = false;
    }
    return out + "}}";
  }

 private:
  const std::vector<MetricDef>& defs_;
  std::map<std::string, double> values_;
};

void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const Phase& phase) {
  result.set("setup_s", quantile(setup_s, 0.5));
  result.set("proj_per_s", phase.projections_per_s());
  result.set("latency_p50_ms", phase.latency_p50_s() * 1e3);
  result.set("latency_p99_ms", phase.latency_p99_s() * 1e3);
  result.set("cpu_ms_per_proj",
             phase.cpu_s() * 1e3 / static_cast<double>(phase.projections()));
  result.set("rss_peak_mb", phase.rss_peak_mb);
  result.set("speedup_err_pct", phase.speedup_err_pct);
}

/// Projections the traced phase got wrong: it must reproduce the untraced
/// phase's (checked) outputs exactly.
template <typename Outputs>
std::size_t differing(const Outputs& traced, const Outputs& untraced) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < traced.size(); ++i)
    count += i >= untraced.size() || traced[i] != untraced[i];
  return count + (untraced.size() > traced.size() ? untraced.size() - traced.size() : 0);
}

Served served_from(const grophecy::exec::JobSpec& spec, std::uint64_t seed,
                   const std::string& output) {
  const auto object = grophecy::util::parse_flat_json(output);
  Served served{spec, seed, -1.0, -1.0};
  if (object) {
    served.predicted_kernel_s =
        grophecy::util::json_number(*object, "predicted_kernel_s").value_or(-1.0);
    served.predicted_transfer_s =
        grophecy::util::json_number(*object, "predicted_transfer_s").value_or(-1.0);
  }
  return served;
}

/// Cache counts of this process since the last clear_caches().
void set_cache_counts(Result& result) {
  const auto calibration = grophecy::pcie::CalibrationCache::instance().stats();
  result.set("pcie.calibration_hits", static_cast<double>(calibration.hits));
  result.set("pcie.calibration_misses", static_cast<double>(calibration.misses));
  auto& skeletons = grophecy::workloads::skeleton_cache();
  result.set("workloads.skeleton_misses",
             static_cast<double>(skeletons.stats().misses));
  result.set("workloads.skeleton_entries", static_cast<double>(skeletons.size()));
  result.set("dataflow.usage_misses",
             static_cast<double>(grophecy::dataflow::usage_cache().stats().misses));
}

void set_replay_metrics(Result& result, const LayerTotals& totals) {
  const double n = static_cast<double>(totals.projections);
  result.set("core.engine_us", totals.engine_s * 1e6 / n);
  result.set("core.project_us", totals.project_s * 1e6 / n);
  result.set("pcie.calibrate_ms", totals.calibrate_s * 1e3 /
                                      static_cast<double>(totals.calibrations));
  result.set("pcie.measure_us", totals.bus_s * 1e6 / n);
  result.set("workloads.skeleton_us", totals.skeleton_s * 1e6 / n);
  result.set("dataflow.usage_us", totals.usage_s * 1e6 / n);
  result.set("gpumodel.explore_us", totals.explore_s * 1e6 / n);
  result.set("gpumodel.variants", static_cast<double>(totals.variants) / n);
  result.set("gpumodel.pruned", static_cast<double>(totals.pruned) / n);
  result.set("gpumodel.memo_hit_ratio",
             static_cast<double>(totals.memo_hits) /
                 static_cast<double>(totals.memo_lookups));
  result.set("cpumodel.measure_us", totals.cpu_s * 1e6 / n);
  result.set("sim.measure_us", totals.sim_s * 1e6 / n);
  result.set("sim.events", static_cast<double>(totals.sim_events) / n);
  result.set("sim.blocks", static_cast<double>(totals.sim_blocks) / n);
}

void set_trace_overhead(Result& result, const Phase& untraced, const Phase& traced) {
  result.set("trace.proj_per_s", traced.projections_per_s());
  result.set("trace.overhead_pct",
             (1.0 - traced.projections_per_s() / untraced.projections_per_s()) * 100.0);
}

Result run_untraced(const Workload& workload, std::uint64_t seed, int run_seconds) {
  const Inputs inputs = make_inputs(workload, seed, run_seconds);
  Result result(end_to_end_metrics());
  std::vector<double> setup_s;
  Phase phase;
  if (workload.serves()) {
    ServeRun run = run_serve(inputs, kColdStarts);
    result.attempted += run.setup_attempted;
    result.failed += run.setup_failed;
    setup_s = run.setup_s;
    phase = std::move(run.phase);
  } else {
    SweepRun run = run_sweep(workload, seed, run_seconds, inputs, kColdStarts);
    setup_s = run.setup_s;
    phase = std::move(run.phase);
  }
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  set_end_to_end(result, setup_s, phase);
  std::fprintf(stderr,
               "%s: %zu projections in %.3f s, %zu windows, %zu failed\n",
               workload.name, phase.attempted, phase.wall_s(),
               phase.windows.size(), result.failed);
  return result;
}

Result run_traced_serve(const Inputs& inputs, Result result) {
  const ServeRun base = run_serve(inputs, 1);
  result.attempted += base.setup_attempted + base.phase.attempted;
  result.failed += base.setup_failed + base.phase.failed;

  clear_caches();
  const ServeTrace traced = trace_serve(inputs);
  set_cache_counts(result);
  result.attempted += traced.phase.attempted;
  result.failed += differing(traced.replies, base.replies);

  const double requests = static_cast<double>(traced.phase.attempted);
  result.set("serve.queue_wait_us", traced.queue_wait_s * 1e6 / requests);
  result.set("serve.overhead_us", traced.overhead_s * 1e6 / requests);
  result.set("serve.exec_ratio", static_cast<double>(traced.stats.executed) /
                                     static_cast<double>(traced.stats.received));
  result.set("serve.coalesce_hits", static_cast<double>(traced.stats.coalesce_hits));
  result.set("exec.job_us", traced.job_s * 1e6 / static_cast<double>(traced.job_calls));
  result.set("exec.engine_overhead_pct",
             (1.0 - traced.job_s / (traced.phase.wall_s() * kDaemonWorkers)) * 100.0);
  result.set("exec.deduped", 0.0);
  result.set("exec.retried",
             static_cast<double>(traced.job_calls - traced.stats.executed));
  set_trace_overhead(result, base.phase, traced.phase);

  // The wire codecs over the run's own lines and reports.
  const Lines lines = make_lines(inputs.specs, "");
  Clock::time_point start = Clock::now();
  for (const std::string& line : lines.lines) grophecy::serve::parse_request(line);
  result.set("serve.parse_us",
             seconds(Clock::now() - start) * 1e6 / static_cast<double>(lines.lines.size()));

  std::vector<Served> served;
  std::map<std::string, grophecy::core::ProjectionReport> reports;
  const auto fn = serve_job_fn(inputs);
  for (std::size_t i = 0; i < inputs.specs.size(); ++i) {
    const std::string key = inputs.specs[i].key();
    if (reports.count(key)) continue;
    reports.emplace(key, fn(inputs.specs[i]));
    served.push_back(served_from(inputs.specs[i], inputs.daemon_seed, base.replies[i]));
  }
  start = Clock::now();
  for (std::size_t i = 0; i < inputs.specs.size(); ++i)
    grophecy::serve::projection_reply(lines.ids[i], reports.at(inputs.specs[i].key()), 1);
  result.set("serve.reply_us", seconds(Clock::now() - start) * 1e6 /
                                   static_cast<double>(inputs.specs.size()));

  const LayerTotals totals = replay(
      served, grophecy::core::ProjectionOptions{}, kServeReplayRounds,
      [&] { for (const grophecy::exec::JobSpec& spec : inputs.warmup) fn(spec); });
  set_replay_metrics(result, totals);
  result.attempted += totals.projections;
  result.failed += totals.mismatches;
  return result;
}

Result run_traced_sweep(const Workload& workload, std::uint64_t seed, int run_seconds,
                        const Inputs& inputs, Result result) {
  const SweepRun base = run_sweep(workload, seed, run_seconds, inputs, 1);
  result.attempted += base.phase.attempted;
  result.failed += base.phase.failed;

  clear_caches();
  const SweepTrace traced = trace_sweep(inputs);
  set_cache_counts(result);
  result.attempted += traced.phase.attempted;
  result.failed += differing(traced.records, base.records);

  // The serve layer does no work in a sweep.
  for (const char* name : {"serve.parse_us", "serve.reply_us", "serve.queue_wait_us",
                           "serve.overhead_us", "serve.exec_ratio", "serve.coalesce_hits"})
    result.set(name, 0.0);
  result.set("exec.job_us", traced.job_s * 1e6 / static_cast<double>(traced.job_calls));
  result.set("exec.engine_overhead_pct",
             (1.0 - traced.job_s / (traced.phase.wall_s() * inputs.workers)) * 100.0);
  result.set("exec.deduped", traced.deduped);
  result.set("exec.retried", traced.retried);
  set_trace_overhead(result, base.phase, traced.phase);

  std::vector<Served> served;
  for (std::size_t j = 0; j < inputs.specs.size() && j < base.records.front().size(); ++j)
    served.push_back(served_from(inputs.specs[j], inputs.pass_seeds.front(),
                                 base.records.front()[j]));
  const LayerTotals totals =
      replay(served, inputs.options, 1, [&] { warm_up_sweep(inputs); });
  set_replay_metrics(result, totals);
  result.attempted += totals.projections;
  result.failed += totals.mismatches;
  return result;
}

Result run_traced(const Workload& workload, std::uint64_t seed, int run_seconds) {
  // The first registry access in this process builds the fleet.
  const Clock::time_point start = Clock::now();
  grophecy::hw::MachineRegistry::global();
  Result result(per_layer_metrics());
  result.set("hw.registry_ms", seconds(Clock::now() - start) * 1e3);

  const Inputs inputs = make_inputs(workload, seed, run_seconds);
  if (workload.serves()) return run_traced_serve(inputs, std::move(result));
  return run_traced_sweep(workload, seed, run_seconds, inputs, std::move(result));
}

void list_metrics() {
  for (const MetricDef& def : end_to_end_metrics())
    std::printf("end_to_end %s %s\n", def.name, def.unit);
  for (const MetricDef& def : per_layer_metrics())
    std::printf("per_layer %s %s\n", def.name, def.unit);
}

void dump_inputs(const Workload& workload, std::uint64_t seed, int run_seconds) {
  const Inputs inputs = make_inputs(workload, seed, run_seconds);
  std::printf("daemon_seed %llu\nwarmup_seed %llu\n",
              static_cast<unsigned long long>(inputs.daemon_seed),
              static_cast<unsigned long long>(inputs.warmup_seed));
  for (std::uint64_t pass_seed : inputs.pass_seeds)
    std::printf("pass_seed %llu\n", static_cast<unsigned long long>(pass_seed));
  for (const grophecy::exec::JobSpec& spec : inputs.warmup)
    std::printf("warmup %s\n", spec.key().c_str());
  for (const grophecy::exec::JobSpec& spec : inputs.specs)
    std::printf("spec %s\n", spec.key().c_str());
}

struct Args {
  std::string mode;  ///< "workload", "host", "dump-inputs" or "list-metrics".
  std::string workload;
  std::uint64_t seed = 0;
  int run_seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       e2ebench --list-metrics\n"
               "       e2ebench --dump-inputs NAME --seed N --seconds S\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.mode = "list-metrics";
      continue;
    }
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload" || flag == "--host" || flag == "--dump-inputs") {
      args.mode = flag.substr(2);
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.run_seconds = std::stoi(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage();
      args.trace = value == "1";
    } else {
      usage();
    }
  }
  if (args.mode.empty() || (args.mode != "list-metrics" && args.run_seconds < 1)) usage();
  return args;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = parse_args(argc, argv);
  // The fleet is the builtin and shipped machines only, in this process
  // and in every daemon and host it starts.
  unsetenv("GROPHECY_MACHINE_PATH");
  int code = 0;
  try {
    if (args.mode == "list-metrics") {
      list_metrics();
      return 0;
    }
    const Workload& workload = find_workload(args.workload);
    if (args.mode == "host") return host_main(workload, args.seed, args.run_seconds);
    if (args.mode == "dump-inputs") {
      dump_inputs(workload, args.seed, args.run_seconds);
      return 0;
    }
    const Result result = args.trace ? run_traced(workload, args.seed, args.run_seconds)
                                     : run_untraced(workload, args.seed, args.run_seconds);
    std::printf("%s\n", result.json().c_str());
    code = result.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s\n", error.what());
    code = 2;
  }
  remove_scratch_dir();
  return code;
}
