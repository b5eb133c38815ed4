// Names and units of every metric the benchmark prints. BENCHMARK.json
// lists the same names and units; test_e2ebench.py checks they agree.
#pragma once

#include <string>
#include <vector>

namespace e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0), whatever the workload.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"},
      {"proj_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"cpu_ms_per_proj", "ms"},
      {"rss_peak_mb", "MiB"},
      {"speedup_err_pct", "%"},
  };
  return defs;
}

/// Printed by every traced run (--trace 1). A layer the workload does not
/// exercise (the serve layer on the sweeps) reads 0.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"serve.parse_us", "us"},
      {"serve.reply_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.overhead_us", "us"},
      {"serve.exec_ratio", "ratio"},
      {"serve.coalesce_hits", "count"},
      {"exec.job_us", "us"},
      {"exec.engine_overhead_pct", "%"},
      {"exec.deduped", "count"},
      {"exec.retried", "count"},
      {"core.engine_us", "us"},
      {"core.project_us", "us"},
      {"pcie.calibration_hits", "count"},
      {"pcie.calibration_misses", "count"},
      {"pcie.calibrate_ms", "ms"},
      {"pcie.measure_us", "us"},
      {"workloads.skeleton_us", "us"},
      {"workloads.skeleton_misses", "count"},
      {"workloads.skeleton_entries", "count"},
      {"dataflow.usage_us", "us"},
      {"dataflow.usage_misses", "count"},
      {"gpumodel.explore_us", "us"},
      {"gpumodel.variants", "count"},
      {"gpumodel.pruned", "count"},
      {"gpumodel.memo_hit_ratio", "ratio"},
      {"cpumodel.measure_us", "us"},
      {"sim.measure_us", "us"},
      {"sim.events", "count"},
      {"sim.blocks", "count"},
      {"hw.registry_ms", "ms"},
      {"trace.proj_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

}  // namespace e2e
