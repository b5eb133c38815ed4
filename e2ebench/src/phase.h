// What one measured phase of a workload produced.
//
// A phase is cut into windows: groups of 1000 consecutive completed
// requests (serve) or one sweep pass each (sweep). Every timing is taken
// over the calm windows: those in which the hypervisor stole no more CPU
// time per second from the VM than in the median window. That is at least
// half of the windows, and on a quiet host nearly all of them. On a shared
// host, a window whose vCPUs were taken away measures the host, not the
// program.
//
// Rates and medians are the median over the calm windows. On the serve
// workload the tail percentile is the lower decile, over the calm windows,
// of each window's p99: stalls of a millisecond that reach more than 1% of
// a window's requests set that window's p99, and /proc/stat counts stolen
// time only in 10 ms ticks, so calm windows still get such stalls. A tail
// the program itself adds shows in every window and still moves it. On the
// sweeps, where a window is itself one request, latency percentiles are
// those of the calm passes' wall times. CPU time is not charged for stolen
// time and is summed over the whole phase.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::duration duration) {
  return std::chrono::duration<double>(duration).count();
}

/// Linear-interpolated quantile q in [0, 1] of `values`.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

struct Window {
  std::size_t projections = 0;
  double wall_s = 0.0;
  /// CPU time the serving process spent in the window.
  double cpu_s = 0.0;
  /// CPU time the hypervisor stole from the VM during the window.
  double steal_s = 0.0;
  /// Serve: send -> reply of each request completed in the window, in
  /// seconds. Sweep: empty, as the window is itself one request: a pass,
  /// from handing the grid to the engine to its summary.
  std::vector<double> latency_s;
};

struct Phase {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Window> windows;
  double rss_peak_mb = 0.0;
  double speedup_err_pct = 0.0;

  /// The windows that lost no more time per second to the hypervisor than
  /// the median window.
  std::vector<const Window*> calm_windows() const {
    std::vector<double> steal_rates;
    for (const Window& window : windows)
      steal_rates.push_back(window.steal_s / window.wall_s);
    const double median = quantile(steal_rates, 0.5);
    std::vector<const Window*> calm;
    for (const Window& window : windows)
      if (window.steal_s / window.wall_s <= median) calm.push_back(&window);
    return calm;
  }

  /// Median over the calm windows of each window's rate.
  double projections_per_s() const {
    std::vector<double> rates;
    for (const Window* window : calm_windows())
      rates.push_back(static_cast<double>(window->projections) / window->wall_s);
    return quantile(std::move(rates), 0.5);
  }

  /// Median request latency, in seconds: over the calm windows, the median
  /// of each window's median (serve) or the median pass (sweep).
  double latency_p50_s() const { return latency_s(0.50, 0.5); }

  /// Tail request latency, in seconds: over the calm windows, the lower
  /// decile of each window's p99 (serve) or the p99 of the passes (sweep).
  double latency_p99_s() const { return latency_s(0.99, 0.1); }

  std::size_t projections() const {
    std::size_t total = 0;
    for (const Window& window : windows) total += window.projections;
    return total;
  }

  double wall_s() const {
    double total = 0.0;
    for (const Window& window : windows) total += window.wall_s;
    return total;
  }

  double cpu_s() const {
    double total = 0.0;
    for (const Window& window : windows) total += window.cpu_s;
    return total;
  }

 private:
  /// Serve: quantile `across` over the calm windows of each window's
  /// quantile `within`. Sweep: quantile `within` of the calm passes' wall
  /// times.
  double latency_s(double within, double across) const {
    const bool sweep = !windows.empty() && windows.front().latency_s.empty();
    std::vector<double> values;
    for (const Window* window : calm_windows())
      values.push_back(sweep ? window->wall_s : quantile(window->latency_s, within));
    return quantile(std::move(values), sweep ? within : across);
  }
};

}  // namespace e2e
