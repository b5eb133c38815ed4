#include "sweep.h"

#include <time.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "checks.h"
#include "exec/sweep_request.h"
#include "hw/registry.h"
#include "proc.h"

namespace e2e {

namespace {

using grophecy::exec::JobOutcome;
using grophecy::exec::JobSpec;
using grophecy::exec::SweepSummary;

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

std::string journal_path(const std::string& pass) {
  return scratch_dir() + "/" + pass + ".journal";
}

}  // namespace

grophecy::exec::SweepEngine::JobFn sweep_job_fn(
    const grophecy::core::ProjectionOptions& options, std::uint64_t seed) {
  return grophecy::exec::SweepRequest::on(grophecy::hw::anl_eureka())
      .options(options)
      .seed(seed)
      .job_fn();
}

std::vector<grophecy::exec::SweepEngine::JobFn> pass_job_fns(
    const Inputs& inputs) {
  std::vector<grophecy::exec::SweepEngine::JobFn> fns;
  for (std::uint64_t seed : inputs.pass_seeds)
    fns.push_back(sweep_job_fn(inputs.options, seed));
  return fns;
}

SweepSummary run_pass(const Inputs& inputs, const std::vector<JobSpec>& specs,
                      const grophecy::exec::SweepEngine::JobFn& fn,
                      const std::string& journal) {
  grophecy::exec::SweepOptions options;
  options.workers = inputs.workers;
  options.record_wall_time = false;
  if (inputs.journal) {
    std::filesystem::remove(journal);
    options.journal_path = journal;
  }
  grophecy::exec::SweepEngine engine(options);
  SweepSummary summary = engine.run(specs, fn);
  if (inputs.journal) std::filesystem::remove(journal);
  return summary;
}

void warm_up_sweep(const Inputs& inputs) {
  run_pass(inputs, inputs.warmup,
           sweep_job_fn(grophecy::core::ProjectionOptions{}, inputs.warmup_seed),
           journal_path("warmup"));
}

int host_main(const Workload& workload, std::uint64_t seed, int run_seconds) {
  const Inputs inputs = make_inputs(workload, seed, run_seconds);
  warm_up_sweep(inputs);
  std::cout << "ready" << std::endl;
  std::string command;
  if (!std::getline(std::cin, command) || command != "go") {
    remove_scratch_dir();
    return 0;
  }

  const std::vector<grophecy::exec::SweepEngine::JobFn> fns =
      pass_job_fns(inputs);
  for (std::size_t pass = 0; pass < fns.size(); ++pass) {
    const double cpu_before = process_cpu_seconds();
    const double steal_before = steal_seconds();
    const Clock::time_point start = Clock::now();
    const SweepSummary summary =
        run_pass(inputs, inputs.specs, fns[pass],
                 journal_path("pass" + std::to_string(pass)));
    const double wall_s = seconds(Clock::now() - start);
    const double cpu_s = process_cpu_seconds() - cpu_before;
    const double steal_s = steal_seconds() - steal_before;
    std::string out;
    for (const JobOutcome& outcome : summary.outcomes) {
      out += outcome.record.to_json();
      out += '\n';
    }
    char pass_line[96];
    std::snprintf(pass_line, sizeof pass_line, "pass %.17g %.17g %.17g\n",
                  wall_s, cpu_s, steal_s);
    out += pass_line;
    std::cout << out;
  }
  std::cout << "done" << std::endl;
  std::getline(std::cin, command);  // the parent reads /proc, then says quit
  remove_scratch_dir();
  return 0;
}

SweepRun run_sweep(const Workload& workload, std::uint64_t seed, int run_seconds,
                   const Inputs& inputs, int cold_starts) {
  const std::vector<std::string> argv{
      executable_dir() + "/e2ebench", "--host", workload.name,
      "--seed", std::to_string(seed), "--seconds", std::to_string(run_seconds)};
  SweepRun run;
  for (int start = 1; start <= cold_starts; ++start) {
    const Clock::time_point launched = Clock::now();
    Process host(argv, /*pipes=*/true);
    std::string line;
    if (!host.read_line(&line) || line != "ready")
      throw std::runtime_error("the sweep host failed its warm-up pass");
    run.setup_s.push_back(seconds(Clock::now() - launched));
    if (start < cold_starts) {
      host.send_line("quit");
      if (host.wait() != 0) throw std::runtime_error("the sweep host failed");
      continue;
    }

    host.send_line("go");
    run.records.emplace_back();
    while (host.read_line(&line) && line != "done") {
      if (line.rfind("pass ", 0) != 0) {
        run.records.back().push_back(line);
        continue;
      }
      Window window;
      window.projections = run.records.back().size();
      std::istringstream fields(line.substr(5));
      fields >> window.wall_s >> window.cpu_s >> window.steal_s;
      run.phase.windows.push_back(window);
      run.records.emplace_back();
    }
    run.records.pop_back();
    if (line != "done")
      throw std::runtime_error("the sweep host died in the measured phase");
    run.phase.rss_peak_mb = host.peak_rss_mb();
    host.send_line("quit");
    if (host.wait() != 0) throw std::runtime_error("the sweep host failed");
  }

  run.phase.attempted = inputs.pass_seeds.size() * inputs.specs.size();
  const Checked checked =
      check_records(inputs.specs, pass_job_fns(inputs), run.records);
  run.phase.failed = checked.failed;
  run.phase.speedup_err_pct = checked.speedup_err_pct;
  return run;
}

SweepTrace trace_sweep(const Inputs& inputs) {
  warm_up_sweep(inputs);
  SweepTrace trace;
  std::mutex mutex;
  const std::vector<grophecy::exec::SweepEngine::JobFn> fns =
      pass_job_fns(inputs);
  for (std::size_t pass = 0; pass < fns.size(); ++pass) {
    auto timed = [&, inner = fns[pass]](const JobSpec& spec) {
      const Clock::time_point job_start = Clock::now();
      grophecy::core::ProjectionReport report = inner(spec);
      const double job_s = seconds(Clock::now() - job_start);
      std::lock_guard<std::mutex> lock(mutex);
      trace.job_s += job_s;
      ++trace.job_calls;
      return report;
    };
    const Clock::time_point start = Clock::now();
    const double steal_before = steal_seconds();
    const SweepSummary summary =
        run_pass(inputs, inputs.specs, timed, journal_path("traced"));
    Window window;
    window.projections = summary.outcomes.size();
    window.wall_s = seconds(Clock::now() - start);
    window.steal_s = steal_seconds() - steal_before;
    trace.phase.windows.push_back(window);
    trace.records.emplace_back();
    for (const JobOutcome& outcome : summary.outcomes)
      trace.records.back().push_back(outcome.record.to_json());
    trace.deduped += summary.deduped;
    trace.retried += summary.retried;
  }
  trace.phase.attempted = fns.size() * inputs.specs.size();
  return trace;
}

}  // namespace e2e
