#include "checks.h"

#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "serve/protocol.h"

namespace e2e {

using grophecy::exec::JobRecord;
using grophecy::exec::JobSpec;

namespace {

/// Threads the checks run on: all 4 vCPUs, as they run outside the timed
/// phases.
constexpr int kCheckThreads = 4;

/// Runs body(0..count-1) on up to `threads` threads.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto worker = [&] {
    try {
      for (std::size_t i = next++; i < count; i = next++) body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      next = count;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

Checked check_replies(const std::vector<JobSpec>& specs,
                      const std::vector<std::string>& ids,
                      const std::vector<std::string>& replies,
                      const grophecy::exec::SweepEngine::JobFn& fn) {
  std::map<std::string, std::vector<std::size_t>> by_spec;
  for (std::size_t i = 0; i < specs.size(); ++i)
    by_spec[specs[i].key()].push_back(i);
  std::vector<const std::vector<std::size_t>*> groups;
  for (const auto& entry : by_spec) groups.push_back(&entry.second);

  std::atomic<std::size_t> failed{0};
  std::vector<double> errors(groups.size(), 0.0);
  parallel_for(groups.size(), kCheckThreads, [&](std::size_t g) {
    const std::vector<std::size_t>& requests = *groups[g];
    grophecy::core::ProjectionReport report;
    try {
      report = fn(specs[requests.front()]);
    } catch (const std::exception&) {
      failed += requests.size();
      return;
    }
    errors[g] = report.speedup_error_both_pct();
    for (std::size_t i : requests)
      if (replies[i] != grophecy::serve::projection_reply(ids[i], report, 1))
        ++failed;
  });

  Checked checked;
  checked.failed = failed;
  for (double error : errors) checked.speedup_err_pct += error;
  if (!errors.empty())
    checked.speedup_err_pct /= static_cast<double>(errors.size());
  return checked;
}

Checked check_records(
    const std::vector<JobSpec>& specs,
    const std::vector<grophecy::exec::SweepEngine::JobFn>& pass_fns,
    const std::vector<std::vector<std::string>>& records) {
  const std::size_t per_pass = specs.size();
  std::atomic<std::size_t> failed{0};
  std::vector<double> errors(pass_fns.size() * per_pass, 0.0);
  parallel_for(errors.size(), kCheckThreads, [&](std::size_t item) {
    const std::size_t pass = item / per_pass;
    const std::size_t job = item % per_pass;
    if (pass >= records.size() || job >= records[pass].size()) {
      ++failed;
      return;
    }
    try {
      const grophecy::core::ProjectionReport report =
          pass_fns[pass](specs[job]);
      errors[item] = report.speedup_error_both_pct();
      if (records[pass][job] !=
          JobRecord::from_report(specs[job], report, 1, 0.0).to_json())
        ++failed;
    } catch (const std::exception&) {
      ++failed;
    }
  });

  Checked checked;
  checked.failed = failed;
  for (double error : errors) checked.speedup_err_pct += error;
  if (!errors.empty())
    checked.speedup_err_pct /= static_cast<double>(errors.size());
  return checked;
}

}  // namespace e2e
