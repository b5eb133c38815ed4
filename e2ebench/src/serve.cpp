#include "serve.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "exec/sweep_request.h"
#include "proc.h"
#include "serve/socket_server.h"
#include "util/jsonl.h"

namespace e2e {

namespace {

using grophecy::exec::JobSpec;
using grophecy::serve::Client;

Client connect_when_ready(const std::string& socket_path) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (true) {
    Client client;
    if (client.connect(socket_path)) return client;
    if (Clock::now() > give_up)
      throw std::runtime_error("the daemon never accepted a connection on " +
                               socket_path);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Sends each line in turn on one connection; "" marks a missing reply.
std::vector<std::string> send_each(Client& client, const Lines& lines) {
  std::vector<std::string> replies(lines.lines.size());
  for (std::size_t i = 0; i < lines.lines.size(); ++i) {
    std::optional<std::string> reply = client.request(lines.lines[i]);
    if (!reply) break;
    replies[i] = std::move(*reply);
  }
  return replies;
}

/// One wire line asking the daemon to project `spec`.
std::string request_line(const std::string& id, const JobSpec& spec) {
  grophecy::util::FlatJson line;
  line.emplace_back("id", id);
  line.emplace_back("type", std::string("project"));
  line.emplace_back("workload", spec.workload);
  line.emplace_back("size", spec.size_label);
  line.emplace_back("iterations", static_cast<double>(spec.iterations));
  if (!spec.machine.empty()) line.emplace_back("machine", spec.machine);
  return grophecy::util::write_flat_json(line);
}

void stop_daemon(Client& client, Process& daemon) {
  client.request(R"({"id":"stop","type":"shutdown"})");
  client.close();
  const int code = daemon.wait();
  if (code != 0)
    throw std::runtime_error("serve_daemon exited with code " +
                             std::to_string(code));
}

}  // namespace

Lines make_lines(const std::vector<JobSpec>& specs, const std::string& prefix) {
  Lines lines;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lines.ids.push_back(prefix + std::to_string(i));
    lines.lines.push_back(request_line(lines.ids.back(), specs[i]));
  }
  return lines;
}

grophecy::exec::SweepEngine::JobFn serve_job_fn(const Inputs& inputs) {
  // Exactly what serve::Daemon builds for its canonical pipeline.
  const grophecy::serve::DaemonOptions defaults;
  return grophecy::exec::SweepRequest::on(defaults.machine)
      .options(defaults.projection)
      .seed(inputs.daemon_seed)
      .job_fn();
}

Loop closed_loop(const std::string& socket_path,
                 const std::vector<std::string>& lines, int connections,
                 const std::function<double()>& cpu_seconds,
                 const ReplyHook& hook) {
  const std::size_t count = lines.size();
  const std::size_t per_window = kWindowRequests;
  Loop loop;
  loop.replies.resize(count);
  std::vector<double> latency_s(count, 0.0);
  std::vector<std::size_t> completion_order(count);
  struct Mark {
    Clock::time_point time;
    double cpu_s = 0.0;
    double steal_s = 0.0;
    bool reached = false;
  };
  std::vector<Mark> marks(count / per_window + 1);

  std::vector<Client> clients(static_cast<std::size_t>(connections));
  for (Client& client : clients)
    if (!client.connect(socket_path))
      throw std::runtime_error("cannot connect to " + socket_path);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  auto mark = [&](std::size_t index) {
    marks[index] = {Clock::now(), cpu_seconds ? cpu_seconds() : 0.0,
                    steal_seconds(), true};
  };
  auto drive = [&](Client& client) {
    for (std::size_t i = next++; i < count; i = next++) {
      const Clock::time_point sent = Clock::now();
      if (!client.send_line(lines[i]) || !client.recv_line(&loop.replies[i])) {
        loop.replies[i].clear();
        return;
      }
      const Clock::time_point received = Clock::now();
      latency_s[i] = seconds(received - sent);
      const std::size_t done = ++completed;
      completion_order[done - 1] = i;
      if (done % per_window == 0 && done / per_window < marks.size())
        mark(done / per_window);
      if (hook) hook(i, sent, received);
    }
  };
  mark(0);
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients.size(); ++c)
    threads.emplace_back(drive, std::ref(clients[c]));
  drive(clients[0]);
  for (std::thread& thread : threads) thread.join();

  for (std::size_t w = 1; w < marks.size() && marks[w].reached; ++w) {
    Window window;
    window.projections = per_window;
    window.wall_s = seconds(marks[w].time - marks[w - 1].time);
    window.cpu_s = marks[w].cpu_s - marks[w - 1].cpu_s;
    window.steal_s = marks[w].steal_s - marks[w - 1].steal_s;
    for (std::size_t k = (w - 1) * per_window; k < w * per_window; ++k)
      window.latency_s.push_back(latency_s[completion_order[k]]);
    loop.windows.push_back(std::move(window));
  }
  return loop;
}

ServeRun run_serve(const Inputs& inputs, int cold_starts) {
  const Lines warmup = make_lines(inputs.warmup, "w");
  const Lines measured = make_lines(inputs.specs, "");
  const std::string socket_path = scratch_dir() + "/daemon.sock";
  const std::vector<std::string> argv{
      executable_dir() + "/tools/serve_daemon",
      "--socket", socket_path,
      "--workers", std::to_string(kDaemonWorkers),
      "--seed", std::to_string(inputs.daemon_seed)};
  const auto fn = serve_job_fn(inputs);

  ServeRun run;
  for (int start = 1; start <= cold_starts; ++start) {
    const Clock::time_point launched = Clock::now();
    Process daemon(argv, /*pipes=*/false);
    Client client = connect_when_ready(socket_path);
    const std::vector<std::string> warm_replies = send_each(client, warmup);
    run.setup_s.push_back(seconds(Clock::now() - launched));
    run.setup_attempted += warmup.lines.size();
    run.setup_failed +=
        check_replies(inputs.warmup, warmup.ids, warm_replies, fn).failed;
    if (start < cold_starts) {
      stop_daemon(client, daemon);
      continue;
    }

    Loop loop = closed_loop(socket_path, measured.lines, kConnections,
                            [&daemon] { return daemon.cpu_seconds(); });
    run.phase.rss_peak_mb = daemon.peak_rss_mb();
    stop_daemon(client, daemon);

    run.phase.windows = std::move(loop.windows);
    run.phase.attempted = measured.lines.size();
    const Checked checked =
        check_replies(inputs.specs, measured.ids, loop.replies, fn);
    run.phase.failed = checked.failed;
    run.phase.speedup_err_pct = checked.speedup_err_pct;
    run.replies = std::move(loop.replies);
  }
  return run;
}

ServeTrace trace_serve(const Inputs& inputs) {
  // The latest execution of each spec. A request's reply comes from the
  // execution of its spec that was queued or running when it arrived;
  // two requests for one spec coalesce onto one execution.
  struct Execution {
    Clock::time_point start;
    Clock::time_point end;
  };
  struct ExecLog {
    std::mutex mutex;
    std::map<std::string, Execution> latest;
    double job_s = 0.0;
    std::size_t calls = 0;
  };
  auto log = std::make_shared<ExecLog>();

  grophecy::serve::DaemonOptions options;
  options.workers = kDaemonWorkers;
  options.base_seed = inputs.daemon_seed;
  options.job_fn = [inner = serve_job_fn(inputs), log](const JobSpec& spec) {
    const Clock::time_point start = Clock::now();
    grophecy::core::ProjectionReport report = inner(spec);
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(log->mutex);
    log->latest[spec.key()] = {start, end};
    log->job_s += seconds(end - start);
    ++log->calls;
    return report;
  };

  const Lines warmup = make_lines(inputs.warmup, "w");
  const Lines measured = make_lines(inputs.specs, "");
  std::vector<std::string> keys;
  for (const JobSpec& spec : inputs.specs) keys.push_back(spec.key());

  ServeTrace trace;
  grophecy::serve::Daemon daemon(options);
  daemon.start();
  grophecy::serve::SocketServer server(
      daemon, {.socket_path = scratch_dir() + "/traced.sock"});
  server.start();
  {
    Client client = connect_when_ready(server.options().socket_path);
    send_each(client, warmup);
  }
  const grophecy::serve::DaemonStats before = daemon.stats();
  {
    std::lock_guard<std::mutex> lock(log->mutex);
    log->job_s = 0.0;
    log->calls = 0;
  }

  Loop loop = closed_loop(
      server.options().socket_path, measured.lines, kConnections, {},
      [&](std::size_t i, Clock::time_point sent, Clock::time_point received) {
        std::lock_guard<std::mutex> lock(log->mutex);
        const auto found = log->latest.find(keys[i]);
        if (found == log->latest.end()) return;
        const Execution& run = found->second;
        trace.queue_wait_s += std::max(0.0, seconds(run.start - sent));
        trace.overhead_s +=
            seconds(received - sent) - seconds(run.end - std::max(run.start, sent));
      });
  const grophecy::serve::DaemonStats after = daemon.stats();
  server.stop();
  daemon.shutdown();

  trace.stats.received = after.received - before.received;
  trace.stats.executed = after.executed - before.executed;
  trace.stats.coalesce_hits = after.coalesce_hits - before.coalesce_hits;
  trace.job_s = log->job_s;
  trace.job_calls = log->calls;
  trace.phase.windows = std::move(loop.windows);
  trace.phase.attempted = measured.lines.size();
  trace.replies = std::move(loop.replies);
  return trace;
}

}  // namespace e2e
