#include "serve/daemon.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "dataflow/usage_cache.h"
#include "exec/sweep_request.h"
#include "hw/machine_registry.h"
#include "pcie/calibration_cache.h"
#include "util/contracts.h"
#include "util/jsonl.h"
#include "util/table.h"
#include "workloads/skeleton_cache.h"
#include "workloads/workload.h"

namespace grophecy::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point when) {
  return std::chrono::duration<double>(when - Clock::now()).count();
}

std::string timeout_reply(std::string_view id, const exec::JobSpec& spec) {
  return error_reply(
      id, ErrorKind::kTimeout,
      util::strfmt("deadline expired before %s completed",
                   spec.key().c_str()));
}

std::string stats_reply(std::string_view id, const DaemonStats& stats) {
  util::FlatJson reply;
  reply.emplace_back("id", std::string(id));
  reply.emplace_back("status", std::string("ok"));
  reply.emplace_back("type", std::string("stats"));
  const auto count = [&reply](const char* name, std::uint64_t value) {
    reply.emplace_back(name, static_cast<double>(value));
  };
  count("received", stats.received);
  count("replies", stats.replies);
  count("ok", stats.ok);
  count("degraded", stats.degraded);
  count("timeouts", stats.timeouts);
  count("shed", stats.shed);
  count("failed", stats.failed);
  count("parse_errors", stats.parse_errors);
  count("usage_errors", stats.usage_errors);
  count("coalesce_hits", stats.coalesce_hits);
  count("memo_hits", stats.memo_hits);
  count("executed", stats.executed);
  count("expired_unrun", stats.expired_unrun);
  count("abandoned", stats.abandoned);
  count("queue_depth", stats.queue_depth);
  count("inflight", stats.inflight);
  count("memo_entries", stats.memo_entries);
  reply.emplace_back("ema_exec_ms", stats.ema_exec_s * 1e3);
  count("calibration_hits", stats.calibration_hits);
  count("calibration_misses", stats.calibration_misses);
  count("skeleton_cache_hits", stats.skeleton_cache_hits);
  count("skeleton_cache_misses", stats.skeleton_cache_misses);
  count("usage_cache_hits", stats.usage_cache_hits);
  count("usage_cache_misses", stats.usage_cache_misses);
  return util::write_flat_json(reply);
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  GROPHECY_EXPECTS(options_.workers >= 0);
  GROPHECY_EXPECTS(options_.max_queue_depth >= 1);
  GROPHECY_EXPECTS(options_.default_deadline_s > 0.0);
  GROPHECY_EXPECTS(options_.max_deadline_s > 0.0);
  GROPHECY_EXPECTS(options_.max_retries >= 0);
  options_.projection.validate();
  job_fn_ = options_.job_fn ? options_.job_fn : make_pipeline_job_fn();
  if (options_.workers > 0) {
    workers_ = options_.workers;
  } else {
    const unsigned hardware = std::thread::hardware_concurrency();
    workers_ = hardware > 0 ? static_cast<int>(hardware) : 1;
  }
}

Daemon::~Daemon() { shutdown(/*drain=*/true); }

exec::SweepEngine::JobFn Daemon::make_pipeline_job_fn() const {
  // The canonical per-job construction, shared with the batch path: a
  // daemon request and a sweep job of the same (workload, size,
  // iterations) measure identical values, and every request on this
  // machine hits the same CalibrationCache entry.
  return exec::SweepRequest::on(options_.machine)
      .options(options_.projection)
      .seed(options_.base_seed)
      .job_fn();
}

void Daemon::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  GROPHECY_EXPECTS(!started_);
  started_ = true;
  stopping_ = false;
  pool_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i)
    pool_.emplace_back([this] { worker_loop(); });
}

void Daemon::shutdown(bool drain) {
  std::vector<std::shared_ptr<Task>> cancelled;
  std::vector<std::thread> pool;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    drain_ = drain;
    if (!drain) {
      // Cancelled jobs still honour exactly-one-reply: every waiter gets
      // a typed overloaded rejection naming the reason.
      cancelled.assign(queue_.begin(), queue_.end());
      queue_.clear();
      for (const std::shared_ptr<Task>& task : cancelled) {
        auto it = inflight_.find(task->spec.fingerprint());
        if (it != inflight_.end() && it->second == task) inflight_.erase(it);
      }
    }
    pool.swap(pool_);
    work_cv_.notify_all();
  }

  for (const std::shared_ptr<Task>& task : cancelled) {
    std::vector<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      waiters = std::move(task->waiters);
      task->waiters.clear();
      stats_.shed += waiters.size();
    }
    for (Waiter& waiter : waiters)
      reply_now(waiter.reply,
                error_reply(waiter.id, ErrorKind::kOverloaded,
                            "daemon is shutting down; request cancelled"));
  }

  for (std::thread& thread : pool)
    if (thread.joinable()) thread.join();

  // With the pool joined nothing can abandon another attempt; join the
  // abandoned ones (the exec::AttemptRunner contract: they terminate).
  attempts_.join_strays();
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
}

void Daemon::reply_now(const ReplyFn& reply, std::string text) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.replies;
  }
  if (reply) reply(std::move(text));
}

double Daemon::retry_after_hint_locked() const {
  // Expected time until a queue slot frees: the backlog divided by the
  // observed service rate. Before any job has completed, guess 1 ms.
  const double per_job =
      ema_seeded_ ? std::max(stats_.ema_exec_s, 1e-6) : 1e-3;
  const double wait_s = (static_cast<double>(queue_.size()) + 1.0) *
                        per_job / static_cast<double>(workers_);
  return std::clamp(std::ceil(wait_s * 1e3), 1.0, 60000.0);
}

void Daemon::handle_line(std::string line, ReplyFn reply) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.received;
  }

  std::variant<Request, WireError> parsed = parse_request(line);
  if (const WireError* error = std::get_if<WireError>(&parsed)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error->kind == ErrorKind::kParse)
        ++stats_.parse_errors;
      else
        ++stats_.usage_errors;
    }
    reply_now(reply, error_reply(error->id, error->kind, error->message));
    return;
  }

  const Request& request = std::get<Request>(parsed);
  switch (request.type) {
    case RequestType::kPing:
      reply_now(reply, pong_reply(request.id));
      return;
    case RequestType::kStats:
      reply_now(reply, stats_reply(request.id, stats()));
      return;
    case RequestType::kShutdown: {
      util::FlatJson ack;
      ack.emplace_back("id", request.id);
      ack.emplace_back("status", std::string("ok"));
      ack.emplace_back("type", std::string("shutdown"));
      reply_now(reply, util::write_flat_json(ack));
      if (options_.on_shutdown_request) options_.on_shutdown_request();
      return;
    }
    case RequestType::kProject:
      break;
  }

  // Reject unknown names before they consume a queue slot — a stream of
  // bad requests must not be able to starve good ones. Only possible for
  // the canonical pipeline (a custom job_fn owns its own name space).
  if (!options_.job_fn) {
    try {
      const workloads::Workload& workload =
          workloads::PaperSuite::instance().find(request.workload);
      workloads::find_data_size(workload, request.size_label);
      // An explicit machine must name a registered one; the canonical
      // job function would throw the same UsageError at execution, but
      // by then the request holds a queue slot.
      if (!request.machine.empty())
        hw::MachineRegistry::global().find(request.machine);
    } catch (const UsageError& error) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.usage_errors;
      }
      reply_now(reply,
                error_reply(request.id, ErrorKind::kUsage, error.what()));
      return;
    }
  }

  // The machine joins the spec (and so the fingerprint), so the same grid
  // point on two machines never coalesces onto one computation; an empty
  // machine leaves the fingerprint byte-identical to the single-machine
  // protocol.
  exec::JobSpec spec{request.workload, request.size_label,
                     request.iterations, request.machine};

  // Resolve the deadline: client-supplied (clamped) or the server
  // default, measured from admission.
  double deadline_s = options_.default_deadline_s;
  if (request.deadline_ms > 0.0)
    deadline_s = std::min(request.deadline_ms * 1e-3, options_.max_deadline_s);
  Waiter waiter;
  waiter.id = request.id;
  waiter.has_deadline = std::isfinite(deadline_s);
  if (waiter.has_deadline)
    waiter.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(deadline_s));
  waiter.reply = std::move(reply);

  std::string fingerprint = spec.fingerprint();

  std::string inline_reply;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopping_) {
      ++stats_.shed;
      inline_reply = error_reply(waiter.id, ErrorKind::kOverloaded,
                                 "daemon is not accepting work");
    } else if (auto hit = memo_.find(fingerprint); hit != memo_.end()) {
      // A repeat of a memoized spec is answered here, like stats/ping:
      // no queue slot, no worker, no deadline to watch.
      ++stats_.ok;
      ++stats_.memo_hits;
      inline_reply = reply_with_id(waiter.id, hit->second);
    } else if (auto it = inflight_.find(fingerprint);
               it != inflight_.end()) {
      // Coalesce: identical fingerprint, one computation, N replies.
      ++stats_.coalesce_hits;
      it->second->waiters.push_back(std::move(waiter));
      return;
    } else if (queue_.size() >= options_.max_queue_depth) {
      ++stats_.shed;
      const double hint_ms = retry_after_hint_locked();
      inline_reply = error_reply(
          waiter.id, ErrorKind::kOverloaded,
          util::strfmt("queue full (%zu queued, bound %zu); retry after "
                       "the hinted delay",
                       queue_.size(), options_.max_queue_depth),
          hint_ms);
    } else {
      auto task = std::make_shared<Task>();
      task->spec = std::move(spec);
      task->waiters.push_back(std::move(waiter));
      inflight_.emplace(std::move(fingerprint), task);
      queue_.push_back(std::move(task));
      work_cv_.notify_one();
      return;
    }
  }
  reply_now(waiter.reply, std::move(inline_reply));
}

std::string Daemon::handle(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  handle_line(line, [&promise](std::string reply) {
    promise.set_value(std::move(reply));
  });
  return future.get();
}

void Daemon::worker_loop() {
  while (true) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = queue_.front();
      queue_.pop_front();
      task->running = true;
    }

    // Deadline snapshot across the waiters attached so far: the watchdog
    // covers the most patient one. Waiters that coalesce on mid-flight
    // ride along and are deadline-checked individually at fan-out.
    bool has_deadline = false;
    bool any_live = false;
    Clock::time_point latest{};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      has_deadline = !task->waiters.empty();
      for (const Waiter& waiter : task->waiters) {
        if (!waiter.has_deadline) {
          has_deadline = false;
          any_live = true;
          break;
        }
        latest = std::max(latest, waiter.deadline);
        if (seconds_until(waiter.deadline) > 0.0) any_live = true;
      }
    }

    if (!any_live) {
      // Every waiter gave up while the job sat in the queue: answer
      // timeout without wasting a worker on dead work.
      ExecResult expired;
      expired.error = {
          .kind = ErrorKind::kTimeout,
          .message = util::strfmt("deadline expired while %s was queued",
                                  task->spec.key().c_str()),
          .timed_out = true};
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.expired_unrun;
      }
      fan_out(task, expired);
      continue;
    }

    const auto exec_start = Clock::now();
    const ExecResult result = execute(task->spec, latest, has_deadline);
    const double exec_s =
        std::chrono::duration<double>(Clock::now() - exec_start).count();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.executed;
      // EMA of per-job service time feeds the retry-after hint.
      stats_.ema_exec_s =
          ema_seeded_ ? 0.8 * stats_.ema_exec_s + 0.2 * exec_s : exec_s;
      ema_seeded_ = true;
    }
    fan_out(task, result);
  }
}

Daemon::ExecResult Daemon::execute(const exec::JobSpec& spec,
                                   Clock::time_point deadline,
                                   bool has_deadline) {
  ExecResult result;
  while (true) {
    const double remaining_s =
        has_deadline ? seconds_until(deadline)
                     : std::numeric_limits<double>::infinity();
    if (remaining_s <= 0.0) {
      result.error = {.kind = ErrorKind::kTimeout,
                      .message = util::strfmt("job %s exceeded its deadline",
                                              spec.key().c_str()),
                      .timed_out = true,
                      .retryable = true};
      return result;
    }
    static_cast<exec::AttemptResult&>(result) =
        attempts_.run(spec, job_fn_, remaining_s);
    ++result.attempts;
    // A retry is still subject to the deadline check above.
    if (result.report || !result.error.retryable ||
        result.attempts > options_.max_retries)
      return result;
  }
}

void Daemon::fan_out(const std::shared_ptr<Task>& task,
                     const ExecResult& result) {
  // One body serves every waiter (and the memo); it is serialized before
  // taking the lock.
  const std::string body =
      result.report
          ? reply_body(projection_reply("", *result.report, result.attempts))
          : std::string();
  // Only the canonical pipeline is known to be pure, and only a clean
  // first-attempt result reads the same as any later computation of it.
  const bool memoize = result.report && !options_.job_fn &&
                       result.attempts == 1 &&
                       !result.report->calibration.used_fallback;
  const std::string fingerprint = task->spec.fingerprint();

  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waiters = std::move(task->waiters);
    task->waiters.clear();
    // Retire the fingerprint atomically with taking the waiters (and
    // with memoizing the reply): later identical requests hit the memo
    // or start a fresh computation instead of joining a finished one.
    auto it = inflight_.find(fingerprint);
    if (it != inflight_.end() && it->second == task) inflight_.erase(it);
    if (memoize && memo_.size() < kMemoCapacity)
      memo_.emplace(fingerprint, body);

    if (result.report) {
      for (const Waiter& waiter : waiters) {
        const bool late =
            waiter.has_deadline && seconds_until(waiter.deadline) <= 0.0;
        if (late) {
          ++stats_.timeouts;
        } else {
          ++stats_.ok;
          if (result.report->calibration.used_fallback) ++stats_.degraded;
        }
      }
    } else if (result.error.kind == ErrorKind::kTimeout) {
      stats_.timeouts += waiters.size();
    } else {
      stats_.failed += waiters.size();
    }
  }

  // Replies go out after the bookkeeping and outside the lock: a slow
  // client write can never stall admission or another worker.
  if (result.report) {
    for (Waiter& waiter : waiters) {
      const bool late =
          waiter.has_deadline && seconds_until(waiter.deadline) <= 0.0;
      if (late)
        reply_now(waiter.reply, timeout_reply(waiter.id, task->spec));
      else
        reply_now(waiter.reply, reply_with_id(waiter.id, body));
    }
    return;
  }
  for (Waiter& waiter : waiters)
    reply_now(waiter.reply,
              error_reply(waiter.id, result.error.kind,
                          result.error.message));
}

DaemonStats Daemon::stats() const {
  DaemonStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
    out.queue_depth = queue_.size();
    out.inflight = inflight_.size();
    out.memo_entries = memo_.size();
  }
  out.abandoned = attempts_.abandoned();
  const pcie::CalibrationCache::Stats calibration =
      pcie::CalibrationCache::instance().stats();
  out.calibration_hits = calibration.hits;
  out.calibration_misses = calibration.misses;
  const auto skeleton = workloads::skeleton_cache().stats();
  out.skeleton_cache_hits = skeleton.hits;
  out.skeleton_cache_misses = skeleton.misses;
  const auto usage = dataflow::usage_cache().stats();
  out.usage_cache_hits = usage.hits;
  out.usage_cache_misses = usage.misses;
  return out;
}

}  // namespace grophecy::serve
