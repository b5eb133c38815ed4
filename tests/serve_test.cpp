// The daemon soak/chaos suite: under a burst of queued queries with
// injected faults, the projection daemon must never crash or deadlock,
// must answer *every* request with exactly one typed reply, must shed at
// the configured bound, must expire deadlines without leaking workers,
// must hand coalesced duplicates byte-identical replies, and must drain
// its queue on clean shutdown.
//
// Most tests drive the daemon through a stub job function so the
// scheduling semantics are tested in microseconds; the reply-memo tests
// and two smoke tests run the real projection pipeline (the only one the
// memo serves), and one runs the real socket transport end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "exec/sweep_request.h"
#include "faults/fault_injector.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/socket_server.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/jsonl.h"
#include "util/table.h"

namespace grophecy::serve {
namespace {

using core::ProjectionReport;
using exec::JobSpec;

ProjectionReport stub_report(const JobSpec& spec, bool degraded = false) {
  ProjectionReport report;
  report.app_name = spec.workload;
  report.machine_name = "stub";
  report.iterations = spec.iterations;
  report.predicted_kernel_s = 1e-3;
  report.measured_kernel_s = 1.1e-3;
  report.predicted_transfer_s = 2e-3;
  report.measured_transfer_s = 2.1e-3;
  report.measured_cpu_s = 0.5;
  report.calibration.used_fallback = degraded;
  return report;
}

std::string project_line(const std::string& id, const std::string& workload,
                         const std::string& size, double deadline_ms = 0.0,
                         int iterations = 1) {
  util::FlatJson request;
  request.emplace_back("id", id);
  request.emplace_back("type", std::string("project"));
  request.emplace_back("workload", workload);
  request.emplace_back("size", size);
  request.emplace_back("iterations", static_cast<double>(iterations));
  if (deadline_ms > 0.0) request.emplace_back("deadline_ms", deadline_ms);
  return util::write_flat_json(request);
}

std::string field(const std::string& reply, std::string_view key) {
  const auto object = util::parse_flat_json(reply);
  if (!object) return "<unparseable>";
  if (const auto text = util::json_string(*object, key)) return *text;
  if (const auto number = util::json_number(*object, key))
    return std::to_string(*number);
  if (const auto flag = util::json_bool(*object, key))
    return *flag ? "true" : "false";
  return "<missing>";
}

/// A gate the stub job function blocks on, so tests control exactly when
/// the single worker is busy and when it finishes.
class Gate {
 public:
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Collects replies for requests submitted asynchronously.
class ReplyBin {
 public:
  Daemon::ReplyFn slot() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++expected_;
    }
    return [this](std::string reply) {
      std::lock_guard<std::mutex> lock(mutex_);
      replies_.push_back(std::move(reply));
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_all() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return replies_.size() == expected_; });
    return replies_;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> replies_;
  std::size_t expected_ = 0;
};

// --- protocol ---

TEST(ServeProtocol, ParsesAFullProjectRequest) {
  const auto parsed = parse_request(
      R"({"id":"7","type":"project","workload":"CFD","size":"97K",)"
      R"("iterations":8,"deadline_ms":250})");
  const Request* request = std::get_if<Request>(&parsed);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->type, RequestType::kProject);
  EXPECT_EQ(request->id, "7");
  EXPECT_EQ(request->workload, "CFD");
  EXPECT_EQ(request->size_label, "97K");
  EXPECT_EQ(request->iterations, 8);
  EXPECT_DOUBLE_EQ(request->deadline_ms, 250.0);
}

TEST(ServeProtocol, MalformedLinesBecomeTypedWireErrors) {
  struct Case {
    const char* name;
    const char* line;
    ErrorKind kind;
  };
  const Case corpus[] = {
      {"not_json", "hello", ErrorKind::kParse},
      {"empty_object_missing_type", "{}", ErrorKind::kUsage},
      {"nested", R"({"type":{"a":1}})", ErrorKind::kParse},
      {"unknown_type", R"({"id":"1","type":"fly"})", ErrorKind::kUsage},
      {"missing_workload", R"({"type":"project","size":"97K"})",
       ErrorKind::kUsage},
      {"missing_size", R"({"type":"project","workload":"CFD"})",
       ErrorKind::kUsage},
      {"iterations_zero",
       R"({"type":"project","workload":"CFD","size":"97K","iterations":0})",
       ErrorKind::kUsage},
      {"iterations_fractional",
       R"({"type":"project","workload":"CFD","size":"97K","iterations":1.5})",
       ErrorKind::kUsage},
      {"iterations_string",
       R"({"type":"project","workload":"CFD","size":"97K","iterations":"8"})",
       ErrorKind::kUsage},
      {"deadline_negative",
       R"({"type":"project","workload":"CFD","size":"97K","deadline_ms":-1})",
       ErrorKind::kUsage},
      {"raw_control_byte", "{\"type\":\"ping\",\"id\":\"a\x01b\"}",
       ErrorKind::kParse},
      {"truncated", R"({"type":"ping")", ErrorKind::kParse},
  };
  for (const Case& c : corpus) {
    const auto parsed = parse_request(c.line);
    const WireError* error = std::get_if<WireError>(&parsed);
    ASSERT_NE(error, nullptr) << c.name;
    EXPECT_EQ(error->kind, c.kind) << c.name;
    EXPECT_FALSE(error->message.empty()) << c.name;
  }
}

TEST(ServeProtocol, SalvagesTheIdForErrorReplies) {
  const auto parsed = parse_request(R"({"id":"req-9","type":"warp"})");
  const WireError* error = std::get_if<WireError>(&parsed);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->id, "req-9");
  const std::string reply = error_reply(error->id, error->kind,
                                        error->message);
  EXPECT_EQ(field(reply, "id"), "req-9");
  EXPECT_EQ(field(reply, "status"), "error");
  EXPECT_EQ(field(reply, "error"), "usage");
}

TEST(ServeProtocol, MachineFieldIsOptionalAndTyped) {
  const auto parsed = parse_request(
      R"({"id":"m","type":"project","workload":"CFD","size":"97K",)"
      R"("machine":"hopper_h100"})");
  const Request* request = std::get_if<Request>(&parsed);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->machine, "hopper_h100");

  // Absent means the daemon's configured machine — the legacy protocol.
  const auto legacy = parse_request(
      R"({"id":"l","type":"project","workload":"CFD","size":"97K"})");
  const Request* legacy_request = std::get_if<Request>(&legacy);
  ASSERT_NE(legacy_request, nullptr);
  EXPECT_TRUE(legacy_request->machine.empty());

  // Wrong type is a framing-level usage error, like every other field.
  const auto bad = parse_request(
      R"({"id":"m","type":"project","workload":"CFD","size":"97K",)"
      R"("machine":7})");
  const WireError* error = std::get_if<WireError>(&bad);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->kind, ErrorKind::kUsage);
  EXPECT_EQ(error->id, "m");
}

TEST(ServeProtocol, ProjectionReplyIsAPureFunctionOfItsInputs) {
  const JobSpec spec{"CFD", "97K", 4};
  const ProjectionReport report = stub_report(spec);
  EXPECT_EQ(projection_reply("a", report, 1), projection_reply("a", report, 1));
  EXPECT_NE(projection_reply("a", report, 1), projection_reply("b", report, 1));
}

/// Ids that need JSON escaping: a quote, a backslash, control bytes and
/// non-ASCII UTF-8, plus the empty id.
const std::vector<std::string> kAwkwardIds = {
    "plain", "say \"hi\"", "back\\slash", "tab\tnew\nline\x01",
    "caf\xc3\xa9 \xe2\x9c\x93", ""};

TEST(ServeProtocol, ReplyBodyReIdsToTheSameBytes) {
  const ProjectionReport report = stub_report(JobSpec{"CFD", "97K", 4, ""});
  const std::string body =
      reply_body(projection_reply("first", report, 1));
  for (const std::string& id : kAwkwardIds) {
    const std::string reply = projection_reply(id, report, 1);
    EXPECT_EQ(reply_body(reply), body) << id;
    EXPECT_EQ(reply_with_id(id, body), reply) << id;
  }
  EXPECT_THROW(reply_body("not a reply"), ContractViolation);
}

TEST(ServeProtocol, OverloadedReplyCarriesTheRetryHint) {
  const std::string reply =
      error_reply("9", ErrorKind::kOverloaded, "queue full", 12.5);
  EXPECT_EQ(field(reply, "error"), "overloaded");
  EXPECT_DOUBLE_EQ(
      util::json_number(*util::parse_flat_json(reply), "retry_after_ms")
          .value_or(0.0),
      12.5);
}

// --- daemon scheduling semantics (stub job function) ---

DaemonOptions stub_options(exec::SweepEngine::JobFn fn) {
  DaemonOptions options;
  options.workers = 1;
  options.job_fn = std::move(fn);
  return options;
}

TEST(ServeDaemon, ServesProjectionsAndControlRequests) {
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec);
  }));
  daemon.start();

  const std::string reply = daemon.handle(project_line("1", "CFD", "97K"));
  EXPECT_EQ(field(reply, "status"), "ok");
  EXPECT_EQ(field(reply, "id"), "1");
  EXPECT_EQ(field(reply, "workload"), "CFD");
  EXPECT_EQ(field(reply, "degraded"), "false");

  EXPECT_EQ(field(daemon.handle(R"({"id":"p","type":"ping"})"), "type"),
            "pong");
  const std::string stats = daemon.handle(R"({"id":"s","type":"stats"})");
  EXPECT_EQ(field(stats, "status"), "ok");
  const auto object = util::parse_flat_json(stats);
  ASSERT_TRUE(object.has_value());
  EXPECT_DOUBLE_EQ(util::json_number(*object, "ok").value_or(-1), 1.0);
  EXPECT_DOUBLE_EQ(util::json_number(*object, "executed").value_or(-1), 1.0);

  daemon.shutdown();
  const DaemonStats after = daemon.stats();
  EXPECT_EQ(after.received, 3u);
  EXPECT_EQ(after.replies, 3u);
}

TEST(ServeDaemon, ShedsAtTheConfiguredBoundWithARetryHint) {
  Gate gate;
  auto options = stub_options([&gate](const JobSpec& spec) {
    gate.wait();
    return stub_report(spec);
  });
  options.max_queue_depth = 4;
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  // One request occupies the worker; unique specs then fill the queue.
  daemon.handle_line(project_line("busy", "CFD", "97K"), bin.slot());
  // Wait until the worker has claimed "busy" (popped off the queue but
  // still in flight) so the next 4 land in the queue, not the worker.
  while (daemon.stats().queue_depth != 0 || daemon.stats().inflight != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 4; ++i)
    daemon.handle_line(
        project_line("q" + std::to_string(i), "CFD", "97K", 0.0, i + 2),
        bin.slot());

  // Wait until the worker holds "busy" and exactly 4 jobs are queued.
  while (daemon.stats().queue_depth < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The 5th distinct spec must be shed, typed and hinted.
  const std::string shed = daemon.handle(
      project_line("over", "CFD", "97K", 0.0, 99));
  EXPECT_EQ(field(shed, "status"), "error");
  EXPECT_EQ(field(shed, "error"), "overloaded");
  EXPECT_TRUE(util::json_number(*util::parse_flat_json(shed),
                                "retry_after_ms")
                  .has_value());

  // A control request is still served while the queue is full.
  EXPECT_EQ(field(daemon.handle(R"({"id":"p","type":"ping"})"), "type"),
            "pong");

  gate.open();
  const std::vector<std::string> replies = bin.wait_all();
  EXPECT_EQ(replies.size(), 5u);
  for (const std::string& reply : replies)
    EXPECT_EQ(field(reply, "status"), "ok") << reply;

  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.ok, 5u);
  EXPECT_EQ(stats.received, stats.replies);
}

TEST(ServeDaemon, ExpiredDeadlineGetsTimeoutWithoutWedgingTheWorker) {
  std::atomic<int> executions{0};
  auto options = stub_options([&executions](const JobSpec& spec) {
    ++executions;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return stub_report(spec);
  });
  Daemon daemon(std::move(options));
  daemon.start();

  const auto start = std::chrono::steady_clock::now();
  const std::string reply =
      daemon.handle(project_line("slow", "CFD", "97K", 30.0));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(field(reply, "status"), "error");
  EXPECT_EQ(field(reply, "error"), "timeout");
  // The reply came from the watchdog, not from waiting out the job.
  EXPECT_LT(elapsed_s, 0.25);

  // The worker is free despite the abandoned attempt: a follow-up with a
  // generous deadline is served normally.
  const std::string ok =
      daemon.handle(project_line("fast", "SRAD", "2048", 5000.0));
  EXPECT_EQ(field(ok, "status"), "ok");

  daemon.shutdown();  // joins the abandoned attempts; must not hang
  EXPECT_GE(daemon.stats().abandoned, 1u);
  EXPECT_EQ(daemon.stats().timeouts, 1u);
  EXPECT_EQ(daemon.stats().ok, 1u);
  EXPECT_EQ(executions.load(), 2);
}

TEST(ServeDaemon, RequestsExpiringInTheQueueAreNotExecuted) {
  Gate gate;
  auto options = stub_options([&gate](const JobSpec& spec) {
    gate.wait();
    return stub_report(spec);
  });
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  daemon.handle_line(project_line("busy", "CFD", "97K"), bin.slot());
  // Queued behind the blocked worker with a deadline that will expire
  // before the worker frees up.
  daemon.handle_line(project_line("doomed", "SRAD", "2048", 10.0),
                     bin.slot());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.open();

  const std::vector<std::string> replies = bin.wait_all();
  ASSERT_EQ(replies.size(), 2u);
  std::map<std::string, std::string> by_id;
  for (const std::string& reply : replies)
    by_id[field(reply, "id")] = field(reply, "status") == "ok"
                                    ? "ok"
                                    : field(reply, "error");
  EXPECT_EQ(by_id["busy"], "ok");
  EXPECT_EQ(by_id["doomed"], "timeout");

  daemon.shutdown();
  EXPECT_EQ(daemon.stats().expired_unrun, 1u);
  EXPECT_EQ(daemon.stats().executed, 1u);  // "doomed" never ran
}

TEST(ServeDaemon, CoalescedDuplicatesGetByteIdenticalReplies) {
  Gate gate;
  std::atomic<int> executions{0};
  auto options = stub_options([&](const JobSpec& spec) {
    gate.wait();
    ++executions;
    return stub_report(spec);
  });
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  daemon.handle_line(project_line("busy", "CFD", "97K"), bin.slot());
  // Three identical requests (same id, same spec) while the worker is
  // blocked: the first queues, the rest coalesce onto it.
  for (int i = 0; i < 3; ++i)
    daemon.handle_line(project_line("dup", "SRAD", "2048"), bin.slot());
  while (daemon.stats().coalesce_hits < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.open();

  const std::vector<std::string> replies = bin.wait_all();
  ASSERT_EQ(replies.size(), 4u);
  std::vector<std::string> dup_replies;
  for (const std::string& reply : replies)
    if (field(reply, "id") == "dup") dup_replies.push_back(reply);
  ASSERT_EQ(dup_replies.size(), 3u);
  EXPECT_EQ(dup_replies[0], dup_replies[1]);
  EXPECT_EQ(dup_replies[1], dup_replies[2]);

  daemon.shutdown();
  EXPECT_EQ(daemon.stats().coalesce_hits, 2u);
  EXPECT_EQ(executions.load(), 2);  // busy + one shared dup execution
}

TEST(ServeDaemon, CalibrationFallbackServesDegradedNotFailed) {
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec, /*degraded=*/true);
  }));
  daemon.start();
  const std::string reply = daemon.handle(project_line("1", "CFD", "97K"));
  EXPECT_EQ(field(reply, "status"), "ok");
  EXPECT_EQ(field(reply, "degraded"), "true");
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().ok, 1u);
  EXPECT_EQ(daemon.stats().degraded, 1u);
  EXPECT_EQ(daemon.stats().failed, 0u);
}

TEST(ServeDaemon, PermanentFailuresAreTypedAndTransientOnesRetried) {
  std::atomic<int> calls{0};
  auto options = stub_options([&calls](const JobSpec& spec) {
    ++calls;
    if (spec.workload == "CFD") throw CalibrationError("link down");
    // Transient: first attempt fails, the retry succeeds.
    if (calls.load() % 2 == 1) throw MeasurementError("blip");
    return stub_report(spec);
  });
  options.max_retries = 1;
  Daemon daemon(std::move(options));
  daemon.start();

  const std::string fatal = daemon.handle(project_line("f", "CFD", "97K"));
  EXPECT_EQ(field(fatal, "status"), "error");
  EXPECT_EQ(field(fatal, "error"), "calibration");

  calls = 0;
  const std::string retried =
      daemon.handle(project_line("r", "SRAD", "2048"));
  EXPECT_EQ(field(retried, "status"), "ok");
  EXPECT_EQ(field(retried, "attempts"), "2.000000");

  daemon.shutdown();
  EXPECT_EQ(daemon.stats().failed, 1u);
  EXPECT_EQ(daemon.stats().ok, 1u);
}

TEST(ServeDaemon, MalformedLinesNeverCrashAndAlwaysReplyTyped) {
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec);
  }));
  daemon.start();
  const char* corpus[] = {
      "",
      "garbage",
      "{",
      "{}",
      R"({"type":"project"})",
      R"({"type":"project","workload":"CFD","size":"97K","iterations":-1})",
      R"({"id":"x","type":"noop"})",
      "\x01\x02\x03",
      R"({"id":"y","type":"project","workload":123,"size":"97K"})",
      "[1,2,3]",
  };
  for (const char* line : corpus) {
    const std::string reply = daemon.handle(line);
    EXPECT_EQ(field(reply, "status"), "error") << line;
    const std::string kind = field(reply, "error");
    EXPECT_TRUE(kind == "parse" || kind == "usage") << line << " -> " << kind;
  }
  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.parse_errors + stats.usage_errors,
            std::size(corpus));
  EXPECT_EQ(stats.received, stats.replies);
}

TEST(ServeDaemon, UnknownWorkloadsAreRejectedBeforeTheQueue) {
  // Canonical pipeline options — but the request never reaches a worker,
  // so this is still instant.
  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(std::move(options));
  daemon.start();
  const std::string reply =
      daemon.handle(project_line("u", "NoSuchWorkload", "97K"));
  EXPECT_EQ(field(reply, "status"), "error");
  EXPECT_EQ(field(reply, "error"), "usage");
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().executed, 0u);
  EXPECT_EQ(daemon.stats().usage_errors, 1u);
}

TEST(ServeDaemon, UnknownMachinesAreRejectedBeforeTheQueue) {
  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(std::move(options));
  daemon.start();
  const std::string reply = daemon.handle(
      R"({"id":"m","type":"project","workload":"CFD","size":"97K",)"
      R"("machine":"no_such_machine"})");
  EXPECT_EQ(field(reply, "status"), "error");
  EXPECT_EQ(field(reply, "error"), "usage");
  // The UsageError message lists the registered fleet.
  EXPECT_NE(reply.find("anl_eureka"), std::string::npos) << reply;
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().executed, 0u);
  EXPECT_EQ(daemon.stats().usage_errors, 1u);
}

TEST(ServeDaemon, MachineFieldReachesTheJobFunction) {
  std::string seen;
  Daemon daemon(stub_options([&seen](const JobSpec& spec) {
    seen = spec.machine;
    return stub_report(spec);
  }));
  daemon.start();
  const std::string reply = daemon.handle(
      R"({"id":"m","type":"project","workload":"CFD","size":"97K",)"
      R"("machine":"volta_v100"})");
  EXPECT_EQ(field(reply, "status"), "ok");
  daemon.shutdown();
  EXPECT_EQ(seen, "volta_v100");
}

TEST(ServeDaemon, DrainingShutdownAnswersEveryQueuedRequest) {
  Gate gate;
  auto options = stub_options([&gate](const JobSpec& spec) {
    gate.wait();
    return stub_report(spec);
  });
  options.max_queue_depth = 64;
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  for (int i = 0; i < 16; ++i)
    daemon.handle_line(
        project_line(util::strfmt("d%d", i), "CFD", "97K", 0.0, i + 1),
        bin.slot());
  gate.open();
  daemon.shutdown(/*drain=*/true);

  const std::vector<std::string> replies = bin.wait_all();
  EXPECT_EQ(replies.size(), 16u);
  for (const std::string& reply : replies)
    EXPECT_EQ(field(reply, "status"), "ok") << reply;
  EXPECT_EQ(daemon.stats().ok, 16u);
}

TEST(ServeDaemon, AbortingShutdownStillAnswersEveryQueuedRequest) {
  Gate gate;
  auto options = stub_options([&gate](const JobSpec& spec) {
    gate.wait();
    return stub_report(spec);
  });
  options.max_queue_depth = 64;
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  for (int i = 0; i < 8; ++i)
    daemon.handle_line(
        project_line(util::strfmt("a%d", i), "CFD", "97K", 0.0, i + 1),
        bin.slot());
  // Wait until the worker has claimed the first job (all 8 are queued
  // until it does), so exactly 7 are left in the queue.
  while (daemon.stats().queue_depth != 7)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Abort while the worker is still gated: the 7 queued jobs must be
  // answered "overloaded" *before* shutdown waits on the worker.
  std::thread stopper([&daemon] { daemon.shutdown(/*drain=*/false); });
  while (bin.count() < 7)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.open();  // lets the one running job (and shutdown) finish
  stopper.join();

  const std::vector<std::string> replies = bin.wait_all();
  EXPECT_EQ(replies.size(), 8u);
  std::size_t ok = 0, overloaded = 0;
  for (const std::string& reply : replies) {
    if (field(reply, "status") == "ok")
      ++ok;
    else if (field(reply, "error") == "overloaded")
      ++overloaded;
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(overloaded, 7u);
  EXPECT_EQ(daemon.stats().received, daemon.stats().replies);
}

// --- chaos soak ---

TEST(ServeSoak, BurstWithInjectedFaultsAnswersEveryRequestExactlyOnce) {
  // Deterministic per-spec fault mix derived from the fingerprint:
  // ~1/8 of specs fail transiently once, ~1/16 hang past any deadline,
  // the rest answer quickly. Some requests carry tight deadlines.
  auto chaotic = [](const JobSpec& spec) {
    const std::string fp = spec.fingerprint();
    const unsigned char h = static_cast<unsigned char>(fp.back());
    if (h % 16 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    else if (h % 8 == 1)
      throw MeasurementError("chaos blip");
    else
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return stub_report(spec);
  };
  DaemonOptions options;
  options.workers = 4;
  options.max_queue_depth = 64;
  options.max_retries = 1;
  options.default_deadline_s = 2.0;
  options.job_fn = chaotic;
  Daemon daemon(std::move(options));
  daemon.start();

  constexpr int kRequests = 2000;
  std::mutex mutex;
  std::map<std::string, int> replies_per_id;
  std::atomic<int> total_replies{0};
  std::condition_variable done_cv;

  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        for (int i = c; i < kRequests; i += 8) {
          const std::string id = "soak-" + std::to_string(i);
          // Cycle sizes and iteration counts so coalescing, shedding, and
          // unique execution all occur; every 7th request gets a deadline
          // tight enough to expire behind a hang.
          const double deadline_ms = (i % 7 == 0) ? 20.0 : 0.0;
          daemon.handle_line(
              project_line(id, i % 2 ? "CFD" : "SRAD",
                           i % 2 ? "97K" : "2048", deadline_ms,
                           1 + (i % 50)),
              [&, id](std::string) {
                {
                  std::lock_guard<std::mutex> lock(mutex);
                  ++replies_per_id[id];
                }
                ++total_replies;
                done_cv.notify_all();
              });
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return total_replies.load() == kRequests;
    })) << "deadlock: only " << total_replies.load() << "/" << kRequests
        << " replies arrived";
  }

  // Exactly one reply per request id.
  EXPECT_EQ(replies_per_id.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, count] : replies_per_id)
    EXPECT_EQ(count, 1) << id;

  daemon.shutdown();  // must not hang on abandoned chaos attempts
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.received, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.replies, static_cast<std::uint64_t>(kRequests));
  // The accounting identity: every reply is exactly one outcome.
  EXPECT_EQ(stats.ok + stats.timeouts + stats.shed + stats.failed +
                stats.parse_errors + stats.usage_errors,
            stats.replies);
  EXPECT_GT(stats.coalesce_hits, 0u);
}

TEST(ServeSoak, FaultEngineDrivenJobsDegradeToTypedOutcomes) {
  // The faults module's scripted engine as the chaos source: transient
  // failures become measurement errors (retryable), which the daemon
  // either retries to success or fails typed — never crashes.
  faults::FaultPlan plan;
  plan.failure_probability = 0.3;
  plan.seed = 7;
  auto engine = std::make_shared<faults::FaultEngine>(plan);
  std::mutex engine_mutex;
  DaemonOptions options;
  options.workers = 2;
  options.max_retries = 3;
  options.job_fn = [engine, &engine_mutex](const JobSpec& spec) {
    {
      std::lock_guard<std::mutex> lock(engine_mutex);
      engine->transform(1e-3);  // throws MeasurementError on a fault
    }
    return stub_report(spec);
  };
  Daemon daemon(std::move(options));
  daemon.start();

  ReplyBin bin;
  for (int i = 0; i < 64; ++i)
    daemon.handle_line(
        project_line(util::strfmt("f%d", i), "CFD", "97K", 0.0, i + 1),
        bin.slot());
  const std::vector<std::string> replies = bin.wait_all();
  ASSERT_EQ(replies.size(), 64u);
  for (const std::string& reply : replies) {
    const std::string status = field(reply, "status");
    if (status != "ok") {
      EXPECT_EQ(field(reply, "error"), "measurement") << reply;
    }
  }
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().received, daemon.stats().replies);
}

// --- real pipeline + real socket ---

TEST(ServeEndToEnd, RealPipelineServesAProjection) {
  DaemonOptions options;
  options.workers = 2;
  Daemon daemon(std::move(options));
  daemon.start();
  const std::string reply = daemon.handle(project_line("real", "CFD", "97K"));
  EXPECT_EQ(field(reply, "status"), "ok") << reply;
  // The pipeline's report names the app "<workload> <size>".
  EXPECT_EQ(field(reply, "workload").rfind("CFD", 0), 0u);
  EXPECT_EQ(field(reply, "machine"), "anl_eureka");
  const auto object = util::parse_flat_json(reply);
  ASSERT_TRUE(object.has_value());
  EXPECT_GT(util::json_number(*object, "predicted_kernel_s").value_or(0), 0);
  EXPECT_GT(util::json_number(*object, "predicted_speedup").value_or(0), 0);
  daemon.shutdown();
  // Warm multi-tenant tier visible through stats.
  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.calibration_hits + stats.calibration_misses, 1u);
}

// --- reply memo (real pipeline) ---

/// The canonical pipeline a daemon with these options runs, built
/// outside any daemon: the fresh computation memo hits must match.
exec::SweepEngine::JobFn fresh_job_fn(const DaemonOptions& options) {
  return exec::SweepRequest::on(options.machine)
      .seed(options.base_seed)
      .job_fn();
}

TEST(ServeDaemon, MemoHitsAreByteIdenticalToAFreshComputation) {
  DaemonOptions options;
  options.workers = 1;
  options.base_seed = 7;
  const JobSpec spec{"CFD", "97K", 3, ""};
  const ProjectionReport fresh = fresh_job_fn(options)(spec);
  Daemon daemon(options);
  daemon.start();

  EXPECT_EQ(daemon.handle(project_line("fill", "CFD", "97K", 0.0, 3)),
            projection_reply("fill", fresh, 1));
  EXPECT_EQ(daemon.stats().memo_entries, 1u);
  for (const std::string& id : kAwkwardIds)
    EXPECT_EQ(daemon.handle(project_line(id, "CFD", "97K", 0.0, 3)),
              projection_reply(id, fresh, 1))
        << id;

  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.memo_hits, kAwkwardIds.size());
  EXPECT_EQ(stats.ok, kAwkwardIds.size() + 1);
}

TEST(ServeDaemon, MemoStopsGrowingAtItsBound) {
  constexpr int kSpecs = static_cast<int>(Daemon::kMemoCapacity) + 8;
  DaemonOptions options;
  options.workers = 1;
  const exec::SweepEngine::JobFn fresh = fresh_job_fn(options);
  std::vector<ProjectionReport> expected;
  for (int n = 1; n <= kSpecs; ++n)
    expected.push_back(fresh(JobSpec{"CFD", "97K", n, ""}));
  Daemon daemon(options);
  daemon.start();

  // Two passes over kSpecs distinct iteration counts: the first fills
  // the memo up to its bound and no further; in the second the memoized
  // specs are hits and the rest run again. Every reply is the fresh one.
  for (int pass = 0; pass < 2; ++pass) {
    for (int n = 1; n <= kSpecs; ++n) {
      const std::string id = std::to_string(pass) + "/" + std::to_string(n);
      ASSERT_EQ(daemon.handle(project_line(id, "CFD", "97K", 0.0, n)),
                projection_reply(id, expected[n - 1], 1));
    }
    EXPECT_EQ(daemon.stats().memo_entries, Daemon::kMemoCapacity);
  }

  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.memo_hits, Daemon::kMemoCapacity);
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kSpecs) + 8);
  EXPECT_EQ(stats.ok, 2u * kSpecs);
}

TEST(ServeDaemon, CustomJobFnRepeatsAreAlwaysExecuted) {
  std::atomic<int> calls{0};
  Daemon daemon(stub_options([&calls](const JobSpec& spec) {
    ++calls;
    return stub_report(spec);
  }));
  daemon.start();
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(field(daemon.handle(project_line(std::to_string(i), "CFD",
                                               "97K")),
                    "status"),
              "ok");
  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_entries, 0u);
}

TEST(ServeDaemon, ConcurrentRepeatsKeepTheSumRule) {
  DaemonOptions options;
  options.workers = 2;
  const exec::SweepEngine::JobFn fresh = fresh_job_fn(options);
  const std::vector<JobSpec> specs = {{"CFD", "97K", 1, ""},
                                      {"CFD", "97K", 2, ""},
                                      {"SRAD", "2048 x 2048", 1, ""},
                                      {"HotSpot", "512 x 512", 4, ""}};
  std::vector<ProjectionReport> expected;
  for (const JobSpec& spec : specs) expected.push_back(fresh(spec));
  Daemon daemon(options);
  daemon.start();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t k = static_cast<std::size_t>(c + i) % specs.size();
        const std::string id = std::to_string(c) + "." + std::to_string(i);
        const JobSpec& spec = specs[k];
        if (daemon.handle(project_line(id, spec.workload, spec.size_label,
                                       0.0, spec.iterations)) !=
            projection_reply(id, expected[k], 1))
          ++mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  daemon.shutdown();
  const DaemonStats stats = daemon.stats();
  constexpr std::uint64_t kRequests = kThreads * kPerThread;
  EXPECT_EQ(stats.received, kRequests);
  EXPECT_EQ(stats.replies, kRequests);
  EXPECT_EQ(stats.ok + stats.timeouts + stats.shed + stats.failed +
                stats.parse_errors + stats.usage_errors,
            stats.replies);
  EXPECT_EQ(stats.ok, kRequests);  // memo hits count in ok
  EXPECT_EQ(stats.executed + stats.coalesce_hits + stats.memo_hits,
            kRequests);
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_entries, specs.size());
}

TEST(ServeEndToEnd, SocketTransportRoundTripsRequestsAndSurvivesGarbage) {
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec);
  }));
  daemon.start();
  const std::string socket_path =
      "/tmp/grophecy_serve_test_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(daemon, {.socket_path = socket_path,
                               .max_line_bytes = 4096});
  server.start();

  Client client;
  ASSERT_TRUE(client.connect(socket_path));

  const auto pong = client.request(R"({"id":"1","type":"ping"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(field(*pong, "type"), "pong");

  const auto projected = client.request(project_line("2", "CFD", "97K"));
  ASSERT_TRUE(projected.has_value());
  EXPECT_EQ(field(*projected, "status"), "ok");

  // Binary garbage gets a typed reply on the same connection.
  const auto garbage = client.request("\x01\x02garbage\x7f");
  ASSERT_TRUE(garbage.has_value());
  EXPECT_EQ(field(*garbage, "error"), "parse");

  // An oversized line is answered and discarded; the connection lives.
  const auto oversized =
      client.request("{\"pad\":\"" + std::string(8192, 'x') + "\"}");
  ASSERT_TRUE(oversized.has_value());
  EXPECT_EQ(field(*oversized, "error"), "parse");
  const auto after = client.request(R"({"id":"3","type":"ping"})");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(field(*after, "type"), "pong");

  server.stop();
  daemon.shutdown();
}

TEST(ServeEndToEnd, PipelinedRequestsWithoutReadingNeverDeadlock) {
  // A client sends its whole pipeline before reading one reply. The
  // replies are inline (answered on the connection's reader thread) and
  // far exceed the socket buffers, so a reader that blocked on a full
  // reply buffer would stop draining the requests the client is blocked
  // sending, and neither side would move again.
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec);
  }));
  daemon.start();
  const std::string socket_path =
      "/tmp/grophecy_serve_pipeline_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(daemon, {.socket_path = socket_path});
  server.start();

  constexpr int kRequests = 4000;
  std::atomic<int> replies{0};
  std::thread client_thread([&] {
    Client client;
    if (!client.connect(socket_path)) return;
    for (int i = 0; i < kRequests; ++i)
      if (!client.send_line(R"({"id":"p","type":"ping"})")) return;
    std::string reply;
    while (replies.load() < kRequests && client.recv_line(&reply))
      ++replies;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (replies.load() < kRequests &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(replies.load(), kRequests);

  server.stop();  // also releases a client stuck in send or recv
  client_thread.join();
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().received, daemon.stats().replies);
}

TEST(ServeEndToEnd, ClosedConnectionsAreDroppedAsNewOnesArrive) {
  // Sequential clients that each connect, ping and leave. A server that
  // kept every finished connection and its reader thread until stop()
  // would hold one per client it ever served.
  Daemon daemon(stub_options([](const JobSpec& spec) {
    return stub_report(spec);
  }));
  daemon.start();
  const std::string socket_path =
      "/tmp/grophecy_serve_churn_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(daemon, {.socket_path = socket_path});
  server.start();

  constexpr int kClients = 300;
  std::size_t most_held = 0;
  for (int i = 0; i < kClients; ++i) {
    Client client;
    ASSERT_TRUE(client.connect(socket_path));
    const auto pong = client.request(R"({"id":"c","type":"ping"})");
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(field(*pong, "type"), "pong");
    client.close();
    most_held = std::max(most_held, server.connections());
  }
  // Held: the latest connection, plus any whose reader thread had not yet
  // seen its client leave when the next client was accepted.
  EXPECT_LE(most_held, 16u);

  server.stop();
  EXPECT_EQ(server.connections(), 0u);
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().replies, static_cast<std::uint64_t>(kClients));
}

}  // namespace
}  // namespace grophecy::serve
