#include "serve/protocol.h"

#include <cmath>
#include <utility>

#include "util/contracts.h"
#include "util/jsonl.h"

namespace grophecy::serve {

namespace {

/// Reads a positive integer field that may be absent (returns fallback).
/// Returns std::nullopt — meaning "reject" — for wrong types, non-finite
/// values, non-integers, and out-of-range magnitudes.
std::optional<int> positive_int_field(const util::FlatJson& object,
                                      std::string_view key, int fallback) {
  for (const auto& [name, value] : object) {
    if (name != key) continue;
    const double* d = std::get_if<double>(&value);
    if (d == nullptr) return std::nullopt;
    if (!std::isfinite(*d) || *d < 1.0 || *d > 1e9 ||
        *d != std::floor(*d))
      return std::nullopt;
    return static_cast<int>(*d);
  }
  return fallback;
}

}  // namespace

std::variant<Request, WireError> parse_request(std::string_view line) {
  const std::optional<util::FlatJson> object = util::parse_flat_json(line);
  if (!object)
    return WireError{ErrorKind::kParse,
                     "request is not a flat JSON object (one object per "
                     "line; control characters must be escaped)",
                     ""};

  // The id is pure correlation data: any string is fine, and once the
  // line parses as JSON it is always salvageable for the error reply.
  std::string id = util::json_string(*object, "id").value_or("");

  const std::optional<std::string> type = util::json_string(*object, "type");
  if (!type)
    return WireError{ErrorKind::kUsage,
                     "missing string field \"type\" (one of: project, "
                     "stats, ping, shutdown)",
                     std::move(id)};

  Request request;
  request.id = std::move(id);
  if (*type == "project") {
    request.type = RequestType::kProject;
  } else if (*type == "stats") {
    request.type = RequestType::kStats;
    return request;
  } else if (*type == "ping") {
    request.type = RequestType::kPing;
    return request;
  } else if (*type == "shutdown") {
    request.type = RequestType::kShutdown;
    return request;
  } else {
    return WireError{ErrorKind::kUsage,
                     "unknown request type \"" + *type +
                         "\" (one of: project, stats, ping, shutdown)",
                     std::move(request.id)};
  }

  const std::optional<std::string> workload =
      util::json_string(*object, "workload");
  if (!workload || workload->empty())
    return WireError{ErrorKind::kUsage,
                     "project request needs a non-empty string field "
                     "\"workload\"",
                     std::move(request.id)};
  const std::optional<std::string> size = util::json_string(*object, "size");
  if (!size || size->empty())
    return WireError{ErrorKind::kUsage,
                     "project request needs a non-empty string field "
                     "\"size\"",
                     std::move(request.id)};
  const std::optional<int> iterations =
      positive_int_field(*object, "iterations", 1);
  if (!iterations)
    return WireError{ErrorKind::kUsage,
                     "\"iterations\" must be a positive integer",
                     std::move(request.id)};

  // machine: optional; empty means the daemon's configured machine. Name
  // validity (against the registry) is an admission decision, not a
  // framing one — the parser only enforces the type.
  std::string machine;
  for (const auto& [name, value] : *object) {
    if (name != "machine") continue;
    const std::string* s = std::get_if<std::string>(&value);
    if (s == nullptr)
      return WireError{ErrorKind::kUsage,
                       "\"machine\" must be a string (a registry machine "
                       "name)",
                       std::move(request.id)};
    machine = *s;
  }

  // deadline_ms: optional, finite, non-negative (0 = server default).
  double deadline_ms = 0.0;
  for (const auto& [name, value] : *object) {
    if (name != "deadline_ms") continue;
    const double* d = std::get_if<double>(&value);
    if (d == nullptr || !std::isfinite(*d) || *d < 0.0)
      return WireError{ErrorKind::kUsage,
                       "\"deadline_ms\" must be a non-negative finite "
                       "number",
                       std::move(request.id)};
    deadline_ms = *d;
  }

  request.workload = std::move(*workload);
  request.size_label = std::move(*size);
  request.iterations = *iterations;
  request.machine = std::move(machine);
  request.deadline_ms = deadline_ms;
  return request;
}

std::string error_reply(std::string_view id, ErrorKind kind,
                        std::string_view message,
                        std::optional<double> retry_after_ms) {
  util::FlatJson reply;
  reply.emplace_back("id", std::string(id));
  reply.emplace_back("status", std::string("error"));
  reply.emplace_back("error", std::string(to_string(kind)));
  reply.emplace_back("message", std::string(message));
  if (retry_after_ms)
    reply.emplace_back("retry_after_ms", *retry_after_ms);
  return util::write_flat_json(reply);
}

std::string projection_reply(std::string_view id,
                             const core::ProjectionReport& report,
                             int attempts) {
  util::FlatJson reply;
  reply.emplace_back("id", std::string(id));
  reply.emplace_back("status", std::string("ok"));
  reply.emplace_back("workload", report.app_name);
  reply.emplace_back("machine", report.machine_name);
  reply.emplace_back("iterations", static_cast<double>(report.iterations));
  reply.emplace_back("degraded", report.calibration.used_fallback);
  reply.emplace_back("attempts", static_cast<double>(attempts));
  reply.emplace_back("tier", std::string("exact"));
  reply.emplace_back("predicted_kernel_s", report.predicted_kernel_s);
  reply.emplace_back("predicted_transfer_s", report.predicted_transfer_s);
  reply.emplace_back("measured_kernel_s", report.measured_kernel_s);
  reply.emplace_back("measured_transfer_s", report.measured_transfer_s);
  reply.emplace_back("measured_cpu_s", report.measured_cpu_s);
  reply.emplace_back("predicted_speedup", report.predicted_speedup_both());
  reply.emplace_back("measured_speedup", report.measured_speedup());
  return util::write_flat_json(reply);
}

namespace {
constexpr std::string_view kIdHead = "{\"id\":\"";
}  // namespace

std::string reply_body(std::string_view reply) {
  GROPHECY_EXPECTS(reply.substr(0, kIdHead.size()) == kIdHead);
  // json_escape leaves no bare quote inside a string, so the id ends at
  // the first quote that no backslash escapes.
  std::size_t end = kIdHead.size();
  while (end < reply.size() && reply[end] != '"')
    end += reply[end] == '\\' ? 2 : 1;
  GROPHECY_EXPECTS(end < reply.size());
  return std::string(reply.substr(end + 1));
}

std::string reply_with_id(std::string_view id, std::string_view body) {
  std::string reply(kIdHead);
  reply += util::json_escape(id);
  reply += '"';
  reply += body;
  return reply;
}

std::string pong_reply(std::string_view id) {
  util::FlatJson reply;
  reply.emplace_back("id", std::string(id));
  reply.emplace_back("status", std::string("ok"));
  reply.emplace_back("type", std::string("pong"));
  return util::write_flat_json(reply);
}

}  // namespace grophecy::serve
