// Wire protocol of the projection daemon (docs/serving.md).
//
// One request is one line of flat JSON (util/jsonl); one reply is one
// line of flat JSON. The daemon guarantees exactly one reply per request
// line, whatever happens to the work behind it:
//
//   {"id":"7","type":"project","workload":"CFD","size":"97K",
//    "iterations":1,"deadline_ms":250}
//   -> {"id":"7","status":"ok","degraded":false,...scalars...}
//   -> {"id":"7","status":"error","error":"timeout","message":"..."}
//   -> {"id":"7","status":"error","error":"overloaded",
//       "retry_after_ms":12,"message":"..."}
//
// A line that is not valid flat JSON — or is missing/mistyping required
// fields — yields a typed "parse"/"usage" error reply (the id echoed when
// it could be salvaged), never a crash or a dropped connection. Error
// codes are the stable lowercase names of grophecy::ErrorKind, so the
// wire speaks the same taxonomy as the sweep journal.
//
// Parsing is split from the daemon so the framing rules are testable
// without threads and reusable by clients (serve::Client, the load
// generator) verbatim.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "core/report.h"
#include "util/error.h"

namespace grophecy::serve {

/// What a well-formed request line asks for.
enum class RequestType {
  kProject,   ///< Run (or coalesce onto) one projection.
  kStats,     ///< Introspection snapshot; served even under overload.
  kPing,      ///< Liveness probe; served even under overload.
  kShutdown,  ///< Ask the daemon to drain and exit (socket deployments).
};

/// A parsed request line.
struct Request {
  RequestType type = RequestType::kPing;
  std::string id;  ///< Client-chosen correlation id, echoed verbatim.

  // --- type == kProject ---
  std::string workload;    ///< Workload name (e.g. "CFD").
  std::string size_label;  ///< Data-size label (e.g. "97K").
  int iterations = 1;
  /// Registry name of the machine to project on (e.g. "hopper_h100");
  /// empty (the default) projects on the daemon's configured machine —
  /// today's behaviour. Unknown names are rejected at admission with a
  /// typed "usage" error reply listing the registered fleet.
  std::string machine;
  /// Client deadline covering queue wait + execution; 0 = server default.
  double deadline_ms = 0.0;
};

/// Why a request line could not become a Request. `kind` is kParse for
/// malformed framing/JSON and kUsage for well-formed JSON with bad
/// fields; `id` is echoed when the line parsed far enough to salvage it.
struct WireError {
  ErrorKind kind = ErrorKind::kParse;
  std::string message;
  std::string id;
};

/// Parses one request line. Never throws: every malformed input becomes
/// a WireError the daemon turns into exactly one typed error reply.
std::variant<Request, WireError> parse_request(std::string_view line);

/// One reply line (no trailing newline) with status "error". The code is
/// to_string(kind); `retry_after_ms`, when set, tells a shed client how
/// long to back off before retrying (admission-control hint).
std::string error_reply(std::string_view id, ErrorKind kind,
                        std::string_view message,
                        std::optional<double> retry_after_ms = std::nullopt);

/// One reply line with status "ok" carrying the projection scalars every
/// client-side decision derives from, plus the degradation flag: true
/// when the calibration behind the transfer predictions fell back to the
/// spec-derived model (the reply is served, not failed — see
/// docs/serving.md, "Graceful degradation"). Tagged "tier":"exact": every
/// answer comes from the full pipeline. A pure function of (id, report,
/// attempts), so coalesced requests sharing one computation — and repeats
/// answered from the daemon's reply memo — get byte-identical replies.
std::string projection_reply(std::string_view id,
                             const core::ProjectionReport& report,
                             int attempts);

/// Every reply this header writes leads with its "id" field; the body is
/// the rest of the line, from the comma after the id to the closing
/// brace. A body depends only on what was computed, never on who asked,
/// which is what lets the daemon's reply memo store one body per spec.
/// Precondition: `reply` was written by this header.
std::string reply_body(std::string_view reply);

/// The reply line with id `id` and body `body`: the inverse of
/// reply_body, so reply_with_id(id, reply_body(r)) == r for any reply r
/// whose id is `id`.
std::string reply_with_id(std::string_view id, std::string_view body);

/// One reply line with status "ok" for a ping.
std::string pong_reply(std::string_view id);

}  // namespace grophecy::serve
