// Minimal flat-JSON encoding for line-oriented journals (JSONL).
//
// The sweep result journal stores one JSON object per line. Those records
// are *flat*: every value is a string, a finite number, or a bool — no
// nesting, no arrays. That restriction keeps the format trivially
// greppable and lets the reader be a ~hundred-line loop instead of a JSON
// library dependency (the container ships none).
//
// The writer emits strict JSON (RFC 8259 escaping); the reader accepts
// the flat subset the writer produces — plus \uXXXX escapes for any
// non-surrogate BMP character, decoded to UTF-8, since foreign wire
// clients (serve::Daemon speaks this format over a socket) escape more
// eagerly than our writer does — and returns std::nullopt for anything
// else. Raw control bytes inside strings are rejected per RFC 8259, so an
// embedded newline can only appear escaped and one object is always
// exactly one line. A torn or corrupt line must never throw: it is an
// expected artifact of a crash mid-append (journals) or of a hostile
// client (the wire); escape -> parse round-trips every byte string.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace grophecy::util {

/// One field value of a flat JSON object.
using JsonScalar = std::variant<std::string, double, bool>;

/// An ordered flat JSON object (insertion order preserved on write;
/// document order preserved on read).
using FlatJson = std::vector<std::pair<std::string, JsonScalar>>;

/// `text` with JSON string escaping applied (no surrounding quotes).
std::string json_escape(std::string_view text);

/// Serializes `object` as one strict JSON object, fields in order.
/// Numbers are written byte for byte as printf's "%.17g" writes them (by
/// std::to_chars), enough digits to round-trip every finite double.
std::string write_flat_json(const FlatJson& object);

/// Parses one flat JSON object. Returns std::nullopt on any syntax error,
/// trailing garbage, nesting, or non-finite number — never throws.
std::optional<FlatJson> parse_flat_json(std::string_view text);

/// Field lookup helpers; std::nullopt when absent or the wrong type.
std::optional<std::string> json_string(const FlatJson& object,
                                       std::string_view key);
std::optional<double> json_number(const FlatJson& object,
                                  std::string_view key);
std::optional<bool> json_bool(const FlatJson& object, std::string_view key);

}  // namespace grophecy::util
