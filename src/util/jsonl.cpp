#include "util/jsonl.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace grophecy::util {

namespace {

/// Appends `text` with JSON string escaping. Runs that need no escape are
/// appended whole.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto ch = static_cast<unsigned char>(text[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[ch >> 4], kHex[ch & 0xf]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(text, run);
}

/// Appends `value` exactly as printf's "%.17g" writes it: std::to_chars in
/// general format at precision 17 produces the same bytes (inf, nan and
/// signed zero included) without the locale and format-string machinery.
void append_number(std::string& out, double value) {
  char buffer[32];  // "-1.2345678901234567e-308" is the longest, 24 bytes
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string write_flat_json(const FlatJson& object) {
  // Reserve for the unescaped size: braces, and per field the quoted key,
  // the colon, the comma and the value (a number takes at most 24 bytes).
  std::size_t size = 2;
  for (const auto& [key, value] : object) {
    size += key.size() + 4;
    if (const auto* s = std::get_if<std::string>(&value))
      size += s->size() + 2;
    else
      size += 24;
  }
  std::string out;
  out.reserve(size);
  out += '{';
  bool first = true;
  for (const auto& [key, value] : object) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, key);
    out += "\":";
    if (const auto* s = std::get_if<std::string>(&value)) {
      out += '"';
      append_escaped(out, *s);
      out += '"';
    } else if (const auto* d = std::get_if<double>(&value)) {
      append_number(out, *d);
    } else {
      out += std::get<bool>(value) ? "true" : "false";
    }
  }
  out += '}';
  return out;
}

namespace {

/// Cursor over the input; every helper returns false on malformed input.
struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
  }

  bool consume(char expected) {
    if (eof() || peek() != expected) return false;
    ++pos;
    return true;
  }

  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (true) {
      if (eof()) return false;
      const char ch = text[pos++];
      if (ch == '"') return true;
      if (ch != '\\') {
        // RFC 8259: control characters must arrive escaped. Rejecting the
        // raw bytes here keeps line framing unambiguous on the wire — an
        // embedded newline can only ever appear as "\n", so one request is
        // always exactly one line (the writer already escapes on the way
        // out; see json_escape).
        if (static_cast<unsigned char>(ch) < 0x20) return false;
        out += ch;
        continue;
      }
      if (eof()) return false;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text[pos++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= hex - '0';
            else if (hex >= 'a' && hex <= 'f') code |= hex - 'a' + 10;
            else if (hex >= 'A' && hex <= 'F') code |= hex - 'A' + 10;
            else return false;
          }
          // Wire clients may escape any BMP character; decode to UTF-8.
          // Unpaired surrogates have no byte encoding and are rejected
          // (raw UTF-8 already passes through both writer and reader, so
          // no client needs surrogate pairs to say anything).
          if (code >= 0xD800 && code <= 0xDFFF) return false;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
  }

  bool read_value(JsonScalar& out) {
    if (eof()) return false;
    const char ch = peek();
    if (ch == '"') {
      std::string s;
      if (!read_string(s)) return false;
      out = std::move(s);
      return true;
    }
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      out = true;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      out = false;
      return true;
    }
    // Number: delegate to strtod over the JSON number charset.
    const std::size_t start = pos;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '-' || peek() == '+' || peek() == '.' ||
                      peek() == 'e' || peek() == 'E'))
      ++pos;
    if (pos == start) return false;
    const std::string token(text.substr(start, pos - start));
    // strtod is laxer than the JSON grammar; reject the extras a hostile
    // wire client could feed it ("+1", ".5" — a JSON number starts with
    // '-' or a digit).
    if (token.front() == '+' || token.front() == '.') return false;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value))
      return false;
    out = value;
    return true;
  }
};

}  // namespace

std::optional<FlatJson> parse_flat_json(std::string_view text) {
  Reader reader{text};
  reader.skip_ws();
  if (!reader.consume('{')) return std::nullopt;
  FlatJson object;
  reader.skip_ws();
  if (reader.consume('}')) {
    reader.skip_ws();
    return reader.eof() ? std::make_optional(object) : std::nullopt;
  }
  while (true) {
    reader.skip_ws();
    std::string key;
    if (!reader.read_string(key)) return std::nullopt;
    reader.skip_ws();
    if (!reader.consume(':')) return std::nullopt;
    reader.skip_ws();
    JsonScalar value;
    if (!reader.read_value(value)) return std::nullopt;
    object.emplace_back(std::move(key), std::move(value));
    reader.skip_ws();
    if (reader.consume(',')) continue;
    if (reader.consume('}')) break;
    return std::nullopt;
  }
  reader.skip_ws();
  if (!reader.eof()) return std::nullopt;
  return object;
}

std::optional<std::string> json_string(const FlatJson& object,
                                       std::string_view key) {
  for (const auto& [name, value] : object)
    if (name == key)
      if (const auto* s = std::get_if<std::string>(&value)) return *s;
  return std::nullopt;
}

std::optional<double> json_number(const FlatJson& object,
                                  std::string_view key) {
  for (const auto& [name, value] : object)
    if (name == key)
      if (const auto* d = std::get_if<double>(&value)) return *d;
  return std::nullopt;
}

std::optional<bool> json_bool(const FlatJson& object, std::string_view key) {
  for (const auto& [name, value] : object)
    if (name == key)
      if (const auto* b = std::get_if<bool>(&value)) return *b;
  return std::nullopt;
}

}  // namespace grophecy::util
