#include "exec/journal.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

#include "util/checksum.h"
#include "util/contracts.h"
#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GROPHECY_HAVE_FSYNC 1
#endif

namespace grophecy::exec {

namespace {

constexpr std::string_view kPrefix = "{\"crc\":\"";      // then 8 hex chars
constexpr std::string_view kMiddle = "\",\"rec\":";      // then the payload
constexpr std::size_t kCrcHexLen = 8;
static_assert(ResultJournal::kFrameBytes ==
              kPrefix.size() + kCrcHexLen + kMiddle.size() + 2);

/// Extracts and verifies one journal line; empty optional when torn or
/// corrupt.
std::optional<std::string> validate_line(std::string_view line) {
  if (line.size() < kPrefix.size() + kCrcHexLen + kMiddle.size() + 1)
    return std::nullopt;
  if (line.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string_view crc = line.substr(kPrefix.size(), kCrcHexLen);
  const std::size_t rec_at = kPrefix.size() + kCrcHexLen;
  if (line.substr(rec_at, kMiddle.size()) != kMiddle) return std::nullopt;
  if (line.back() != '}') return std::nullopt;
  const std::string_view payload = line.substr(
      rec_at + kMiddle.size(), line.size() - rec_at - kMiddle.size() - 1);
  if (util::crc32_hex(payload) != crc) return std::nullopt;
  return std::string(payload);
}

/// Cuts everything after the last newline of `path`. Every append ends
/// its line, so those bytes are a torn line from a crash mid-write; left
/// in place, the next append would glue its record onto them and lose it.
void drop_torn_tail(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return;
  const std::streamoff end = file.tellg();
  std::streamoff keep = end;
  char chunk[4096];
  while (keep > 0) {
    const std::streamoff from =
        std::max<std::streamoff>(0, keep - std::streamoff{sizeof chunk});
    file.seekg(from);
    if (!file.read(chunk, keep - from)) return;
    const std::string_view bytes(chunk, static_cast<std::size_t>(keep - from));
    if (const std::size_t newline = bytes.rfind('\n');
        newline != std::string_view::npos) {
      keep = from + static_cast<std::streamoff>(newline) + 1;
      break;
    }
    keep = from;
  }
  file.close();
  if (keep < end)
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(keep));
}

}  // namespace

ResultJournal::~ResultJournal() { close(); }

JournalReadResult ResultJournal::read(const std::string& path) {
  JournalReadResult result;
  std::ifstream file(path);
  if (!file) return result;  // missing journal == nothing to resume
  std::string line;
  bool last_line_corrupt = false;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    if (auto payload = validate_line(line)) {
      result.records.push_back(std::move(*payload));
      last_line_corrupt = false;
    } else {
      ++result.corrupt_lines;
      last_line_corrupt = true;
    }
  }
  // Only the file's final line can be a torn-append crash artifact;
  // every other invalid line is interior damage the caller must surface.
  result.corrupt_tail = last_line_corrupt ? 1 : 0;
  result.corrupt_interior = result.corrupt_lines - result.corrupt_tail;
  return result;
}

void ResultJournal::open_append(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  GROPHECY_EXPECTS(file_ == nullptr);
  drop_torn_tail(path);
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_)
    throw UsageError("cannot open sweep journal for append: " + path);
  // Unbuffered: each fwrite is one write(2) of the whole record or group,
  // with no copy through (and no split at) a stdio buffer.
  std::setvbuf(file_, nullptr, _IONBF, 0);
}

void ResultJournal::append(std::string_view payload, bool sync_now) {
  std::string line;
  line.reserve(payload.size() + kFrameBytes);
  frame(line, payload);
  append_framed(line, sync_now);
}

void ResultJournal::frame(std::string& lines, std::string_view payload) {
  GROPHECY_EXPECTS(payload.find('\n') == std::string_view::npos);
  lines += kPrefix;
  lines += util::crc32_hex(payload);
  lines += kMiddle;
  lines += payload;
  lines += "}\n";
}

void ResultJournal::append_framed(std::string_view lines, bool sync_now) {
  GROPHECY_EXPECTS(lines.empty() || lines.back() == '\n');
  std::lock_guard<std::mutex> lock(mutex_);
  GROPHECY_EXPECTS(file_ != nullptr);
  if (std::fwrite(lines.data(), 1, lines.size(), file_) != lines.size() ||
      std::fflush(file_) != 0)
    throw MeasurementError("sweep journal write failed");
  if (sync_now) sync_locked();
}

void ResultJournal::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_) sync_locked();
}

void ResultJournal::sync_locked() {
#ifdef GROPHECY_HAVE_FSYNC
  // Push the record(s) through the OS cache: an acknowledged append must
  // survive an immediate crash, not just a clean process exit.
  fsync(fileno(file_));
#endif
}

void ResultJournal::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace grophecy::exec
