#include "util/logging.h"

#include <atomic>
#include <cstdio>

namespace grophecy::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

bool log_enabled(LogLevel level) {
  return level != LogLevel::kOff &&
         static_cast<int>(level) >=
             static_cast<int>(g_level.load(std::memory_order_relaxed));
}

void log_message(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace grophecy::util
