// Tiny leveled logger.
//
// The framework is a library first; logging defaults to warnings-and-above
// on stderr and is globally adjustable (benches turn on info for progress).
//
// GROPHECY_LOG checks the level before it builds a line: below the
// threshold none of its `<<` operands is evaluated and no stream is made,
// so a dropped kInfo line in a per-job constructor costs one atomic load.
#pragma once

#include <sstream>
#include <string>

namespace grophecy::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Whether a message at `level` would be emitted now.
bool log_enabled(LogLevel level);

/// Emits one line ("[level] message") to stderr if enabled.
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Turns the `LogLine << ...` chain into a void expression, so both arms
/// of GROPHECY_LOG's conditional are void. `&` binds looser than `<<`.
struct LogVoidify {
  void operator&(const LogLine&) const {}
};
}  // namespace detail

}  // namespace grophecy::util

// A conditional expression rather than an `if`, so the macro is safe as
// the body of an unbraced if/else (no dangling else).
#define GROPHECY_LOG(level)                                                \
  !::grophecy::util::log_enabled(::grophecy::util::LogLevel::level)        \
      ? static_cast<void>(0)                                               \
      : ::grophecy::util::detail::LogVoidify() &                           \
            ::grophecy::util::detail::LogLine(                             \
                ::grophecy::util::LogLevel::level)
