// Minimal leveled logging for the MLCD library.
//
// The library is used both interactively (examples, benches) and inside
// tight search loops (a probe step runs in microseconds), so a disabled
// statement costs one call to log_enabled (a relaxed atomic load) and a
// branch. MLCD_LOG checks the level before it builds anything: no stream
// is constructed and none of the streamed arguments is evaluated.
// Arguments to MLCD_LOG must therefore have no side effects the program
// relies on.
#pragma once

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

namespace mlcd::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the short uppercase tag for a level ("INFO", "WARN", ...).
std::string_view log_level_name(LogLevel level) noexcept;

/// Global minimum level; messages below it are dropped. Thread-safe.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// True when `level` would currently be emitted.
bool log_enabled(LogLevel level) noexcept;

/// Emits one formatted line to stderr: "[LEVEL] component: message".
void log_message(LogLevel level, std::string_view component,
                 std::string_view message);

/// Stream-style log statement builder, used via the MLCD_LOG macro, which
/// constructs one only when its level is enabled.
class LogStatement {
 public:
  LogStatement(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}

  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  ~LogStatement() { log_message(level_, component_, stream_.str()); }

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};

/// Turns a streamed LogStatement into a void expression, so MLCD_LOG can
/// be the second arm of a conditional (`&` binds looser than `<<`).
struct LogVoidify {
  void operator&(const LogStatement&) const noexcept {}
};

}  // namespace mlcd::util

// An expression, not an `if`: it nests under an unbraced if/else without
// a dangling-else warning. The level check guards every argument.
#define MLCD_LOG(level, component)                                      \
  !::mlcd::util::log_enabled(::mlcd::util::LogLevel::level)             \
      ? (void)0                                                         \
      : ::mlcd::util::LogVoidify() &                                    \
            ::mlcd::util::LogStatement(::mlcd::util::LogLevel::level, \
                                       component)
