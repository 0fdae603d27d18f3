// Minimal leveled logging. Off by default below kWarning so benchmarks stay
// quiet; tests and examples can raise verbosity.
//
// Each emitted line carries a level tag and a monotonic timestamp (seconds
// since the first log call, steady clock — immune to wall-clock jumps), and
// is written to stderr with a single formatted fwrite. Concurrent workers
// therefore never interleave within a line, and lines sort in emission
// order.

#ifndef PRIVAPPROX_COMMON_LOGGING_H_
#define PRIVAPPROX_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace privapprox {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Sets/returns the global minimum level that is actually emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emits `message` to stderr if `level` >= the global level.
void LogMessage(LogLevel level, const std::string& message);

// Formats one log line: "[ssssss.mmm] [LEVEL] message\n" where the
// timestamp is `elapsed_ns` rendered as seconds.milliseconds. Exposed for
// the logging tests; LogMessage uses it with the time since first log.
std::string FormatLogLine(LogLevel level, const std::string& message,
                          int64_t elapsed_ns);

namespace internal {

// Stream-style helper: accumulates a line, emits on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }

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

}  // namespace internal

inline internal::LogLine LogDebug() {
  return internal::LogLine(LogLevel::kDebug);
}
inline internal::LogLine LogInfo() { return internal::LogLine(LogLevel::kInfo); }
inline internal::LogLine LogWarning() {
  return internal::LogLine(LogLevel::kWarning);
}
inline internal::LogLine LogError() {
  return internal::LogLine(LogLevel::kError);
}

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_LOGGING_H_
