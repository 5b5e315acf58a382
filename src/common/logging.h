// Minimal leveled logging to stderr. Off by default below kWarn so that
// benchmarks are not polluted; set via SetLogLevel or DEEPLENS_LOG env var.
#pragma once

#include <sstream>
#include <string>

namespace deeplens {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level that is emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parses DEEPLENS_LOG (`debug` / `info` / `warn` / `error`) via
/// ChoiceFromEnv: unset means kWarn, and garbage warns and keeps kWarn.
/// GetLogLevel() applies it once, on first use.
LogLevel LogLevelFromEnv();

namespace internal {
void LogEmit(LogLevel level, const char* file, int line,
             const std::string& msg);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { LogEmit(level_, file_, line_, ss_.str()); }
  std::ostringstream& stream() { return ss_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream ss_;
};
}  // namespace internal

#define DL_LOG(level)                                                     \
  if (static_cast<int>(::deeplens::LogLevel::level) <                     \
      static_cast<int>(::deeplens::GetLogLevel())) {                      \
  } else                                                                  \
    ::deeplens::internal::LogMessage(::deeplens::LogLevel::level,         \
                                     __FILE__, __LINE__)                  \
        .stream()

}  // namespace deeplens
