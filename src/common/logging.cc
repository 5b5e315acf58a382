#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/env.h"

namespace deeplens {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::once_flag g_env_once;
// Set while this thread parses DEEPLENS_LOG: ChoiceFromEnv logs its
// rejection warning through GetLogLevel, which must not re-enter the
// call_once it is running under.
thread_local bool t_parsing_env = false;

void InitFromEnv() {
  t_parsing_env = true;
  g_level = static_cast<int>(LogLevelFromEnv());
  t_parsing_env = false;
}

const char* LevelName(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = static_cast<int>(level); }

LogLevel LogLevelFromEnv() {
  const std::string level = ChoiceFromEnv(
      "DEEPLENS_LOG", {"debug", "info", "warn", "error"}, "warn");
  if (level == "debug") return LogLevel::kDebug;
  if (level == "info") return LogLevel::kInfo;
  if (level == "error") return LogLevel::kError;
  return LogLevel::kWarn;
}

LogLevel GetLogLevel() {
  if (!t_parsing_env) std::call_once(g_env_once, InitFromEnv);
  return static_cast<LogLevel>(g_level.load());
}

namespace internal {
void LogEmit(LogLevel level, const char* file, int line,
             const std::string& msg) {
  const char* base = std::strrchr(file, '/');
  base = base ? base + 1 : file;
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line,
               msg.c_str());
}
}  // namespace internal

}  // namespace deeplens
