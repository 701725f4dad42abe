#include "common/logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace malleus {

namespace {

// Startup log level: MALLEUS_LOG_LEVEL=debug|info|warning|error (also
// accepts "warn"; case-insensitive) overrides the kInfo default, so
// examples and benches can be made verbose without recompiling.
LogLevel InitialLogLevel() {
  const char* env = std::getenv("MALLEUS_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return LogLevel::kInfo;
  std::string v;
  for (const char* p = env; *p; ++p) {
    v += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (v == "debug") return LogLevel::kDebug;
  if (v == "info") return LogLevel::kInfo;
  if (v == "warning" || v == "warn") return LogLevel::kWarning;
  if (v == "error") return LogLevel::kError;
  std::fprintf(stderr,
               "[WARN logging.cc] unknown MALLEUS_LOG_LEVEL '%s' "
               "(want debug|info|warning|error); using info\n",
               env);
  return LogLevel::kInfo;
}

const LogLevel g_log_level = InitialLogLevel();

// Serializes writes to stderr so concurrent threads (e.g. an overlapped
// planner run) cannot interleave log lines. Leaked to dodge destruction-
// order issues with logging from static destructors.
std::mutex& StderrMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_log_level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel()) {
    const std::string line = stream_.str();
    std::lock_guard<std::mutex> lock(StderrMutex());
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* expr) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: " << expr
          << " ";
}

FatalLogMessage::~FatalLogMessage() {
  const std::string line = stream_.str();
  {
    std::lock_guard<std::mutex> lock(StderrMutex());
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::abort();
}

}  // namespace internal

}  // namespace malleus
