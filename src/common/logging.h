// Minimal leveled logging plus CHECK macros.

#ifndef MALLEUS_COMMON_LOGGING_H_
#define MALLEUS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace malleus {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// The minimum level that is actually emitted: kInfo, overridable at
/// startup with MALLEUS_LOG_LEVEL=debug|info|warning|error.
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log sink; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Aborts after streaming the message; used by CHECK failures.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* expr);
  [[noreturn]] ~FatalLogMessage();

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define MALLEUS_LOG(level)                                              \
  ::malleus::internal::LogMessage(::malleus::LogLevel::k##level,        \
                                  __FILE__, __LINE__)

/// Aborts the process with a message if `cond` is false.
#define MALLEUS_CHECK(cond)                                            \
  if (!(cond))                                                         \
  ::malleus::internal::FatalLogMessage(__FILE__, __LINE__, #cond)

#define MALLEUS_CHECK_EQ(a, b) MALLEUS_CHECK((a) == (b))
#define MALLEUS_CHECK_NE(a, b) MALLEUS_CHECK((a) != (b))
#define MALLEUS_CHECK_LT(a, b) MALLEUS_CHECK((a) < (b))
#define MALLEUS_CHECK_LE(a, b) MALLEUS_CHECK((a) <= (b))
#define MALLEUS_CHECK_GT(a, b) MALLEUS_CHECK((a) > (b))
#define MALLEUS_CHECK_GE(a, b) MALLEUS_CHECK((a) >= (b))

}  // namespace malleus

#endif  // MALLEUS_COMMON_LOGGING_H_
