// Client library for the malleus::serve protocol: a blocking JSONL
// request/response channel over TCP. One Client is one connection and one
// id sequence; it is NOT thread-safe (callers wanting concurrency open
// one Client per thread — ids are per-connection, so that composes).

#ifndef MALLEUS_SERVE_CLIENT_H_
#define MALLEUS_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"

namespace malleus {
namespace serve {

/// \brief Blocking protocol client over one TCP connection.
class Client {
 public:
  static Result<std::unique_ptr<Client>> ConnectTcp(const std::string& host,
                                                    int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `method` (params_json empty = no params; deadline_ms < 0 =
  /// none) and returns the raw response line. Only transport failures are
  /// a Status here; wire errors come back as the response line.
  Result<std::string> CallRaw(const std::string& method,
                              const std::string& params_json,
                              int64_t deadline_ms = -1);

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Next full line from the connection (newline stripped).
  Result<std::string> ReadLine();

  int fd_;
  int64_t next_id_ = 1;
  std::string buffer_;
};

}  // namespace serve
}  // namespace malleus

#endif  // MALLEUS_SERVE_CLIENT_H_
