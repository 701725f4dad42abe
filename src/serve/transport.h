// Transports: they move JSONL lines between a byte stream and the serving
// core, nothing more. Two are provided — stdio (scripted sessions, the
// smoke test, debugging through a pipe) and TCP (the real daemon).
//
// Ordering: a stdio stream is one scripted client, so ServeStdio runs its
// requests one at a time in arrival order — a request sees every effect of
// the lines above it, and the output is reproducible byte for byte. Over
// TCP, execution overlaps across requests, but each connection's responses
// are written in request order (OrderedWriter buffers out-of-order
// completions).
//
// Shutdown: transports poll Server::shutdown_requested() — set when a
// `shutdown` request is processed — stop reading, drain, and return to
// the caller, which owns the Server and calls Server::Shutdown().

#ifndef MALLEUS_SERVE_TRANSPORT_H_
#define MALLEUS_SERVE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/server.h"

namespace malleus {
namespace serve {

/// \brief Reorders concurrently-completed responses into request order.
///
/// Thread-safe. Claim a slot with NextSeq() in reading order, Deliver()
/// from any thread; `write_line` runs under the writer's lock, already in
/// order, one call per line.
class OrderedWriter {
 public:
  explicit OrderedWriter(std::function<void(const std::string&)> write_line)
      : write_line_(std::move(write_line)) {}

  uint64_t NextSeq();
  void Deliver(uint64_t seq, std::string line);

 private:
  const std::function<void(const std::string&)> write_line_;
  std::mutex mu_;
  std::map<uint64_t, std::string> ready_;
  uint64_t next_seq_ = 0;
  uint64_t next_write_ = 0;
};

/// Serves JSONL request lines from `in` to `out` until EOF or a processed
/// `shutdown` request; blank lines are ignored. Each line is answered
/// before the next is read, so a request never overtakes an earlier one.
Status ServeStdio(Server* server, std::istream& in, std::ostream& out);

/// \brief TCP JSONL listener: one reader thread per connection, responses
/// in per-connection request order.
class TcpServer {
 public:
  explicit TcpServer(Server* server) : server_(server) {}
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, see port()).
  Status Listen(int port);
  int port() const { return port_; }

  /// Accepts and serves connections until a `shutdown` request is
  /// processed (or Stop() is called), then drains and returns.
  Status Serve();

  /// Asks Serve() to unwind; safe from any thread.
  void Stop() { stop_.store(true); }

 private:
  void ServeConnection(int fd);

  Server* const server_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
};

}  // namespace serve
}  // namespace malleus

#endif  // MALLEUS_SERVE_TRANSPORT_H_
