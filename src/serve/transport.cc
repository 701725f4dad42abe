#include "serve/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace malleus {
namespace serve {

uint64_t OrderedWriter::NextSeq() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_++;
}

void OrderedWriter::Deliver(uint64_t seq, std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_[seq] = std::move(line);
  while (true) {
    auto it = ready_.find(next_write_);
    if (it == ready_.end()) break;
    write_line_(it->second);
    ready_.erase(it);
    ++next_write_;
  }
}

namespace {

bool BlankLine(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

Status ServeStdio(Server* server, std::istream& in, std::ostream& out) {
  // One scripted client: each request runs to completion before the next
  // line is read, so a replan always sees the register and plan above it.
  std::string line;
  while (!server->shutdown_requested() && std::getline(in, line)) {
    if (BlankLine(line)) continue;
    out << server->Handle(std::move(line)) << "\n";
    out.flush();
  }
  return Status::OK();
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status TcpServer::Listen(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(
        StrFormat("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Unavailable(
        StrFormat("bind(127.0.0.1:%d): %s", port, std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::Unavailable(
        StrFormat("listen(): %s", std::strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Status::Unavailable(
        StrFormat("getsockname(): %s", std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status TcpServer::Serve() {
  MALLEUS_CHECK_GE(listen_fd_, 0) << "Listen() first";
  while (!stop_.load() && !server_->shutdown_requested()) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("poll(): %s", std::strerror(errno)));
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("accept(): %s", std::strerror(errno)));
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
  // Let in-flight work answer, then join the connection readers (their
  // clients have the responses by now or hung up).
  server_->Drain();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  return Status::OK();
}

void TcpServer::ServeConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::mutex send_mu;
  OrderedWriter writer([fd, &send_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(send_mu);
    std::string framed = line;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // Client hung up; drop the rest of this response.
      }
      sent += static_cast<size_t>(n);
    }
  });

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stop_.load()) {
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick: once the server is draining there is nothing more to
      // read from this client.
      if (server_->shutdown_requested()) break;
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or error: stop reading.
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    while (true) {
      const size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (BlankLine(line)) continue;
      const uint64_t seq = writer.NextSeq();
      server_->Submit(std::move(line), [&writer, seq](std::string response) {
        writer.Deliver(seq, std::move(response));
      });
    }
    buffer.erase(0, start);
  }
  // All of this connection's submissions must deliver before `writer`
  // leaves scope.
  server_->Drain();
  ::close(fd);
}

}  // namespace serve
}  // namespace malleus
