#include "serve/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "serve/protocol.h"

namespace malleus {
namespace serve {

Result<std::unique_ptr<Client>> Client::ConnectTcp(const std::string& host,
                                                   int port) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string service = StrFormat("%d", port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &found);
  if (rc != 0) {
    return Status::Unavailable(StrFormat("resolve %s: %s", host.c_str(),
                                         ::gai_strerror(rc)));
  }
  int fd = -1;
  Status error = Status::Unavailable(
      StrFormat("no usable address for %s:%d", host.c_str(), port));
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    error = Status::Unavailable(StrFormat("connect %s:%d: %s", host.c_str(),
                                          port, std::strerror(errno)));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) return error;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> Client::ReadLine() {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("recv: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Unavailable("connection closed by server");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::string> Client::CallRaw(const std::string& method,
                                    const std::string& params_json,
                                    int64_t deadline_ms) {
  const int64_t id = next_id_++;
  std::string line = RequestLine(id, method, params_json, deadline_ms);
  line.push_back('\n');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return ReadLine();
}

}  // namespace serve
}  // namespace malleus
