// Minimal blocking HTTP/1.1 client for the introspection-endpoint tests.
// It speaks exactly what curl would over a raw socket, so the tests pin
// the wire format, not a client library's tolerance.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>

namespace rubic::test {

// One round trip: connect to 127.0.0.1:port, send `request` verbatim, read
// to EOF (the server closes after one response). "" when nothing listens.
inline std::string http_exchange(std::uint16_t port,
                                 const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  // The harness must never wedge on a server that accepted but won't
  // answer (e.g. a stopped server whose listen backlog still connects).
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

inline std::string http_get(std::uint16_t port, const std::string& path,
                            const std::string& method = "GET") {
  return http_exchange(port, method + " " + path +
                                 " HTTP/1.1\r\nHost: t\r\n"
                                 "Connection: close\r\n\r\n");
}

}  // namespace rubic::test
