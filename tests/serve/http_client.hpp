// Blocking localhost client for tests that talk to a live streaming
// daemon: a raw TCP connection for the line-protocol ingest port and a
// one-request-per-connection HTTP/1.0 GET for the query port.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace hpcfail::test_client {

inline int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

inline void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

struct HttpResponse {
  int status = 0;
  std::string body;
};

inline HttpResponse http_get(int port, const std::string& target) {
  const int fd = connect_to(port);
  send_all(fd, "GET " + target + " HTTP/1.0\r\n\r\n");
  std::string raw;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  HttpResponse response;
  const std::size_t space = raw.find(' ');
  if (space != std::string::npos) {
    response.status = std::stoi(raw.substr(space + 1, 3));
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    response.body = raw.substr(header_end + 4);
  }
  return response;
}

}  // namespace hpcfail::test_client
