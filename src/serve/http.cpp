#include "serve/http.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace vedr::serve {
namespace {

constexpr int kAcceptPollMs = 200;   ///< stop() latency bound
constexpr std::size_t kMaxRequestBytes = 8192;
/// Longest a client may take to send its request, from accept to the blank
/// line. The listener is single-threaded, so this also bounds how long one
/// slow client can delay every other scrape.
constexpr std::chrono::milliseconds kRequestDeadline{1000};
/// Longest the listener spends writing one response. A client that stops
/// reading stalls the writes once the response outgrows the socket buffers
/// (/sessions has no size bound); at the deadline its connection is closed.
constexpr std::chrono::milliseconds kResponseDeadline{1000};

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, for poll(); <= 0 once it has passed.
int ms_until(Clock::time_point deadline) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count());
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

/// Writes `data` to `fd` until done, the client hangs up, or
/// kResponseDeadline passes; the caller then closes the connection.
void send_all(int fd, const std::string& data) {
  const Clock::time_point deadline = Clock::now() + kResponseDeadline;
  std::size_t off = 0;
  while (off < data.size()) {
    const int left = ms_until(deadline);
    if (left <= 0) return;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    if (::poll(&pfd, 1, left) <= 0) return;
    // MSG_DONTWAIT: take only what the socket buffer holds now, so the loop
    // gets back to the deadline. MSG_NOSIGNAL: a scraper that hangs up
    // mid-response must not SIGPIPE the daemon.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool HttpListener::start(std::uint16_t port, std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // observability is loopback-only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = static_cast<int>(ntohs(addr.sin_port));

  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpListener::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpListener::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout (re-check stop) or transient error
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_client(client);
    ::close(client);
  }
}

void HttpListener::handle_client(int fd) {
  // Scrapers send the whole request in one segment in practice, but read
  // until the header terminator anyway, within one deadline for the whole
  // request, so a client trickling bytes cannot wedge the listener.
  const Clock::time_point deadline = Clock::now() + kRequestDeadline;
  std::string req;
  while (req.size() < kMaxRequestBytes && req.find("\r\n\r\n") == std::string::npos) {
    const int left = ms_until(deadline);
    if (left <= 0) break;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, left) <= 0) break;
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }

  // Only the request line counts: "METHOD SP TARGET SP VERSION".
  const std::string line = req.substr(0, req.find("\r\n"));
  HttpResponse resp;
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp.status = 400;
    resp.body = "malformed request\n";
  } else if (line.compare(0, sp1, "GET") != 0) {
    resp.status = 405;
    resp.body = "only GET is supported\n";
  } else {
    resp = handler_(line.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  std::string out = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                    reason_phrase(resp.status) + "\r\nContent-Type: " +
                    resp.content_type + "\r\nContent-Length: " +
                    std::to_string(resp.body.size()) + "\r\nConnection: close\r\n\r\n";
  out += resp.body;
  send_all(fd, out);
}

}  // namespace vedr::serve
