#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

namespace vedr::serve {
namespace {

/// A socket connected to the listener on loopback `port`.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

/// One-shot HTTP/1.0 GET against loopback; returns the raw response.
std::string http_get(int port, const std::string& request_line) {
  const int fd = connect_to(port);
  const std::string req = request_line + "\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

TEST(HttpListener, ServesHandlerResponsesOnEphemeralPort) {
  HttpListener http([](const std::string& path) {
    HttpResponse r;
    if (path == "/healthz") {
      r.body = "ok\n";
    } else if (path == "/echo") {
      r.content_type = "application/json";
      r.body = "{\"path\":\"/echo\"}";
    } else {
      r.status = 404;
      r.body = "nope\n";
    }
    return r;
  });
  std::string err;
  ASSERT_TRUE(http.start(0, &err)) << err;
  ASSERT_GT(http.port(), 0);  // kernel-assigned, read back

  const std::string health = http_get(http.port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("Content-Length: 3"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

  const std::string echo = http_get(http.port(), "GET /echo HTTP/1.0");
  EXPECT_NE(echo.find("Content-Type: application/json"), std::string::npos) << echo;
  EXPECT_NE(echo.find("{\"path\":\"/echo\"}"), std::string::npos) << echo;

  const std::string missing = http_get(http.port(), "GET /none HTTP/1.0");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos) << missing;

  const std::string post = http_get(http.port(), "POST /healthz HTTP/1.0");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos) << post;

  http.stop();
  http.stop();  // idempotent
}

TEST(HttpListener, MalformedRequestLineGets400) {
  HttpListener http([](const std::string&) {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  std::string err;
  ASSERT_TRUE(http.start(0, &err)) << err;
  // Not "METHOD TARGET VERSION": a client error, not an unsupported method.
  for (const char* line : {"GARBAGE", "GET", "GET /healthz"}) {
    const std::string resp = http_get(http.port(), line);
    EXPECT_NE(resp.find("HTTP/1.0 400 Bad Request"), std::string::npos) << line << ": " << resp;
  }
  http.stop();
}

TEST(HttpListener, SequentialRequestsSurviveStopStartCycle) {
  int calls = 0;
  HttpListener http([&calls](const std::string&) {
    HttpResponse r;
    r.body = "n=" + std::to_string(++calls) + "\n";
    return r;
  });
  std::string err;
  ASSERT_TRUE(http.start(0, &err)) << err;
  for (int i = 1; i <= 3; ++i) {
    const std::string resp = http_get(http.port(), "GET / HTTP/1.0");
    EXPECT_NE(resp.find("n=" + std::to_string(i) + "\n"), std::string::npos) << resp;
  }
  http.stop();
}

TEST(HttpListener, TricklingClientCannotHoldTheListener) {
  // One client sends a byte every 200 ms and never finishes its request.
  // The listener serves one client at a time, so a scrape that arrives
  // behind it waits; the per-request deadline (1 s) must bound that wait.
  HttpListener http([](const std::string&) {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  std::string err;
  ASSERT_TRUE(http.start(0, &err)) << err;

  std::atomic<bool> served{false};
  std::atomic<bool> connected{false};
  std::thread trickler([&http, &served, &connected] {
    const int fd = connect_to(http.port());
    connected.store(true);
    const std::string slow = "GET /healthz HTTP/1.0\r\nX-Pad: ";
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (std::size_t i = 0; !served.load() && std::chrono::steady_clock::now() < give_up; ++i) {
      const char c = slow[i % slow.size()];
      if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;  // the listener gave up on us
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    ::close(fd);
  });
  while (!connected.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it be accepted first

  const auto t0 = std::chrono::steady_clock::now();
  const std::string health = http_get(http.port(), "GET /healthz HTTP/1.0");
  const auto waited = std::chrono::steady_clock::now() - t0;
  served.store(true);
  trickler.join();
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  // The deadline plus a margin for loaded or sanitized runs.
  EXPECT_LT(waited, std::chrono::milliseconds(1000 + 2500))
      << std::chrono::duration_cast<std::chrono::milliseconds>(waited).count() << " ms";
  http.stop();
}

TEST(HttpListener, ClientThatNeverReadsCannotHoldTheListener) {
  // A response far larger than the loopback socket buffers: writing it to a
  // client that never reads stalls once they are full. The listener serves
  // one client at a time, so a scrape behind it waits; the response deadline
  // (1 s) must bound that wait while the stuck client stays connected.
  HttpListener http([](const std::string& path) {
    HttpResponse r;
    if (path == "/big") {
      r.body.assign(std::size_t{64} << 20, 'x');
    } else {
      r.body = "ok\n";
    }
    return r;
  });
  std::string err;
  ASSERT_TRUE(http.start(0, &err)) << err;

  std::atomic<bool> requested{false};
  std::thread stuck([&http, &requested] {
    const int fd = connect_to(http.port());
    const std::string req = "GET /big HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL), static_cast<ssize_t>(req.size()));
    requested.store(true);
    // Connected, never reading, for five response deadlines.
    std::this_thread::sleep_for(std::chrono::seconds(5));
    ::close(fd);
  });
  while (!requested.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let its writes stall first

  const auto t0 = std::chrono::steady_clock::now();
  const std::string health = http_get(http.port(), "GET /healthz HTTP/1.0");
  const auto waited = std::chrono::steady_clock::now() - t0;
  stuck.join();
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  // The deadline plus a margin for loaded or sanitized runs.
  EXPECT_LT(waited, std::chrono::milliseconds(1000 + 2500))
      << std::chrono::duration_cast<std::chrono::milliseconds>(waited).count() << " ms";
  http.stop();
}

}  // namespace
}  // namespace vedr::serve
