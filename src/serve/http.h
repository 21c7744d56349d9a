#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace vedr::serve {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal single-threaded HTTP/1.0 GET listener for the daemon's
/// observability surface (/metrics, /healthz, /sessions). Deliberately tiny:
/// loopback only, one request per connection, no keep-alive, no TLS — this
/// is a scrape target, not a web server. The accept loop polls with a short
/// timeout so stop() takes effect promptly without signals. A client gets
/// one fixed deadline (http.cpp) to send its request and one to take the
/// response, so a slow client, or one that never reads, delays the other
/// scrapes by at most those two. A request line that is not
/// "METHOD TARGET VERSION" gets 400, a method other than GET 405.
class HttpListener {
 public:
  /// `handler` maps a request path to a response; it runs on the listener
  /// thread, so it must be safe to call concurrently with the rest of the
  /// daemon (the Server's observability getters are).
  using Handler = std::function<HttpResponse(const std::string& path)>;

  explicit HttpListener(Handler handler) : handler_(std::move(handler)) {}
  ~HttpListener() { stop(); }

  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, read back via port()) and
  /// starts the accept thread. False (with *error set) on bind failure.
  bool start(std::uint16_t port, std::string* error = nullptr);

  /// The bound port; valid after a successful start().
  int port() const { return port_; }

  /// Stops accepting, joins the thread, closes the socket. Idempotent.
  void stop();

 private:
  void serve_loop();
  void handle_client(int fd);

  Handler handler_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

}  // namespace vedr::serve
