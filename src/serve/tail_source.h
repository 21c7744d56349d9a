#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/server.h"

namespace vedr::serve {

struct TailConfig {
  bool wait_for_file = true;  ///< retry open until the file appears (or stop())
};

/// File-tailing transport: one thread follows a .vtrc file that may still be
/// written, decoding frames with TraceReader's tail mode and offering each
/// record to the session it opened on the server. A partial trailing frame
/// (the writer mid-append) surfaces as the retryable kNeedMoreData — the
/// tailer sleeps briefly and re-reads from the frame boundary. The footer
/// frame ends the stream (kEof), a latched reader error ends it with that
/// error, and stop() ends it with a shutdown error; in every case the tailer
/// closes its session so the analyzer finalizes.
class FileTailSource {
 public:
  /// Opens a session for `tenant` immediately (so it is visible in /sessions
  /// while the tailer waits for data). `server` must outlive stop().
  FileTailSource(Server* server, std::string path, std::string tenant,
                 TailConfig cfg = {});
  ~FileTailSource() { stop(); }

  FileTailSource(const FileTailSource&) = delete;
  FileTailSource& operator=(const FileTailSource&) = delete;

  void start();
  /// Requests stop and joins. A tailer idle-waiting on kNeedMoreData wakes
  /// within one poll interval. Idempotent.
  void stop();

  std::uint64_t session_id() const { return session_id_; }
  /// True once the stream ended (footer, error, or stop) and the session was
  /// closed — i.e. the thread is done producing.
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  void run();
  /// Stop-aware sleep; returns false if stop was requested.
  bool idle_wait() VEDR_EXCLUDES(mu_);

  Server* const server_;
  const std::string path_;
  const TailConfig cfg_;
  std::uint64_t session_id_ = 0;

  common::Mutex mu_;
  std::condition_variable_any stop_cv_;
  bool stop_requested_ VEDR_GUARDED_BY(mu_) = false;

  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace vedr::serve
