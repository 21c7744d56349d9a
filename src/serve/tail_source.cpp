#include "serve/tail_source.h"

#include <chrono>
#include <memory>
#include <utility>

#include "replay/trace_reader.h"

namespace vedr::serve {

FileTailSource::FileTailSource(Server* server, std::string path, std::string tenant,
                               TailConfig cfg)
    : server_(server), path_(std::move(path)), cfg_(cfg) {
  session_id_ = server_->open_session(tenant);
}

void FileTailSource::start() {
  thread_ = std::thread([this] { run(); });
}

void FileTailSource::stop() {
  {
    common::MutexLock lock(mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool FileTailSource::idle_wait() {
  common::MutexLock lock(mu_);
  if (stop_requested_) return false;
  stop_cv_.wait_for(mu_, std::chrono::milliseconds(cfg_.poll_interval_ms));
  return !stop_requested_;
}

void FileTailSource::run() {
  const auto finish = [this](const replay::TraceError& err, std::uint64_t bytes) {
    server_->close_session(session_id_, err, bytes);
    done_.store(true, std::memory_order_release);
  };
  const auto stopped_error = [](std::uint64_t offset) {
    return replay::TraceError{replay::TraceStatus::kIoError, offset,
                              "tailer stopped before the footer"};
  };

  // Open, waiting for the writer to create the file if configured. Only an
  // open failure (kIoError) is retryable here; bad magic/header/version mean
  // the path points at something that is not a growing .vtrc.
  std::unique_ptr<replay::TraceReader> reader;
  while (true) {
    reader = std::make_unique<replay::TraceReader>(path_, /*tail=*/true);
    if (reader->ok()) break;
    const replay::TraceError err = reader->error();
    if (!cfg_.wait_for_file || err.status != replay::TraceStatus::kIoError) {
      finish(err, 0);
      return;
    }
    if (!idle_wait()) {
      finish(stopped_error(0), 0);
      return;
    }
  }

  replay::TraceRecord rec;
  while (true) {
    const std::uint64_t offset = reader->bytes_read();
    const replay::TraceStatus status = reader->next(rec);
    switch (status) {
      case replay::TraceStatus::kOk:
        if (!server_->offer(session_id_, std::move(rec), offset) &&
            server_->config().session.policy == OverflowPolicy::kBlock) {
          // A blocking offer fails only when the queue was aborted
          // (shutdown). Lossy offers fail on drops too — those keep going;
          // the queue accounts them.
          finish(stopped_error(reader->bytes_read()), reader->bytes_read());
          return;
        }
        break;
      case replay::TraceStatus::kNeedMoreData:
        // Writer mid-append: the reader keeps the partial frame buffered;
        // sleep one poll interval and read on.
        if (!idle_wait()) {
          finish(stopped_error(reader->bytes_read()), reader->bytes_read());
          return;
        }
        break;
      case replay::TraceStatus::kEof:
        finish(replay::TraceError{}, reader->bytes_read());
        return;
      default:
        finish(reader->error(), reader->bytes_read());
        return;
    }
  }
}

}  // namespace vedr::serve
