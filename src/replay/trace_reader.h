#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/thread_annotations.h"
#include "replay/trace_format.h"

namespace vedr::replay {

/// Typed failure modes. A corrupt, truncated, or wrong-version file must
/// produce exactly one of these — never a crash or undefined behavior (the
/// corruption tests bit-flip and truncate traces at every frame boundary
/// under ASan/UBSan to enforce this).
enum class TraceStatus : std::uint8_t {
  kOk = 0,
  kEof,          ///< clean end of stream at a frame boundary
  kIoError,      ///< open/read failed at the OS level
  kBadMagic,     ///< not a .vtrc file
  kBadVersion,   ///< .vtrc from an incompatible format version
  kBadHeader,    ///< header CRC mismatch or short header
  kTruncated,    ///< file ends mid-frame
  kCrcMismatch,  ///< frame payload corrupt
  kBadRecord,    ///< frame decodes to an invalid record (unknown type,
                 ///< malformed payload, envelope/footer misplacement)
  kNeedMoreData, ///< tail mode only: the stream ends mid-frame because the
                 ///< writer is still appending. Retryable, never latched —
                 ///< the reader rewinds to the frame boundary and the next
                 ///< next() call resumes cleanly once bytes arrive.
};

const char* to_string(TraceStatus s);

struct TraceError {
  TraceStatus status = TraceStatus::kOk;
  std::uint64_t offset = 0;  ///< file offset of the offending frame (or header)
  std::string detail;

  std::string str() const;
};

/// Streaming .vtrc reader: validates the file header on construction, then
/// yields one decoded record per next() call. Memory use is bounded by the
/// largest single frame (the frame body buffer is reused); there is no
/// load-the-whole-file path. A frame costs two reads, its 5-byte prefix
/// and then its payload with the CRC, and next() decodes into the caller's
/// record in place, so a caller that passes the same record every time
/// keeps its vectors' storage from frame to frame.
///
/// Tail mode (`tail = true`) follows a file a writer is still appending to:
/// a partial trailing frame (or a not-yet-complete header) is not corruption
/// but a writer mid-append, so the reader rewinds to the last frame boundary
/// and reports the retryable kNeedMoreData instead of latching a terminal
/// kTruncated. Callers poll next() until the frame completes; a frame that
/// is fully present but fails its CRC is still terminal in tail mode (the
/// writer wrote garbage, waiting will not fix it).
///
/// Threading: owned by the replaying thread; FILE* position, the reused
/// payload buffer, and the latched error are unsynchronized.
class VEDR_SINGLE_THREADED TraceReader {
 public:
  explicit TraceReader(const std::string& path, bool tail = false);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Header parsed and no error yet.
  bool ok() const { return error_.status == TraceStatus::kOk; }
  const TraceError& error() const { return error_; }
  std::uint16_t version() const { return version_; }

  /// Reads and decodes the next frame. Returns kOk with `out` overwritten
  /// (every field, also the ones that are not on the wire), kEof at a clean
  /// end of stream, kNeedMoreData in tail mode when the stream currently
  /// ends mid-frame (retryable), or a terminal error (which latches: further
  /// calls return the same error).
  TraceStatus next(TraceRecord& out);

  bool tail() const { return tail_; }
  /// Tail mode: the footer frame has been read — the stream is complete and
  /// the next next() returns kEof.
  bool saw_footer() const { return seen_footer_; }

  std::uint64_t frames_read() const { return frames_; }
  std::uint64_t bytes_read() const { return bytes_; }

 private:
  TraceStatus fail(TraceStatus status, std::uint64_t offset, std::string detail);
  /// Rewinds to `offset` and clears stdio's latched EOF so a future read
  /// retries; the retryable not-enough-bytes-yet result in tail mode.
  TraceStatus need_more(std::uint64_t offset);
  void read_header();

  std::FILE* file_ = nullptr;
  TraceError error_;
  bool tail_ = false;
  bool header_parsed_ = false;
  bool eof_ = false;
  std::uint16_t version_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  bool seen_envelope_ = false;
  bool seen_footer_ = false;
  std::string body_;  ///< reused frame body: payload + CRC (bounded by kMaxFramePayload)
};

}  // namespace vedr::replay
