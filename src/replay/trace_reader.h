#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
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
                 ///< the partial frame stays buffered and the next next()
                 ///< call resumes cleanly once bytes arrive.
};

const char* to_string(TraceStatus s);

struct TraceError {
  TraceStatus status = TraceStatus::kOk;
  std::uint64_t offset = 0;  ///< file offset of the offending frame (or header)
  std::string detail;

  std::string str() const;
};

/// Streaming .vtrc reader: validates the file header on construction, then
/// yields one decoded record per next() call. The file is read in chunks of
/// at least kChunkBytes into one reused buffer, and each frame is parsed
/// where it lies in that buffer: one bounds check covers its prefix,
/// payload and CRC, one CRC call covers the contiguous prefix and payload,
/// and the payload decodes into the caller's record in place (a caller that
/// passes the same record every time keeps its vectors' storage from frame
/// to frame). The buffer grows geometrically, to at most twice one chunk
/// plus the largest single frame; there is no load-the-whole-file path.
///
/// Tail mode (`tail = true`) follows a file a writer is still appending to:
/// a partial trailing frame (or a not-yet-complete header) is not corruption
/// but a writer mid-append, so the reader keeps the partial bytes buffered
/// and reports the retryable kNeedMoreData instead of latching a terminal
/// kTruncated; the next next() appends whatever the writer added since.
/// Callers poll next() until the frame completes; a frame that is fully
/// present but fails its CRC is still terminal in tail mode (the writer
/// wrote garbage, waiting will not fix it).
///
/// Threading: owned by the replaying thread; FILE* position, the chunk
/// buffer, and the latched error are unsynchronized.
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

  /// File offset just past the last complete frame (or the header): where
  /// the next frame starts, also while a partial frame is buffered.
  std::uint64_t bytes_read() const { return bytes_; }

  /// A refill asks the file for at least this many bytes.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

 private:
  TraceStatus fail(TraceStatus status, std::uint64_t offset, std::string detail);
  /// Ensures `need` unparsed bytes are buffered, reading chunks from the
  /// file as needed; false when the file ends (or fails) first.
  bool fill(std::size_t need);
  /// Unparsed bytes in the buffer.
  std::size_t buffered() const { return end_ - begin_; }
  /// Reallocates the buffer to `cap` bytes, keeping [0, end_).
  void grow(std::size_t cap);
  /// The retryable not-enough-bytes-yet result of tail mode: clears stdio's
  /// latched EOF so the next fill() reads what the writer appended.
  TraceStatus need_more();
  void read_header();

  std::FILE* file_ = nullptr;
  TraceError error_;
  bool tail_ = false;
  bool header_parsed_ = false;
  bool eof_ = false;
  std::uint16_t version_ = 0;
  std::uint64_t bytes_ = 0;
  bool seen_envelope_ = false;
  bool seen_footer_ = false;
  /// Reused read buffer of cap_ bytes; [begin_, end_) is read but not yet
  /// parsed. Left uninitialised, so only bytes actually read become
  /// resident: a tail reader that mostly waits holds little of its chunk.
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace vedr::replay
