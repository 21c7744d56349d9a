#include "replay/trace_reader.h"

#include <cerrno>
#include <cstring>

namespace vedr::replay {
namespace {

std::string errno_str() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): trace files are read by one thread
  // (TraceReader is VEDR_SINGLE_THREADED); strerror's static buffer cannot be
  // clobbered concurrently.
  return std::strerror(errno);
}

/// Decodes a T into `out`. When `out` already holds a T (the caller reuses
/// one record, frame after frame), the decoder overwrites it in place and
/// its vectors keep their storage; otherwise a fresh T is emplaced.
template <class T>
bool decode_into(ByteReader& r, TraceRecord& out) {
  T* v = std::get_if<T>(&out.payload);
  return decode(r, v != nullptr ? *v : out.payload.emplace<T>());
}

}  // namespace

const char* to_string(TraceStatus s) {
  switch (s) {
    case TraceStatus::kOk: return "ok";
    case TraceStatus::kEof: return "eof";
    case TraceStatus::kIoError: return "io-error";
    case TraceStatus::kBadMagic: return "bad-magic";
    case TraceStatus::kBadVersion: return "bad-version";
    case TraceStatus::kBadHeader: return "bad-header";
    case TraceStatus::kTruncated: return "truncated";
    case TraceStatus::kCrcMismatch: return "crc-mismatch";
    case TraceStatus::kBadRecord: return "bad-record";
    case TraceStatus::kNeedMoreData: return "need-more-data";
  }
  return "?";
}

std::string TraceError::str() const {
  std::string s = to_string(status);
  s += " at offset " + std::to_string(offset);
  if (!detail.empty()) s += ": " + detail;
  return s;
}

TraceReader::TraceReader(const std::string& path, bool tail) : tail_(tail) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    fail(TraceStatus::kIoError, 0, "open " + path + ": " + errno_str());
    return;
  }
  read_header();
}

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

TraceStatus TraceReader::fail(TraceStatus status, std::uint64_t offset, std::string detail) {
  if (error_.status == TraceStatus::kOk) {
    error_.status = status;
    error_.offset = offset;
    error_.detail = std::move(detail);
  }
  return error_.status;
}

TraceStatus TraceReader::need_more(std::uint64_t offset) {
  // Writer mid-append: rewind to the frame boundary and clear stdio's
  // latched EOF indicator so the retry actually re-reads. Never latches —
  // fail() is not involved.
  std::clearerr(file_);
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)
    return fail(TraceStatus::kIoError, offset, "tail rewind: " + errno_str());
  return TraceStatus::kNeedMoreData;
}

void TraceReader::read_header() {
  char header[kFileHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof header, file_);
  if (got != sizeof header) {
    // Tail mode: a writer that has not finished the 12-byte header yet is
    // not a corrupt file; next() retries until the header completes.
    if (tail_ && std::ferror(file_) == 0) {
      need_more(0);
      return;
    }
    fail(TraceStatus::kBadHeader, got, "file shorter than the 12-byte header");
    return;
  }
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    fail(TraceStatus::kBadMagic, 0, "magic is not \"VTRC\"");
    return;
  }
  ByteReader r(std::string_view(header, sizeof header));
  // Validate the CRC before interpreting the version: a flipped version
  // byte must read as corruption, not as a huff about compatibility.
  const std::uint32_t expect = crc32(std::string_view(header, 8));
  ByteReader crc_r(std::string_view(header + 8, 4));
  if (crc_r.u32() != expect) {
    fail(TraceStatus::kBadHeader, 0, "header CRC mismatch");
    return;
  }
  r.u32();  // magic, already checked
  version_ = r.u16();
  if (version_ != kTraceVersion) {
    fail(TraceStatus::kBadVersion, 4,
         "trace version " + std::to_string(version_) + ", reader supports " +
             std::to_string(kTraceVersion));
    return;
  }
  // flags is reserved: until a versioned meaning exists, nonzero is from
  // the future and must be rejected, not ignored.
  const std::uint16_t flags = r.u16();
  if (flags != 0) {
    fail(TraceStatus::kBadHeader, 6, "reserved header flags are nonzero");
    return;
  }
  bytes_ = kFileHeaderBytes;
  header_parsed_ = true;
}

TraceStatus TraceReader::next(TraceRecord& out) {
  if (error_.status != TraceStatus::kOk) return error_.status;
  if (eof_) return TraceStatus::kEof;
  if (!header_parsed_) {
    // Tail mode deferred the header past a short initial read; retry it.
    read_header();
    if (error_.status != TraceStatus::kOk) return error_.status;
    if (!header_parsed_) return TraceStatus::kNeedMoreData;
  }

  const std::uint64_t frame_offset = bytes_;
  char prefix[kFramePrefixBytes];
  const std::size_t got = std::fread(prefix, 1, sizeof prefix, file_);
  if (got == 0) {
    if (std::ferror(file_) != 0)
      return fail(TraceStatus::kIoError, frame_offset, errno_str());
    if (seen_footer_) {
      eof_ = true;
      return TraceStatus::kEof;
    }
    if (tail_) return need_more(frame_offset);
    eof_ = true;
    return fail(TraceStatus::kTruncated, frame_offset,
                "stream ends without a footer frame");
  }
  if (got != sizeof prefix) {
    if (tail_ && std::ferror(file_) == 0) return need_more(frame_offset);
    return fail(TraceStatus::kTruncated, frame_offset, "file ends inside a frame prefix");
  }

  ByteReader pr(std::string_view(prefix, sizeof prefix));
  const std::uint8_t type_byte = pr.u8();
  const std::uint32_t len = pr.u32();
  if (len > kMaxFramePayload)
    return fail(TraceStatus::kBadRecord, frame_offset,
                "frame payload length " + std::to_string(len) + " exceeds the format cap");

  // One read for the payload and the CRC behind it.
  const std::size_t body_bytes = len + kFrameCrcBytes;
  body_.resize(body_bytes);
  const std::size_t got_body = std::fread(body_.data(), 1, body_bytes, file_);
  if (got_body != body_bytes) {
    if (tail_ && std::ferror(file_) == 0) return need_more(frame_offset);
    return fail(TraceStatus::kTruncated, frame_offset,
                got_body < len ? "file ends inside a frame payload"
                               : "file ends inside a frame CRC");
  }
  const std::string_view payload(body_.data(), len);
  ByteReader cr(std::string_view(body_).substr(len));
  const std::uint32_t stored = cr.u32();
  const std::uint32_t state = crc32_update(kCrcInit, std::string_view(prefix, sizeof prefix));
  if (crc32_finish(crc32_update(state, payload)) != stored)
    return fail(TraceStatus::kCrcMismatch, frame_offset, "frame CRC mismatch");

  if (type_byte < static_cast<std::uint8_t>(RecordType::kEnvelope) ||
      type_byte > static_cast<std::uint8_t>(RecordType::kFooter))
    return fail(TraceStatus::kBadRecord, frame_offset,
                "unknown record type " + std::to_string(type_byte));
  const RecordType type = static_cast<RecordType>(type_byte);

  // Structural rules: exactly one envelope, first; nothing after the footer.
  if (seen_footer_)
    return fail(TraceStatus::kBadRecord, frame_offset, "frame after the footer");
  if (type == RecordType::kEnvelope && seen_envelope_)
    return fail(TraceStatus::kBadRecord, frame_offset, "second envelope frame");
  if (type != RecordType::kEnvelope && !seen_envelope_)
    return fail(TraceStatus::kBadRecord, frame_offset,
                std::string(to_string(type)) + " frame before the envelope");

  out.type = type;
  ByteReader r(payload);
  bool decoded = false;
  switch (type) {
    case RecordType::kEnvelope:
      decoded = decode_into<TraceEnvelope>(r, out);
      break;
    case RecordType::kStepRecord:
      decoded = decode_into<collective::StepRecord>(r, out);
      break;
    case RecordType::kPollRegistration:
      decoded = decode_into<PollRegistration>(r, out);
      break;
    case RecordType::kSwitchReport:
      decoded = decode_into<telemetry::SwitchReport>(r, out);
      break;
    case RecordType::kPollTrigger:
      decoded = decode_into<PollTriggerRecord>(r, out);
      break;
    case RecordType::kNotification:
      decoded = decode_into<NotificationRecord>(r, out);
      break;
    case RecordType::kPauseCause:
      decoded = decode_into<PauseCauseRecord>(r, out);
      break;
    case RecordType::kTtlDrop:
      decoded = decode_into<TtlDropRecord>(r, out);
      break;
    case RecordType::kFooter:
      decoded = decode_into<TraceFooter>(r, out);
      break;
  }
  if (!decoded)
    return fail(TraceStatus::kBadRecord, frame_offset,
                std::string("malformed ") + to_string(type) + " payload");

  if (type == RecordType::kEnvelope) seen_envelope_ = true;
  if (type == RecordType::kFooter) seen_footer_ = true;
  ++frames_;
  bytes_ += kFramePrefixBytes + len + kFrameCrcBytes;
  return TraceStatus::kOk;
}

}  // namespace vedr::replay
