#include "replay/trace_writer.h"

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace vedr::replay {
namespace {

std::string errno_str() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): trace files are written by one
  // thread (TraceWriter is VEDR_SINGLE_THREADED); strerror's static buffer
  // cannot be clobbered concurrently.
  return std::strerror(errno);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    fail("open " + path + ": " + errno_str());
    return;
  }
  const std::string header = encode_file_header();
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size())
    fail("write header: " + errno_str());
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what;
}

bool TraceWriter::close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) fail("close: " + errno_str());
    file_ = nullptr;
  }
  return ok_;
}

void TraceWriter::write_frame(RecordType type) {
  const std::size_t len = frame_.data().size() - kFramePrefixBytes;
  VEDR_CHECK(len <= kMaxFramePayload, "trace frame payload too large");
  frame_.u32_at(1, static_cast<std::uint32_t>(len));
  // The CRC covers type + length + payload, so a bit flip anywhere in the
  // frame (including the framing itself) is detected.
  frame_.u32(crc32(frame_.data()));
  const std::string& frame = frame_.data();
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    fail("write frame: " + errno_str());
    return;
  }
  ++frames_;
  ++counts_[static_cast<std::size_t>(type)];
}

void TraceWriter::write_envelope(const TraceEnvelope& env) {
  VEDR_CHECK(!envelope_written_, "trace envelope written twice");
  envelope_written_ = true;
  append(RecordType::kEnvelope, env);
}

void TraceWriter::write_footer(TraceFooter footer) {
  VEDR_CHECK(envelope_written_, "trace footer without envelope");
  VEDR_CHECK(!footer_written_, "trace footer written twice");
  footer_written_ = true;
  for (std::size_t i = 0; i < kNumRecordSlots; ++i) footer.record_counts[i] = counts_[i];
  append(RecordType::kFooter, footer);
}

}  // namespace vedr::replay
