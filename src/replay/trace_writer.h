#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "collective/runner.h"
#include "common/tap.h"
#include "common/thread_annotations.h"
#include "replay/trace_format.h"

namespace vedr::replay {

/// Streaming .vtrc writer and the canonical core::TraceTap implementation:
/// attach it to a run (RunConfig::trace_writer) and every analyzer ingestion
/// call, monitor trigger, and switch-local telemetry event is framed, CRC'd,
/// and appended to the file as it happens — no in-memory event list.
///
/// Usage: construct, write_envelope() once, run the case with the tap
/// attached, write_footer() once, close(). Errors latch: after the first
/// I/O failure all writes become no-ops and ok() stays false.
///
/// Threading: owned by the simulation thread of its case; buffered FILE*
/// state and the latched error are unsynchronized.
class VEDR_SINGLE_THREADED TraceWriter final : public core::TraceTap {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter() override;

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void write_envelope(const TraceEnvelope& env);
  void write_footer(TraceFooter footer);  ///< record_counts filled in by the writer

  /// Flushes and closes; returns ok(). Idempotent.
  bool close();

  std::uint64_t frames_written() const { return frames_; }
  std::uint64_t bytes_written() const { return bytes_; }

  // --- core::TraceTap (observation only) -------------------------------------
  void on_step_record(const collective::StepRecord& r) override {
    append(RecordType::kStepRecord, r);
  }
  void on_poll_registered(const PollRegistration& r) override {
    append(RecordType::kPollRegistration, r);
  }
  void on_switch_report_in(const telemetry::SwitchReport& report) override {
    append(RecordType::kSwitchReport, report);
  }
  void on_poll_trigger(const PollTriggerRecord& r) override {
    append(RecordType::kPollTrigger, r);
  }
  void on_notification_sent(const NotificationRecord& r) override {
    append(RecordType::kNotification, r);
  }
  void on_pause_cause(const PauseCauseRecord& r) override { append(RecordType::kPauseCause, r); }
  void on_ttl_drop(const TtlDropRecord& r) override { append(RecordType::kTtlDrop, r); }

 private:
  /// Encodes `v` as one `type` frame in `frame_` and writes it.
  template <class T>
  void append(RecordType type, const T& v) {
    if (!ok_ || file_ == nullptr) return;
    frame_.clear();
    frame_.u8(static_cast<std::uint8_t>(type));
    frame_.u32(0);  // payload length, set by write_frame()
    encode(frame_, v);
    write_frame(type);
  }
  /// Sets the length, appends the CRC and writes `frame_` with one fwrite.
  void write_frame(RecordType type);
  void fail(const std::string& what);

  std::FILE* file_ = nullptr;
  bool ok_ = true;
  std::string error_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t counts_[kNumRecordSlots] = {};
  bool envelope_written_ = false;
  bool footer_written_ = false;
  ByteWriter frame_;  ///< reused: prefix, payload and CRC of the frame being written
};

}  // namespace vedr::replay
