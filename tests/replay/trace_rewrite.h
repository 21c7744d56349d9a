#pragma once

// Rewrites a .vtrc trace record by record through TraceReader ->
// TraceWriter, so every CRC of the copy is valid, with optional edits to
// the envelope, each switch report, each step record and each poll
// registration on the way. The hostile-input
// tests use it to build traces whose bytes are intact and whose contents
// the simulator would never record.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <variant>

#include "replay/trace_reader.h"
#include "replay/trace_writer.h"

namespace vedr::replay {

inline void rewrite_trace(const std::string& src, const std::string& dst,
                          const std::function<void(TraceEnvelope&)>& mutate_envelope,
                          const std::function<void(telemetry::SwitchReport&)>& mutate_report = {},
                          const std::function<void(collective::StepRecord&)>& mutate_step = {},
                          const std::function<void(PollRegistration&)>& mutate_poll = {}) {
  TraceReader reader(src);
  ASSERT_TRUE(reader.ok()) << reader.error().str();
  TraceWriter writer(dst);
  TraceRecord rec;
  TraceStatus st = TraceStatus::kOk;
  while ((st = reader.next(rec)) == TraceStatus::kOk) {
    std::visit(
        [&](auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, TraceEnvelope>) {
            if (mutate_envelope) mutate_envelope(v);
            writer.write_envelope(v);
          } else if constexpr (std::is_same_v<T, TraceFooter>) {
            writer.write_footer(v);
          } else if constexpr (std::is_same_v<T, collective::StepRecord>) {
            if (mutate_step) mutate_step(v);
            writer.on_step_record(v);
          } else if constexpr (std::is_same_v<T, PollRegistration>) {
            if (mutate_poll) mutate_poll(v);
            writer.on_poll_registered(v);
          } else if constexpr (std::is_same_v<T, telemetry::SwitchReport>) {
            if (mutate_report) mutate_report(v);
            writer.on_switch_report_in(v);
          } else if constexpr (std::is_same_v<T, PollTriggerRecord>) {
            writer.on_poll_trigger(v);
          } else if constexpr (std::is_same_v<T, NotificationRecord>) {
            writer.on_notification_sent(v);
          } else if constexpr (std::is_same_v<T, PauseCauseRecord>) {
            writer.on_pause_cause(v);
          } else if constexpr (std::is_same_v<T, TtlDropRecord>) {
            writer.on_ttl_drop(v);
          }
        },
        rec.payload);
  }
  ASSERT_EQ(st, TraceStatus::kEof) << reader.error().str();
  ASSERT_TRUE(writer.close()) << writer.error();
}

}  // namespace vedr::replay
