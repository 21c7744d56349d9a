#include "replay/collector.h"

#include <utility>

#include "core/json_export.h"

namespace vedr::replay {

StreamingCollector::StreamingCollector() = default;
StreamingCollector::~StreamingCollector() = default;

void StreamingCollector::build_from_envelope(const TraceEnvelope& env) {
  topo_ = std::make_unique<net::Topology>(net::make_fat_tree(env.fat_tree_k, env.netcfg));
  plan_ = std::make_unique<collective::CollectivePlan>(collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, env.participants, env.cc_step_bytes));

  cc_flows_ = plan_->flow_keys();

  // Mirror the live construction exactly: Vedrfolnir's analyzer knows the
  // plan (per-step graphs, waiting graph, contributor rating); the baselines'
  // analyzers are plan-less and only know the monitored flow set.
  if (env.system == RecordedSystem::kVedrfolnir) {
    analyzer_ = std::make_unique<core::Analyzer>(topo_.get(), plan_.get());
  } else {
    analyzer_ = std::make_unique<core::Analyzer>(topo_.get(), nullptr);
    analyzer_->set_cc_flows(cc_flows_);
  }
  analyzer_->set_stats(&stats_);
}

void StreamingCollector::ingest(const TraceRecord& rec, std::uint64_t frame_offset) {
  ++stats_in_.frames;
  const std::size_t slot = static_cast<std::size_t>(rec.type);
  if (stats_in_.by_type[slot] == 0) stats_in_.first_offset[slot] = frame_offset;
  stats_in_.last_offset[slot] = frame_offset;
  stats_in_.by_type[slot] += 1;
  switch (rec.type) {
    case RecordType::kEnvelope:
      envelope_ = std::get<TraceEnvelope>(rec.payload);
      build_from_envelope(envelope_);
      break;
    case RecordType::kStepRecord: {
      const auto& r = std::get<collective::StepRecord>(rec.payload);
      if (r.step > max_step_seen_) max_step_seen_ = r.step;
      // A reader-fed stream always leads with the envelope, but a lossy
      // serve ingest queue can shed it — then there is no analyzer to feed
      // and the records are counted only (finalize() reports the loss via
      // the footer cross-check).
      if (analyzer_ != nullptr) analyzer_->add_step_record(r);
      break;
    }
    case RecordType::kPollRegistration: {
      const auto& p = std::get<PollRegistration>(rec.payload);
      if (analyzer_ != nullptr) analyzer_->register_poll(p.poll_id, p.flow, p.step);
      break;
    }
    case RecordType::kSwitchReport:
      if (analyzer_ != nullptr) {
        if (compressor_.has_value()) {
          // Sketch lane: re-encode the exact recorded report through the
          // bounded memory budget before the analyzer sees it.
          telemetry::SwitchReport compressed = std::get<telemetry::SwitchReport>(rec.payload);
          compressor_->compress(compressed);
          stats_.add_counter("replay.sketched_reports");
          analyzer_->on_switch_report(compressed);
        } else {
          analyzer_->on_switch_report(std::get<telemetry::SwitchReport>(rec.payload));
        }
      }
      break;
    case RecordType::kFooter:
      have_footer_ = true;
      footer_ = std::get<TraceFooter>(rec.payload);
      break;
    case RecordType::kPollTrigger:
    case RecordType::kNotification:
    case RecordType::kPauseCause:
    case RecordType::kTtlDrop:
      break;  // informational: counted above, never fed to a live analyzer
  }
}

core::Diagnosis StreamingCollector::diagnose() {
  return analyzer_ != nullptr ? analyzer_->diagnose() : core::Diagnosis{};
}

ReplayResult StreamingCollector::finalize(const TraceError& error, std::uint64_t bytes) {
  ReplayResult result;
  stats_in_.bytes = bytes;
  result.stats = stats_in_;
  result.envelope = envelope_;
  result.have_footer = have_footer_;
  result.footer = footer_;
  stats_.add_counter("replay.frames", static_cast<std::int64_t>(result.stats.frames));
  stats_.add_counter("replay.bytes", static_cast<std::int64_t>(result.stats.bytes));

  if (error.status != TraceStatus::kOk && error.status != TraceStatus::kEof) {
    result.error = error;
  } else if (result.have_footer) {
    // Frame-count cross-check: a frame-granular truncation that removed
    // whole records (every surviving frame intact) still disagrees with the
    // footer's counts.
    for (std::size_t t = 0; t < kNumRecordSlots; ++t) {
      // The footer's own slot is written before the footer frame exists.
      const std::uint64_t expect =
          t == static_cast<std::size_t>(RecordType::kFooter)
              ? result.footer.record_counts[t] + 1
              : result.footer.record_counts[t];
      if (result.stats.by_type[t] != expect) {
        result.error = TraceError{TraceStatus::kTruncated, result.stats.bytes,
                                  std::string("footer counts disagree for record type ") +
                                      std::to_string(t) + " (frames lost mid-stream)"};
        break;
      }
    }
    if (result.error.status == TraceStatus::kOk) result.ok = true;
  } else {
    result.error = TraceError{TraceStatus::kTruncated, result.stats.bytes,
                              "stream ends without a footer frame"};
  }

  if (analyzer_ != nullptr) {
    result.diagnosis = analyzer_->diagnose();
    result.diagnosis_json = core::json::diagnosis_to_json(result.diagnosis);
    result.diagnosis_digest = diagnosis_json_digest(result.diagnosis_json);
    result.digest_matches = result.ok && result.have_footer &&
                            result.diagnosis_digest == result.footer.diagnosis_digest &&
                            result.diagnosis_json.size() == result.footer.diagnosis_json_bytes;
  }
  return result;
}

ReplayResult StreamingCollector::replay(TraceReader& reader) {
  if (!reader.ok()) {
    ReplayResult result;
    result.error = reader.error();
    return result;
  }

  TraceRecord rec;
  TraceStatus status;
  std::uint64_t frame_offset = reader.bytes_read();
  while ((status = reader.next(rec)) == TraceStatus::kOk) {
    ingest(rec, frame_offset);
    frame_offset = reader.bytes_read();
  }
  TraceError end = reader.error();
  if (status == TraceStatus::kEof) end = TraceError{};  // clean end
  return finalize(end, reader.bytes_read());
}

}  // namespace vedr::replay
