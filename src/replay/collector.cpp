#include "replay/collector.h"

#include <string>
#include <utility>

#include "core/json_export.h"

namespace vedr::replay {

namespace {

/// Why `r` cannot have come from `topo`: the first field whose node or port
/// id the analyzer would dereference out of range, or whose byte count an
/// analyzer invariant assumes non-negative. Empty when the report fits; the
/// detail string is built only for a misfit, so a valid report costs integer
/// compares alone. A switch reports only its own ports, so every PortRef
/// names `switch_id`.
std::string report_misfit(const net::Topology& topo, const telemetry::SwitchReport& r) {
  const net::NodeId sw = r.switch_id;
  if (sw < 0 || static_cast<std::size_t>(sw) >= topo.size() || topo.is_host(sw))
    return "switch_id " + std::to_string(sw) + " is not a switch of the fabric";
  const auto num_ports = static_cast<net::PortId>(topo.node(sw).ports.size());
  const auto port_ok = [&](net::PortId p) { return p >= 0 && p < num_ports; };
  const auto own_port_ok = [&](const net::PortRef& p) { return p.node == sw && port_ok(p.port); };
  const auto at = [](const char* list, std::size_t i) {
    return std::string(list) + "[" + std::to_string(i) + "]";
  };
  const auto not_a_port = [&](const std::string& field, const std::string& value) {
    return field + " " + value + " is not a port of switch " + std::to_string(sw);
  };
  const auto negative = [](const std::string& field, std::int64_t value) {
    return field + " " + std::to_string(value) + " is negative";
  };
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    const telemetry::PortReport& pr = r.ports[i];
    if (!own_port_ok(pr.port)) return not_a_port(at("ports", i) + ".port", pr.port.str());
    for (std::size_t j = 0; j < pr.meters.size(); ++j) {
      const telemetry::MeterEntry& m = pr.meters[j];
      if (!port_ok(m.in_port))
        return not_a_port(at("ports", i) + at(".meters", j) + ".in_port",
                          std::to_string(m.in_port));
      if (m.bytes < 0) return negative(at("ports", i) + at(".meters", j) + ".bytes", m.bytes);
    }
  }
  for (std::size_t i = 0; i < r.causes.size(); ++i) {
    const telemetry::PauseCauseReport& c = r.causes[i];
    if (!own_port_ok(c.ingress_port))
      return not_a_port(at("causes", i) + ".ingress_port", c.ingress_port.str());
    for (std::size_t j = 0; j < c.contributions.size(); ++j) {
      const auto& [egress, bytes] = c.contributions[j];
      if (!port_ok(egress))
        return not_a_port(at("causes", i) + at(".contributions", j) + ".egress",
                          std::to_string(egress));
      if (bytes < 0) return negative(at("causes", i) + at(".contributions", j) + ".bytes", bytes);
    }
  }
  for (std::size_t i = 0; i < r.drops.size(); ++i) {
    if (!own_port_ok(r.drops[i].port))
      return not_a_port(at("drops", i) + ".port", r.drops[i].port.str());
  }
  return {};
}

/// Why a step record cannot belong to `plan`: the first field naming a flow
/// or step outside the plan, a dependency on itself, or a send that ended
/// before it started (both times set). Empty when the record fits. Every
/// index is one the analyzer uses to size or address per-step state.
std::string step_record_misfit(const collective::CollectivePlan& plan,
                               const collective::StepRecord& r) {
  const auto flow_ok = [&](int f) { return f >= 0 && f < plan.num_flows(); };
  const auto step_ok = [&](int s) { return s >= 0 && s < plan.num_steps(); };
  const auto not_a = [](const char* field, std::int64_t value, const char* what) {
    return std::string(field) + " " + std::to_string(value) + " is not a " + what + " of the plan";
  };
  if (!flow_ok(r.flow_index)) return not_a("flow_index", r.flow_index, "flow");
  if (!step_ok(r.step)) return not_a("step", r.step, "step");
  if (r.dep_flow != -1 && !flow_ok(r.dep_flow)) return not_a("dep_flow", r.dep_flow, "flow");
  if (r.dep_step != -1 && !step_ok(r.dep_step)) return not_a("dep_step", r.dep_step, "step");
  if (r.dep_flow == r.flow_index && r.dep_step == r.step)
    return "flow " + std::to_string(r.flow_index) + " step " + std::to_string(r.step) +
           " waits on itself";
  if (r.start_time != sim::kNever && r.end_time != sim::kNever && r.end_time < r.start_time)
    return "end_time " + std::to_string(r.end_time) + " is before start_time " +
           std::to_string(r.start_time);
  return {};
}

/// Why a poll registration cannot belong to `plan`: its flow or step is
/// outside it. Empty when the registration fits.
std::string poll_misfit(const collective::CollectivePlan& plan, const PollRegistration& p) {
  if (p.flow < 0 || p.flow >= plan.num_flows())
    return "flow " + std::to_string(p.flow) + " is not a flow of the plan";
  if (p.step < 0 || p.step >= plan.num_steps())
    return "step " + std::to_string(p.step) + " is not a step of the plan";
  return {};
}

}  // namespace

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
  // After a misfit only the footer still counts: it lets a streaming
  // session finish, with the latched error as its final.
  if (bad_record_.status != TraceStatus::kOk && rec.type != RecordType::kFooter) return;
  switch (rec.type) {
    case RecordType::kEnvelope:
      envelope_ = std::get<TraceEnvelope>(rec.payload);
      build_from_envelope(envelope_);
      break;
    case RecordType::kStepRecord: {
      // A reader-fed stream always leads with the envelope, but a lossy
      // serve ingest queue can shed it — then there is no plan to check
      // against and no analyzer to feed, and the records are counted only
      // (finalize() reports the loss via the footer cross-check).
      if (analyzer_ == nullptr) break;
      const auto& r = std::get<collective::StepRecord>(rec.payload);
      if (std::string why = step_record_misfit(*plan_, r); !why.empty()) {
        bad_record_ = TraceError{TraceStatus::kBadRecord, frame_offset, "step record: " + why};
        break;
      }
      if (r.step > max_step_seen_) max_step_seen_ = r.step;
      analyzer_->add_step_record(r);
      break;
    }
    case RecordType::kPollRegistration: {
      if (analyzer_ == nullptr) break;
      const auto& p = std::get<PollRegistration>(rec.payload);
      if (std::string why = poll_misfit(*plan_, p); !why.empty()) {
        bad_record_ =
            TraceError{TraceStatus::kBadRecord, frame_offset, "poll registration: " + why};
        break;
      }
      analyzer_->register_poll(p.poll_id, p.flow, p.step);
      break;
    }
    case RecordType::kSwitchReport:
      if (analyzer_ != nullptr) {
        const auto& report = std::get<telemetry::SwitchReport>(rec.payload);
        if (std::string why = report_misfit(*topo_, report); !why.empty()) {
          bad_record_ = TraceError{TraceStatus::kBadRecord, frame_offset,
                                   "switch report: " + why};
          break;
        }
        if (compressor_.has_value()) {
          // Sketch lane: re-encode the exact recorded report through the
          // bounded memory budget before the analyzer sees it.
          telemetry::SwitchReport compressed = report;
          compressor_->compress(compressed);
          stats_.add_counter("replay.sketched_reports");
          analyzer_->on_switch_report(compressed);
        } else {
          analyzer_->on_switch_report(report);
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

  if (bad_record_.status != TraceStatus::kOk) {
    result.error = bad_record_;  // the earliest fault in the stream
  } else if (error.status != TraceStatus::kOk && error.status != TraceStatus::kEof) {
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
