#include "core/json_export.h"

#include <cstdio>

namespace vedr::core::json {

namespace {

template <typename T>
void write_strs(obs::JsonWriter& w, const std::vector<T>& items) {
  w.begin_array();
  for (const T& item : items) w.value(item.str());
  w.end_array();
}

}  // namespace

void write_finding(obs::JsonWriter& w, const AnomalyFinding& f) {
  w.begin_object();
  w.kv("type", to_string(f.type));
  w.kv("step", f.step);
  w.kv("root", f.root_port.valid() ? f.root_port.str() : "");
  w.key("flows");
  write_strs(w, f.contending_flows);
  w.key("ports");
  write_strs(w, f.congested_ports);
  w.key("chain");
  write_strs(w, f.pfc_chain);
  w.end_object();
}

std::string diagnosis_to_json(const Diagnosis& d) {
  std::string out;
  obs::JsonWriter w(&out);
  w.begin_object();
  w.kv("collective_time_ns", d.collective_time);
  w.key("findings");
  w.begin_array();
  for (const AnomalyFinding& f : d.findings) write_finding(w, f);
  w.end_array();
  w.key("critical_path");
  w.begin_array();
  for (const auto& [flow, step] : d.critical_path) {
    w.begin_object();
    w.kv("flow", flow);
    w.kv("step", step);
    w.end_object();
  }
  w.end_array();
  w.key("contributors");
  w.begin_array();
  for (const auto& [flow, score] : d.contributions) {
    // %.6g, not JsonWriter's %.17g: the diagnosis JSON is digested, and its
    // bytes are pinned.
    char score_text[32];
    std::snprintf(score_text, sizeof score_text, "%.6g", score);
    w.begin_object();
    w.kv("flow", flow.str());
    w.key("score");
    w.raw(score_text);
    w.end_object();
  }
  w.end_array();
  w.key("critical_flow_per_step");
  w.begin_array();
  for (const int f : d.critical_flow_per_step) w.value(f);
  w.end_array();
  // Appended last, and only on the sketch lane: exact-lane JSON (and every
  // digest over it) stays byte-for-byte what it was before backends existed.
  if (d.sketch_lane) w.kv("telemetry", "sketch");
  w.end_object();
  return out;
}

}  // namespace vedr::core::json
