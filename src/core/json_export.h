#pragma once

#include <string>

#include "core/diagnosis.h"
#include "obs/json.h"

namespace vedr::core {

/// JSON serialization of diagnosis artifacts through obs::JsonWriter, for
/// dashboards and downstream tooling. Output is deterministic (stable field
/// order and element ordering) so snapshots can be diffed; the diagnosis
/// JSON is digested, so its bytes are pinned.
namespace json {

/// {"type":"FlowContention","step":0,"root":"p(20.1)","flows":[...],
///  "ports":[...],"chain":[...]}
void write_finding(obs::JsonWriter& w, const AnomalyFinding& f);

/// Full diagnosis: findings, critical path, collective time, contributors.
std::string diagnosis_to_json(const Diagnosis& d);

}  // namespace json

}  // namespace vedr::core
