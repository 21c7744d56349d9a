#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anomaly/injectors.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/types.h"

namespace vedr::eval {

using anomaly::InjectedFlow;
using anomaly::StormSpec;
using net::NodeId;
using net::PortRef;
using net::Tick;

enum class ScenarioType : std::uint8_t {
  kFlowContention,
  kIncast,
  kPfcStorm,
  kPfcBackpressure,
};

const char* to_string(ScenarioType t);
/// The `--scenario` spelling: contention, incast, storm, backpressure.
const char* cli_name(ScenarioType t);
/// The type whose cli_name is `name`, if any.
std::optional<ScenarioType> parse_scenario(std::string_view name);

/// Generation knobs. The paper's generation ranges (§IV-A) are constants in
/// scenario.cpp, stored pre-scale; `scale` shrinks data sizes and times
/// together so a case runs in seconds on one machine while keeping every
/// ratio (who collides with whom, for how long relative to a step) intact.
struct ScenarioParams {
  double scale = 1.0 / 32.0;
};

/// One generated evaluation case with its ground truth.
struct ScenarioSpec {
  ScenarioType type = ScenarioType::kFlowContention;
  int case_id = 0;
  std::uint64_t seed = 0;

  std::vector<NodeId> participants;  ///< ring order
  std::int64_t cc_step_bytes = 0;

  std::vector<InjectedFlow> bg_flows;  ///< injected flows (ground truth set)
  std::vector<StormSpec> storms;
  PortRef expected_root;  ///< storm: injection port; backpressure: congestion port

  Tick horizon = 0;  ///< simulation bound

  std::string str() const;
};

/// Deterministically generates case `case_id` of `type` over `topo`
/// (placement uses `routing` to guarantee the paper's "deliberately set to
/// collide with collective communication flows"). Total over case ids: a
/// draw that cannot place its anomaly is redrawn from a derived sub-seed
/// (recorded in ScenarioSpec::seed).
ScenarioSpec make_scenario(ScenarioType type, int case_id, const net::Topology& topo,
                           const net::RoutingTable& routing, const ScenarioParams& params = {});

/// The paper's per-scenario case counts (60/60/40/60).
int paper_case_count(ScenarioType t);

}  // namespace vedr::eval
