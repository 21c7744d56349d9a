#pragma once

#include <memory>
#include <unordered_map>

#include "collective/runner.h"
#include "core/analyzer.h"
#include "core/detection.h"
#include "core/ingest.h"
#include "core/monitor.h"
#include "net/network.h"

namespace vedr::core {

struct VedrfolnirConfig {
  DetectionConfig detection;
  /// Optional observation-only trace tap (see common/tap.h), written from
  /// the domain buffers' merge. Must not perturb the run.
  TraceTap* trace = nullptr;
};

/// The assembled Vedrfolnir system (Fig. 3): one monitor per participating
/// host wired into the NIC's RTT/control callbacks and the collective
/// runner's step callbacks, switches reporting to the shared analyzer.
///
/// Typical use:
///   Vedrfolnir v(net, runner);
///   runner.start(0);
///   engine.run();
///   Diagnosis d = v.diagnose();
///
/// One ingest wiring at every domain count (DESIGN.md §14): each domain's
/// monitors, switch controllers and (with a trace tap) switch recorders
/// write into that domain's DomainIngestBuffer, and diagnose() and
/// analyzer() merge whatever is pending into the single-threaded analyzer in
/// (time, domain, seq) order. Call them only while the engine is not
/// running; a later call merges the records staged since the last one.
class Vedrfolnir {
 public:
  Vedrfolnir(net::Network& net, collective::CollectiveRunner& runner,
             VedrfolnirConfig cfg = {});

  Diagnosis diagnose();
  Analyzer& analyzer();
  Monitor& monitor_of(net::NodeId host) { return *monitors_.at(host); }

  int total_polls() const;
  int total_notifications() const;

 private:
  net::Network& net_;
  collective::CollectiveRunner& runner_;
  Analyzer analyzer_;
  DomainIngestBuffer::Buffers buffers_;  ///< indexed by domain id
  std::unordered_map<net::NodeId, std::unique_ptr<Monitor>> monitors_;
};

}  // namespace vedr::core
