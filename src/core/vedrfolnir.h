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
  /// Optional observation-only trace tap wired into the analyzer fan-in and
  /// every host monitor (see common/tap.h). Must not perturb the run.
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
/// The ingest wiring depends on the domain count (DESIGN.md §14). With one
/// domain, monitors and switches feed the analyzer directly. With several,
/// each domain's monitors and switches feed a per-domain DomainIngestBuffer
/// instead, and diagnose() first merges the buffers in (time, domain, seq)
/// order into the single-threaded analyzer. The one-domain run does not
/// stage through a buffer: the analyzer's trace tap would then record the
/// ingest stream at diagnose() time, after every record the monitors tapped
/// live, which reorders the .vtrc. Trace taps are single-domain only.
class Vedrfolnir {
 public:
  Vedrfolnir(net::Network& net, collective::CollectiveRunner& runner,
             VedrfolnirConfig cfg = {});

  Diagnosis diagnose();
  Analyzer& analyzer() { return analyzer_; }
  Monitor& monitor_of(net::NodeId host) { return *monitors_.at(host); }

  int total_polls() const;
  int total_notifications() const;

 private:
  net::Network& net_;
  collective::CollectiveRunner& runner_;
  Analyzer analyzer_;
  /// Multi-domain runs only: one staging buffer per domain, merged at
  /// diagnose().
  std::vector<std::unique_ptr<DomainIngestBuffer>> buffers_;
  bool ingest_merged_ = false;
  std::unordered_map<net::NodeId, std::unique_ptr<Monitor>> monitors_;
};

}  // namespace vedr::core
