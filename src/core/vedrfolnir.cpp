#include "core/vedrfolnir.h"

#include "net/host.h"
#include "sim/shard.h"

namespace vedr::core {

Vedrfolnir::Vedrfolnir(net::Network& net, collective::CollectiveRunner& runner,
                       VedrfolnirConfig cfg)
    : net_(net),
      runner_(runner),
      analyzer_(&net.topology(), &runner.plan()),
      buffers_(DomainIngestBuffer::install(net, cfg.trace)) {
  analyzer_.set_stats(&net_.stats());
  for (net::NodeId host : runner_.plan().participants()) {
    // Scope construction to the host's domain: the monitor interns its stats
    // cells into the domain-local registry it will write from the domain's
    // worker.
    const int domain = net_.domain_of(host);
    sim::ShardScope scope(domain);
    auto mon = std::make_unique<Monitor>(net_, runner_.plan(),
                                         *buffers_[static_cast<std::size_t>(domain)], host,
                                         cfg.detection);
    Monitor* m = mon.get();
    net_.host(host).set_rtt_listener(
        [m](const net::FlowKey& f, net::Tick rtt, std::uint32_t seq) {
          m->on_rtt_sample(f, rtt, seq);
        });
    net_.host(host).set_control_listener(
        [m](const net::Packet& pkt, net::Tick now) { m->on_control_packet(pkt, now); });
    monitors_.emplace(host, std::move(mon));
  }

  runner_.set_on_step_start([this](const collective::StepRecord& r) {
    auto it = monitors_.find(r.src);
    if (it != monitors_.end()) it->second->on_step_start(r);
  });
  runner_.set_on_step_complete([this](const collective::StepRecord& r) {
    auto it = monitors_.find(r.src);
    if (it != monitors_.end()) it->second->on_step_complete(r);
  });
}

Diagnosis Vedrfolnir::diagnose() { return analyzer().diagnose(); }

Analyzer& Vedrfolnir::analyzer() {
  DomainIngestBuffer::replay_into(buffers_, analyzer_);
  return analyzer_;
}

int Vedrfolnir::total_polls() const {
  int n = 0;
  for (const auto& [host, m] : monitors_) n += m->polls_sent();  // vedr-lint: allow(unordered-iter): commutative sum
  return n;
}

int Vedrfolnir::total_notifications() const {
  int n = 0;
  for (const auto& [host, m] : monitors_) n += m->notifications_sent();  // vedr-lint: allow(unordered-iter): commutative sum
  return n;
}

}  // namespace vedr::core
