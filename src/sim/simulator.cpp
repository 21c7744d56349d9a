#include "sim/simulator.h"

#include "common/check.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/stats.h"

namespace vedr::sim {

void Simulator::set_stats(StatsRegistry* stats) {
  dispatch_hist_ = stats != nullptr ? stats->hist_cell("sim.dispatch_ns") : nullptr;
}

std::uint64_t Simulator::run(Tick until) {
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    const Tick next = queue_.next_time();
    if (next == kNever || next > until) break;
    VEDR_CHECK_GE(next, now_, "simulation clock would run backwards");
    now_ = next;
    // Sampled dispatch-latency observation. The mask check comes first so the
    // metrics-off cost is one branch; wall time is read through obs, keeping
    // the kernel itself free of host-clock calls (tools/determinism_lint.py wall-clock).
    if ((executed_ & kDispatchSampleMask) == 0 && dispatch_hist_ != nullptr &&
        obs::metrics_enabled()) {
      const std::uint64_t t0 = obs::wall_now_ns();
      queue_.run_next();
      dispatch_hist_->add(static_cast<std::int64_t>(obs::wall_now_ns() - t0));
    } else {
      queue_.run_next();
    }
    ++executed_;
    ++n;
  }
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Tick next = queue_.next_time();
  if (next == kNever) return false;
  VEDR_CHECK_GE(next, now_, "simulation clock would run backwards");
  now_ = next;
  queue_.run_next();
  ++executed_;
  return true;
}

}  // namespace vedr::sim
