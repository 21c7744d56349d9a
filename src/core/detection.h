#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.h"

namespace vedr::core {

using sim::Tick;

/// Detection knobs (§III-C2). The defaults are the paper's evaluated
/// operating point: 120% step-grained RTT thresholds, 3 detections per
/// step, adaptive budget transfer on.
struct DetectionConfig {
  double rtt_multiplier = 1.2;   ///< threshold = multiplier * base RTT
  int detections_per_step = 3;   ///< trigger budget per step (Fig. 5)
  bool adaptive_transfer = true; ///< notification-packet budget transfer (Fig. 7)
  Tick fixed_rtt_threshold = 0;  ///< >0: ablation override (Fig. 13a)
  bool unrestricted = false;     ///< ablation: Hawkeye-like unlimited triggering

  /// Stalled-flow watchdog (§V): when an active step produces no ACKs for
  /// this long — the signature of full PFC halts, storms, and deadlocks,
  /// where RTT-based triggering is blind because nothing is flowing — an
  /// investigation fires immediately, outside the RTT budget. 0 disables.
  Tick stall_timeout = 1 * sim::kMillisecond;
};

/// Per-step trigger state: enforces the detection budget and the
/// evenly-spread triggering interval derived from the estimated FCT
/// (Fig. 5), and absorbs budget transfers from notification packets.
class StepTrigger {
 public:
  /// Arms the trigger for a new step.
  void begin_step(Tick now, Tick rtt_threshold, Tick estimated_fct, int budget,
                  bool unrestricted, Tick spacing_floor) {
    (void)now;
    threshold_ = rtt_threshold;
    est_fct_ = estimated_fct;
    budget_ = budget;
    used_ = 0;
    last_fire_ = sim::kNever;
    unrestricted_ = unrestricted;
    spacing_floor_ = spacing_floor;
    armed_ = true;
  }

  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// Budget transferred in from a finished flow's notification packet.
  void add_budget(int extra) { budget_ += extra; }

  /// Offers an RTT sample; returns true when a detection should fire now.
  bool offer(Tick rtt, Tick now) {
    if (!armed_ || rtt <= threshold_) return false;
    if (unrestricted_) {
      ++used_;
      last_fire_ = now;
      return true;
    }
    if (used_ >= budget_) return false;
    if (last_fire_ != sim::kNever && now - last_fire_ < spacing()) return false;
    ++used_;
    last_fire_ = now;
    return true;
  }

  /// Remaining (transferable) detection opportunities.
  int remaining() const { return std::max(0, budget_ - used_); }
  int used() const { return used_; }
  int budget() const { return budget_; }
  Tick threshold() const { return threshold_; }

  /// The even-spread interval: estimated FCT divided across the budget.
  Tick spacing() const {
    const int b = std::max(1, budget_);
    return std::max(spacing_floor_, est_fct_ / b);
  }

 private:
  Tick threshold_ = 0;
  Tick est_fct_ = 0;
  int budget_ = 0;
  int used_ = 0;
  Tick last_fire_ = sim::kNever;
  Tick spacing_floor_ = 0;
  bool unrestricted_ = false;
  bool armed_ = false;
};

}  // namespace vedr::core
