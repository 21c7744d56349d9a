#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/windowed.h"

namespace vedr::serve {

/// The serve daemon's windowed metric surface (DESIGN.md §15): rolling
/// 10s/60s quantiles and rates that answer "what is the service doing RIGHT
/// NOW", rendered as labeled gauge series next to the lifetime aggregates on
/// /metrics.
///
/// Writers are the shard workers (one record per pump batch / diagnose call)
/// and the server's window roller (one queue-depth sample per session per
/// tick); readers are /metrics scrapes. All three run concurrently — the
/// windowed primitives are internally locked, and the per-tenant map takes
/// its own mutex.
struct LiveMetrics {
  static constexpr std::uint64_t kIntervalNs = 1'000'000'000;  ///< 1s deltas
  static constexpr std::uint64_t kWindowsNs[2] = {10'000'000'000ULL, 60'000'000'000ULL};
  static constexpr const char* kWindowNames[2] = {"10s", "60s"};

  obs::WindowedHistogram step_diagnose_ns{kIntervalNs};
  /// Per-roll-tick, per-session queue-depth peaks (from take_high_watermark),
  /// so the quantiles describe how deep ingest queues have been running.
  obs::WindowedHistogram queue_depth{kIntervalNs};
  obs::WindowedMax queue_depth_peak{kIntervalNs};
  obs::WindowedRate records{kIntervalNs};
  obs::WindowedRate verdicts{kIntervalNs};

  void record_tenant_records(const std::string& tenant, std::uint64_t n,
                             std::uint64_t now_ns) VEDR_EXCLUDES(tenants_mu_) {
    common::MutexLock lock(tenants_mu_);
    auto& rate = tenant_records_[tenant];
    if (rate == nullptr) rate = std::make_unique<obs::WindowedRate>(kIntervalNs);
    rate->add(n, now_ns);
  }

  /// Appends every windowed gauge to `snap.gauges` with window="10s"/"60s"
  /// labels (p50/p99 report the log2 bucket upper edge, matching
  /// Histogram::value_at_quantile).
  void append_gauges(obs::MetricsSnapshot& snap, std::uint64_t now_ns) const
      VEDR_EXCLUDES(tenants_mu_) {
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t win = kWindowsNs[i];
      const std::map<std::string, std::string> wl = {{"window", kWindowNames[i]}};
      const obs::Histogram diag = step_diagnose_ns.window(win, now_ns);
      snap.gauges.push_back({"serve.window.step_diagnose_p50_ns", wl,
                             static_cast<double>(diag.value_at_quantile(0.5))});
      snap.gauges.push_back({"serve.window.step_diagnose_p99_ns", wl,
                             static_cast<double>(diag.value_at_quantile(0.99))});
      snap.gauges.push_back({"serve.window.step_diagnose_count", wl,
                             static_cast<double>(diag.count())});
      const obs::Histogram depth = queue_depth.window(win, now_ns);
      snap.gauges.push_back({"serve.window.queue_depth_p50", wl,
                             static_cast<double>(depth.value_at_quantile(0.5))});
      snap.gauges.push_back({"serve.window.queue_depth_p99", wl,
                             static_cast<double>(depth.value_at_quantile(0.99))});
      snap.gauges.push_back({"serve.window.queue_depth_peak", wl,
                             static_cast<double>(queue_depth_peak.window_max(win, now_ns))});
      snap.gauges.push_back(
          {"serve.window.records_per_sec", wl, records.rate_per_sec(win, now_ns)});
      snap.gauges.push_back(
          {"serve.window.verdicts_per_sec", wl, verdicts.rate_per_sec(win, now_ns)});
      common::MutexLock lock(tenants_mu_);
      for (const auto& [tenant, rate] : tenant_records_) {
        std::map<std::string, std::string> tl = wl;
        tl["tenant"] = tenant;  // escaped by the exporter
        snap.gauges.push_back(
            {"serve.window.tenant_records_per_sec", tl, rate->rate_per_sec(win, now_ns)});
      }
    }
  }

 private:
  mutable common::Mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<obs::WindowedRate>> tenant_records_
      VEDR_GUARDED_BY(tenants_mu_);
};

/// Tail-based trace sampling (DESIGN.md §15): in always-on mode, retaining
/// every step's spans would wrap the trace rings in seconds — so retain full
/// detail only for steps whose diagnose latency lands in the rolling tail.
///
/// Rule: a step is retained when the 60s window already holds at least
/// kMinCount samples (the quantile is meaningful) and the step's latency
/// reaches the window's kQuantile bucket edge. Below kMinCount nothing is
/// retained — a cold start yields no tail verdicts rather than noise.
class TailSampler {
 public:
  /// The tail: the slowest 1% of steps.
  static constexpr double kQuantile = 0.99;
  /// Samples the 60s window must hold before its quantile means anything.
  static constexpr std::uint64_t kMinCount = 32;

  /// Feeds one diagnose latency; true iff the step should be retained (its
  /// spans recorded, a flight event emitted). The sample itself always
  /// enters the rolling window first, so the threshold adapts even while
  /// nothing is being retained.
  bool consider(std::int64_t latency_ns, std::uint64_t now_ns) {
    hist_.record(latency_ns, now_ns);
    considered_.fetch_add(1, std::memory_order_relaxed);
    const obs::Histogram win = hist_.window(kWindowNs, now_ns);
    if (win.count() < kMinCount) return false;
    if (latency_ns < win.value_at_quantile(kQuantile)) return false;
    retained_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Current retain threshold (the rolling quantile's bucket edge); 0 while
  /// the window holds fewer than kMinCount samples.
  std::int64_t threshold_ns(std::uint64_t now_ns) const {
    const obs::Histogram win = hist_.window(kWindowNs, now_ns);
    return win.count() < kMinCount ? 0 : win.value_at_quantile(kQuantile);
  }

  std::uint64_t considered() const { return considered_.load(std::memory_order_relaxed); }
  std::uint64_t retained() const { return retained_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kWindowNs = 60'000'000'000ULL;

  obs::WindowedHistogram hist_{1'000'000'000};
  std::atomic<std::uint64_t> considered_{0};
  std::atomic<std::uint64_t> retained_{0};
};

}  // namespace vedr::serve
