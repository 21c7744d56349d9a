#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "telemetry/store.h"

namespace vedr::telemetry {

/// Fixed per-row hash seeds for every sketch in the telemetry plane. These
/// must be compile-time constants: a seed derived from wall-clock or
/// randomness would make sketch contents — and therefore reports, findings
/// and the determinism digest — differ run to run (tools/determinism_lint.py
/// rng-seed rule).
inline constexpr std::uint64_t kSketchRowSeeds[] = {
    0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
    0xD6E8FEB86659FD93ULL, 0x8CB92BA72F3D8DD7ULL, 0x94D049BB133111EBULL,
    0xBF58476D1CE4E5B9ULL, 0x2545F4914F6CDD1DULL,
};
inline constexpr int kMaxSketchDepth =
    static_cast<int>(sizeof(kSketchRowSeeds) / sizeof(kSketchRowSeeds[0]));

/// Count-min sketch over pre-hashed 64-bit keys: `depth` rows of `width`
/// counters, point queries answer min over rows. Estimates are
/// overestimate-only (counters only ever grow by non-negative deltas) with
/// the classical error bound: err <= (e / width) * N with probability
/// 1 - e^-depth, N the total mass added.
class CountMinSketch {
 public:
  CountMinSketch(std::int32_t width, std::int32_t depth);

  void add(std::uint64_t key, std::int64_t delta);
  std::int64_t estimate(std::uint64_t key) const;

  std::int64_t total() const { return total_; }
  std::int64_t state_bytes() const {
    return static_cast<std::int64_t>(cells_.size()) * StateCosts::kSketchCounter;
  }

 private:
  std::size_t cell_index(std::uint64_t key, std::int32_t row) const;

  std::int32_t width_;
  std::int32_t depth_;
  std::int64_t total_ = 0;
  std::vector<std::int64_t> cells_;  ///< row-major [depth_][width_]
};

/// Bounded-memory backend (DESIGN.md §13): count-min summaries for per-flow
/// pkts/bytes and ahead-of-me counts, a fixed-capacity pairwise-wait table
/// (space-saving eviction, overestimate-only), and a top-k heavy-hitter heap
/// that restricts reports to the flows that matter. All tie-breaks are by
/// FlowKey field order, so the lane is deterministic under a fixed seed.
class SketchStore final : public TelemetryStore {
 public:
  explicit SketchStore(const TelemetryParams& params);

  void on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) override;
  void on_dequeue(const FlowKey& flow, std::int64_t bytes) override;
  void fill_snapshot(PortReport& r, Tick now, Tick since) const override;
  void prune(Tick now, Tick retention) override;
  std::int64_t state_bytes() const override;
  TelemetryBackend backend() const override { return TelemetryBackend::kSketch; }

  /// Point estimates (overestimate-only) — exposed for the property tests
  /// and the frontier bench.
  std::int64_t estimate_pkts(const FlowKey& f) const { return pkts_.estimate(f.hash()); }
  std::int64_t estimate_bytes(const FlowKey& f) const { return bytes_.estimate(f.hash()); }

  /// Heavy-hitter flows currently tracked, sorted by FlowKey.
  std::vector<FlowKey> topk_flows() const;
  /// Whether any flow or wait pair has been evicted: reports from this store
  /// may omit state an exact store would have kept.
  bool truncated() const { return evicted_; }

 private:
  struct HeapEntry {
    FlowKey flow;
    std::int64_t est = 0;  ///< count-min pkts estimate at last update
    Tick first_seen = sim::kNever;
    Tick last_seen = sim::kNever;
  };

  /// (min-heap ordering) a before b: lower estimate first, FlowKey order on
  /// ties — the deterministic tie-break the eviction rule depends on.
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.est != b.est) return a.est < b.est;
    return a.flow < b.flow;
  }

  void heap_update(const FlowKey& flow, std::int64_t est, Tick now);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  struct PairKey {
    FlowKey waiter;
    FlowKey ahead;
    friend auto operator<=>(const PairKey&, const PairKey&) = default;
  };
  struct PairCell {
    std::int64_t weight = 0;
    Tick last = sim::kNever;
  };

  void pair_update(const FlowKey& waiter, const FlowKey& ahead, std::int64_t cnt, Tick now);

  TelemetryParams params_;
  CountMinSketch pkts_;
  CountMinSketch bytes_;
  CountMinSketch ahead_;

  // Live queue contents: inherently bounded by queue occupancy. Ordered map
  // so the pair-table update order (whose evictions are order-sensitive)
  // never depends on hash iteration.
  std::map<FlowKey, std::int64_t> in_queue_;

  // Fixed-capacity min-heap of heavy hitters + index for O(log k) updates.
  std::vector<HeapEntry> heap_;
  std::unordered_map<FlowKey, std::size_t, net::FlowKeyHash> heap_index_;

  // Fixed-capacity pairwise-wait summary (space-saving: evicting the
  // minimum-weight pair bequeaths its weight, keeping estimates
  // overestimate-only with error <= total pair mass / capacity).
  std::map<PairKey, PairCell> pairs_;
  std::int64_t pair_mass_ = 0;  ///< total weight ever added (error-bound input)

  bool evicted_ = false;
};

}  // namespace vedr::telemetry
