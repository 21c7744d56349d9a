#pragma once

// In-memory span log for the benchmark's traced run. Spans are recorded by
// the benchmark around its own calls into the library (never inside it),
// kept in memory, and written out once when the run ends.
//
// A span's layer is its name up to the first '.': "replay.decode" belongs
// to layer "replay". Spans named "bench.*" are the benchmark's own frames
// (rounds, set-up) and belong to no layer.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name = "";            ///< string literal, "layer.call"
  std::uint32_t parent = kNoParent;  ///< index into the log
  std::uint64_t group = 0;           ///< shared by every span of one case, trace or session
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded span recorder. Nesting follows the call stack: a span
/// begun while another is open becomes its child.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* name, std::uint64_t group) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.group = group;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }

  void end(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// A fresh id for the spans of one case, trace or session.
  std::uint64_t new_group() { return ++last_group_; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t last_group_ = 0;
};

/// RAII span; does nothing (one branch) when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t group = 0)
      : log_(log.enabled() ? &log : nullptr),
        index_(log_ != nullptr ? log_->begin(name, group) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Per span: its duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once, and a child's
/// time outside its parent is ignored).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// "replay" for "replay.decode"; empty for "bench.*" frames.
std::string layer_of(const char* name);

/// Time accounting over a whole log.
struct SpanTotals {
  std::map<std::string, std::int64_t> self_by_name;   ///< summed self time per span name
  std::map<std::string, std::int64_t> total_by_name;  ///< summed duration per span name
  std::map<std::string, std::uint64_t> count_by_name;
  std::map<std::string, std::int64_t> self_by_layer;  ///< summed self time per layer
  std::int64_t root_ns = 0;   ///< summed duration of top-level spans (the traced wall time)
  std::int64_t layer_ns = 0;  ///< summed self time of every layer span
  /// Per top-level span name: summed self time of the layer spans beneath
  /// (the share of that frame's wall time the layers account for).
  std::map<std::string, std::int64_t> layer_ns_by_root;
};

SpanTotals totals(const std::vector<Span>& spans);

/// Writes one tab-separated line per span (index, parent, group, name,
/// start, end, self), times in ns relative to the first span. False on I/O
/// failure.
bool write_spans_tsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace pipebench
