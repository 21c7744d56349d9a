#pragma once

// Shared helpers for the figure-regeneration harnesses: environment-driven
// case counts (so CI can run small and a full paper-scale run is one env var
// away), table printing, the standard scenario/system lists, and the shared
// machine-readable result emitter (BenchReport) every bench writes its
// --json output through.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "eval/experiment.h"
#include "obs/cli.h"
#include "obs/json.h"

namespace vedr::bench {

/// One machine-readable bench record, built on obs::JsonWriter — the same
/// emitter the trace exporter and metrics snapshots use, so every JSON file
/// this repo writes shares one escaping/comma/number implementation instead
/// of per-bench fprintf blobs. Fields appear in insertion order; call take()
/// or write() exactly once, after the last field.
class BenchReport {
 public:
  explicit BenchReport(const char* bench_name) : w_(&body_) {
    w_.begin_object();
    w_.kv("bench", bench_name);
  }

  template <typename T>
  BenchReport& field(std::string_view key, T v) {
    w_.kv(key, v);
    return *this;
  }

  /// Fixed-decimal double, for rate/seconds fields where %.17g noise hurts.
  BenchReport& field_fixed(std::string_view key, double v, int decimals) {
    w_.key(key);
    w_.value_fixed(v, decimals);
    return *this;
  }

  /// Finishes the record; the report must not be used afterwards.
  std::string take() {
    w_.end_object();
    body_ += '\n';
    return std::move(body_);
  }

  /// take() to `path`; returns false (and logs) on I/O failure.
  bool write(const std::string& path) { return obs::write_text_file(path, take()); }

 private:
  std::string body_;
  obs::JsonWriter w_;
};

/// Cases per scenario: VEDR_CASES=paper reproduces the paper's 60/60/40/60;
/// VEDR_CASES=<n> forces n; default is a CI-friendly subset. A value that is
/// neither "paper" nor a positive integer aborts — atoi's silent 0 would
/// quietly run the default instead of what was asked.
inline int cases_for(eval::ScenarioType type, int default_cases = 20) {
  if (const auto env = common::env_str("VEDR_CASES")) {
    if (*env == "paper") return eval::paper_case_count(type);
    return common::parse_int_or_die("VEDR_CASES", *env, 1, INT_MAX);
  }
  return std::min(default_cases, eval::paper_case_count(type));
}

/// Workload scale (fraction of the paper's 360 MB steps); VEDR_SCALE
/// overrides, e.g. VEDR_SCALE=0.03125 for 1/32. Garbage aborts.
inline double scale_from_env(double def = 1.0 / 64.0) {
  if (const auto env = common::env_str("VEDR_SCALE")) {
    const double s = common::parse_f64_or_die("VEDR_SCALE", *env);
    if (s <= 0) {
      std::fprintf(stderr, "error: VEDR_SCALE: must be positive: %s\n", env->c_str());
      std::exit(2);
    }
    return s;
  }
  return def;
}

inline const std::vector<eval::ScenarioType>& all_scenarios() {
  static const std::vector<eval::ScenarioType> kAll = {
      eval::ScenarioType::kFlowContention,
      eval::ScenarioType::kIncast,
      eval::ScenarioType::kPfcStorm,
      eval::ScenarioType::kPfcBackpressure,
  };
  return kAll;
}

inline const std::vector<eval::SystemKind>& all_systems() {
  static const std::vector<eval::SystemKind> kAll = {
      eval::SystemKind::kVedrfolnir,
      eval::SystemKind::kHawkeyeMaxR,
      eval::SystemKind::kHawkeyeMinR,
      eval::SystemKind::kFullPolling,
  };
  return kAll;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline std::string human_bytes(double b) {
  char buf[64];
  if (b >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fMB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fKB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fB", b);
  }
  return buf;
}

}  // namespace vedr::bench
