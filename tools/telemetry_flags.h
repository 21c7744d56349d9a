#pragma once

// Shared --telemetry flag surface for vedr_diagnose / vedr_replay /
// vedr_serve. One parser so the three tools cannot drift on spelling or
// validation:
//
//   --telemetry exact|sketch   backend selection (default exact)
//   --sketch-width N           count-min columns per row (power of two not
//                              required; default 512)
//   --sketch-depth N           count-min rows (<= telemetry::kMaxSketchDepth)
//   --sketch-k N               heavy-hitter flows kept per port report
//
// The knobs are accepted (and validated) even with --telemetry exact so a
// sweep driver can hold one command shape; they only take effect on the
// sketch lane.

#include <string>

#include "common/env.h"
#include "net/types.h"
#include "telemetry/sketch_store.h"

namespace vedr::tools {

class TelemetryCli {
 public:
  /// Returns true iff `arg` was one of ours. `next` yields the flag's value
  /// (calling the tool's usage() when missing); `die` is the tool's
  /// [[noreturn]] usage handler, invoked on an unknown backend. A knob out
  /// of range exits 2 through common::parse_int_or_die.
  template <typename NextFn, typename DieFn>
  bool parse(const std::string& arg, NextFn&& next, DieFn&& die) {
    if (arg == "--telemetry") {
      const std::string v = next();
      if (v == "exact") {
        params_.backend = net::TelemetryBackend::kExact;
      } else if (v == "sketch") {
        params_.backend = net::TelemetryBackend::kSketch;
      } else {
        die();
      }
      return true;
    }
    if (arg == "--sketch-width") {
      params_.sketch_width = common::parse_int_or_die("--sketch-width", next(), 1, kMaxKnob);
      return true;
    }
    if (arg == "--sketch-depth") {
      params_.sketch_depth = common::parse_int_or_die(
          "--sketch-depth", next(), 1, telemetry::kMaxSketchDepth);
      return true;
    }
    if (arg == "--sketch-k") {
      params_.topk = common::parse_int_or_die("--sketch-k", next(), 1, kMaxKnob);
      return true;
    }
    return false;
  }

  const net::TelemetryParams& params() const { return params_; }
  bool sketch() const { return params_.backend == net::TelemetryBackend::kSketch; }

  /// The usage-line fragment, kept here so the three tools print one truth.
  static const char* usage_line() {
    return "          [--telemetry exact|sketch] [--sketch-width N] [--sketch-depth N]\n"
           "          [--sketch-k N]\n";
  }

 private:
  static constexpr int kMaxKnob = 1 << 24;

  net::TelemetryParams params_;
};

}  // namespace vedr::tools
