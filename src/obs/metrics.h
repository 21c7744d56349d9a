#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/stats.h"

namespace vedr::obs {

/// One gauge sample with its own labels. The windowed serve metrics need
/// several series under one name distinguished only by labels
/// (window="10s"/"60s", tenant="..."), which the keyed maps below cannot
/// express — so gauges are a flat series list instead.
struct GaugeSeries {
  std::string name;                           ///< registry-style dotted name
  std::map<std::string, std::string> labels;  ///< per-series; values escaped on export
  double value = 0.0;
};

/// Point-in-time copy of a StatsRegistry: counters and log-bucketed
/// histograms. Cheap to hold per eval case (the maps are small) and safe to
/// read after the originating Network has been destroyed.
/// `gauges` carries computed point-in-time series (windowed quantiles/rates,
/// uptime, build info) that have no registry backing.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, Histogram> hists;
  std::vector<GaugeSeries> gauges;

  bool empty() const { return counters.empty() && hists.empty() && gauges.empty(); }
};

MetricsSnapshot snapshot(const sim::StatsRegistry& stats);

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline become \\, \", and \n. Label values
/// (tenant ids, trace paths) can contain arbitrary bytes; names are sanitized
/// instead.
std::string escape_label_value(const std::string& v);

/// Prometheus text exposition (version 0.0.4). Metric names are sanitized
/// (dots and other invalid characters become '_'); `labels` are attached to
/// every series. Counters export as `counter`, gauges as `gauge`, histograms
/// as native `histogram` with cumulative `le` buckets, `_sum`, and `_count`.
/// Empty histogram buckets are elided (log2 buckets span 63 decades of
/// dynamic range; the cumulative counts stay correct without the dead
/// lines).
std::string to_prometheus(const MetricsSnapshot& snap,
                          const std::map<std::string, std::string>& labels = {});

/// JSON rendering of the same snapshot (object with "counters", "hists",
/// "gauges"); histogram buckets appear as [upper_edge, count] pairs
/// and gauges as an array of {name, labels, value} objects.
std::string to_json(const MetricsSnapshot& snap);

/// Writes `text` to `path`; returns false (and logs) on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace vedr::obs
