#include "obs/metrics.h"

#include <cctype>
#include <cstdio>

#include "obs/json.h"
#include "obs/log.h"

namespace vedr::obs {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
/// dotted paths ("overhead.poll_bytes"); map everything else to '_'.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A leading '_' when the name would start with a digit (or be empty),
  // written first rather than inserted after: GCC 12 flags the insert with
  // a -Wrestrict false positive in Release builds.
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])) != 0) out += '_';
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string label_block(const std::map<std::string, std::string>& labels,
                        const std::string& extra_key = {}, const std::string& extra_val = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize(k) + "=\"" + escape_label_value(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + escape_label_value(extra_val) + "\"";
  }
  out += "}";
  return out;
}

void append_line(std::string& out, const std::string& name, const std::string& labels,
                 double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += name;
  out += labels;
  out += ' ';
  out += buf;
  out += '\n';
}

}  // namespace

MetricsSnapshot snapshot(const sim::StatsRegistry& stats) {
  MetricsSnapshot snap;
  snap.counters = stats.counters();
  snap.hists = stats.hists();
  return snap;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap,
                          const std::map<std::string, std::string>& labels) {
  std::string out;
  const std::string lb = label_block(labels);

  for (const auto& [name, value] : snap.counters) {
    const std::string m = "vedr_" + sanitize(name);
    out += "# TYPE " + m + " counter\n";
    append_line(out, m, lb, static_cast<double>(value));
  }

  // Gauge series grouped by name (the exposition format wants one TYPE line
  // and consecutive samples per metric), preserving first-appearance order.
  {
    std::vector<std::string> order;
    std::map<std::string, std::vector<const GaugeSeries*>> by_name;
    for (const auto& g : snap.gauges) {
      auto [it, inserted] = by_name.try_emplace(g.name);
      if (inserted) order.push_back(g.name);
      it->second.push_back(&g);
    }
    for (const auto& name : order) {
      const std::string m = "vedr_" + sanitize(name);
      out += "# TYPE " + m + " gauge\n";
      for (const GaugeSeries* g : by_name[name]) {
        std::map<std::string, std::string> merged = labels;
        for (const auto& [k, v] : g->labels) merged[k] = v;
        append_line(out, m, label_block(merged), g->value);
      }
    }
  }

  for (const auto& [name, h] : snap.hists) {
    const std::string m = "vedr_" + sanitize(name);
    out += "# TYPE " + m + " histogram\n";
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t in_bucket = h.bucket(i);
      cum += in_bucket;
      if (in_bucket == 0) continue;  // elide dead log2 buckets, cumulative stays exact
      if (i == Histogram::kOverflowBucket) break;  // folded into the +Inf line below
      char le[32];
      std::snprintf(le, sizeof le, "%lld",
                    static_cast<long long>(Histogram::upper_edge(i)));
      append_line(out, m + "_bucket", label_block(labels, "le", le),
                  static_cast<double>(cum));
    }
    append_line(out, m + "_bucket", label_block(labels, "le", "+Inf"),
                static_cast<double>(h.count()));
    append_line(out, m + "_sum", lb, static_cast<double>(h.sum()));
    append_line(out, m + "_count", lb, static_cast<double>(h.count()));
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snap) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();

  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) w.kv(name, value);
  w.end_object();

  w.key("hists");
  w.begin_object();
  for (const auto& [name, h] : snap.hists) {
    w.key(name);
    w.begin_object();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("p50", h.value_at_quantile(0.5));
    w.kv("p99", h.value_at_quantile(0.99));
    w.key("buckets");
    w.begin_array();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      w.begin_array();
      w.value(Histogram::upper_edge(i));
      w.value(h.bucket(i));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("gauges");
  w.begin_array();
  for (const auto& g : snap.gauges) {
    w.begin_object();
    w.kv("name", g.name);
    w.key("labels");
    w.begin_object();
    for (const auto& [k, v] : g.labels) w.kv(k, v);
    w.end_object();
    w.kv("value", g.value);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    VEDR_LOG_ERROR("obs", "cannot open metrics output '%s'", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fclose(f) == 0;
  if (!ok) VEDR_LOG_ERROR("obs", "short write to metrics output '%s'", path.c_str());
  return ok;
}

}  // namespace vedr::obs
