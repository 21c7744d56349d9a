#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace vedr::obs {

/// The repository's one JSON emitter: the trace exporter, the metrics
/// snapshot writer, the diagnosis export (core/json_export.h), serve's
/// verdict lines, and the bench result files (bench/bench_util.h). Tracks comma
/// placement per nesting level so call sites never hand-manage separators —
/// the bug class the previous copy-pasted per-bench emitters kept re-growing.
///
/// Cold-path only: appends into a caller-owned std::string and allocates
/// freely. Not for use inside the simulation hot loop.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void begin_object() {
    comma();
    *out_ += '{';
    stack_.push_back(false);
  }
  void end_object() {
    stack_.pop_back();
    *out_ += '}';
  }
  void begin_array() {
    comma();
    *out_ += '[';
    stack_.push_back(false);
  }
  void end_array() {
    stack_.pop_back();
    *out_ += ']';
  }

  /// Object key; follow with exactly one value or container.
  void key(std::string_view k) {
    comma();
    quote(k);
    *out_ += ':';
    pending_key_ = true;
  }

  void value(std::string_view s) {
    comma();
    quote(s);
  }
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b) {
    comma();
    *out_ += b ? "true" : "false";
  }
  void value(std::int64_t v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    *out_ += buf;
  }
  void value(std::uint64_t v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    *out_ += buf;
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  /// Shortest round-trip representation; non-finite values (invalid JSON)
  /// are emitted as 0.
  void value(double v) {
    comma();
    if (!std::isfinite(v)) {
      *out_ += '0';
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    *out_ += buf;
  }
  /// Fixed-decimal double, for timestamp-like fields where %.17g noise hurts
  /// readability (e.g. Chrome trace `ts` microseconds).
  void value_fixed(double v, int decimals) {
    comma();
    if (!std::isfinite(v)) {
      *out_ += '0';
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    *out_ += buf;
  }

  /// Verbatim splice of pre-rendered JSON (must itself be a valid value).
  void raw(std::string_view json) {
    comma();
    out_->append(json);
  }

  // kv convenience for the common `"key": value` pair.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  std::size_t depth() const { return stack_.size(); }

 private:
  void comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;  // value immediately after key: no separator
    }
    if (!stack_.empty()) {
      if (stack_.back()) *out_ += ',';
      stack_.back() = true;
    }
  }

  void quote(std::string_view s) {
    *out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': *out_ += "\\\""; break;
        case '\\': *out_ += "\\\\"; break;
        case '\n': *out_ += "\\n"; break;
        case '\r': *out_ += "\\r"; break;
        case '\t': *out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            *out_ += buf;
          } else {
            *out_ += c;
          }
      }
    }
    *out_ += '"';
  }

  std::string* out_;
  std::vector<bool> stack_;  // per open container: "wrote a prior element"
  bool pending_key_ = false;
};

}  // namespace vedr::obs
