#include "replay/trace_format.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace vedr::replay {

const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::kEnvelope: return "envelope";
    case RecordType::kStepRecord: return "step_record";
    case RecordType::kPollRegistration: return "poll_registration";
    case RecordType::kSwitchReport: return "switch_report";
    case RecordType::kPollTrigger: return "poll_trigger";
    case RecordType::kNotification: return "notification";
    case RecordType::kPauseCause: return "pause_cause";
    case RecordType::kTtlDrop: return "ttl_drop";
    case RecordType::kFooter: return "footer";
  }
  return "?";
}

namespace {

// --- archives ----------------------------------------------------------------
//
// Three walks over the same field lists: the encoder writes each field, the
// decoder reads it back, and the sizer adds up a type's minimum encoded size
// (every sequence empty). Wire widths follow the C++ field types: integers
// by size, doubles as f64, enums as one range-checked byte; sequences are a
// u32 count followed by the elements.

static_assert(sizeof(bool) == 1, "a bool field is one wire byte");

template <class T>
std::size_t min_size();

/// Dispatch shared by the archives: scalars to scalar(), vectors to
/// sequence(), fixed arrays to array(), anything else to its io().
template <class Self>
class Archive {
 public:
  template <class... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }

  template <class T>
  void field(T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
      self().scalar(v);
    } else {
      io(self(), v);
    }
  }
  template <class T>
  void field(std::vector<T>& v) {
    self().sequence(v);
  }
  template <class T, std::size_t N>
  void field(T (&v)[N]) {
    self().array(v);
  }
};

class Encoder : public Archive<Encoder> {
 public:
  explicit Encoder(ByteWriter& w) : w_(w) {}

  template <class S>
  void scalar(S v) {
    if constexpr (std::is_same_v<S, double>) {
      w_.f64(v);
    } else if constexpr (sizeof(S) == 1) {
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(S) == 2) {
      w_.u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(S) == 4) {
      w_.u32(static_cast<std::uint32_t>(v));
    } else {
      w_.u64(static_cast<std::uint64_t>(v));
    }
  }
  template <class E>
  void enumeration(E v, E /*max*/) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  template <class F>
  void not_on_wire(F& /*v*/, const F& /*reset*/) {}
  template <class T>
  void sequence(std::vector<T>& v) {
    w_.count(v.size());
    for (T& e : v) (*this)(e);
  }
  template <class T, std::size_t N>
  void array(T (&v)[N]) {
    w_.count(N);
    for (T& e : v) (*this)(e);
  }
  void check(bool /*ok*/) {}

 private:
  ByteWriter& w_;
};

class Decoder : public Archive<Decoder> {
 public:
  explicit Decoder(ByteReader& r) : r_(r) {}

  template <class S>
  void scalar(S& v) {
    if constexpr (std::is_same_v<S, double>) {
      v = r_.f64();
    } else if constexpr (sizeof(S) == 1) {
      v = static_cast<S>(r_.u8());
    } else if constexpr (sizeof(S) == 2) {
      v = static_cast<S>(r_.u16());
    } else if constexpr (sizeof(S) == 4) {
      v = static_cast<S>(r_.u32());
    } else {
      v = static_cast<S>(r_.u64());
    }
  }
  template <class E>
  void enumeration(E& v, E max) {
    const std::uint8_t raw = r_.u8();
    if (raw > static_cast<std::uint8_t>(max)) return r_.fail();
    v = static_cast<E>(raw);
  }
  /// The decoder may write into a value that held an earlier record, so a
  /// field the wire does not carry is reset rather than left as it was.
  template <class F>
  void not_on_wire(F& v, const F& reset) {
    v = reset;
  }
  /// The count is checked against the element's minimum size before the
  /// resize, so a corrupt count cannot trigger a huge allocation.
  template <class T>
  void sequence(std::vector<T>& v) {
    v.resize(r_.count(min_size<T>()));
    for (T& e : v) (*this)(e);
  }
  template <class T, std::size_t N>
  void array(T (&v)[N]) {
    check(r_.count(min_size<T>()) == N);
    for (T& e : v) (*this)(e);
  }
  void check(bool ok) {
    if (!ok) r_.fail();
  }

 private:
  ByteReader& r_;
};

class Sizer : public Archive<Sizer> {
 public:
  std::size_t bytes = 0;

  template <class S>
  void scalar(S& /*v*/) {
    bytes += sizeof(S);
  }
  template <class E>
  void enumeration(E& /*v*/, E /*max*/) {
    bytes += 1;
  }
  template <class F>
  void not_on_wire(F& /*v*/, const F& /*reset*/) {}
  template <class T>
  void sequence(std::vector<T>& /*v*/) {
    bytes += sizeof(std::uint32_t);
  }
  template <class T, std::size_t N>
  void array(T (&/*v*/)[N]) {
    bytes += sizeof(std::uint32_t) + N * min_size<T>();
  }
  void check(bool /*ok*/) {}
};

/// Computed once per type, on first use.
template <class T>
std::size_t min_size() {
  static const std::size_t bytes = [] {
    Sizer s;
    T v{};
    s(v);
    return s.bytes;
  }();
  return bytes;
}

// --- field lists, in wire order -----------------------------------------------

template <class A>
void io(A& a, net::FlowKey& k) {
  a(k.src, k.dst, k.sport, k.dport);
}

template <class A>
void io(A& a, net::PortRef& p) {
  a(p.node, p.port);
}

template <class A, class X, class Y>
void io(A& a, std::pair<X, Y>& p) {
  a(p.first, p.second);
}

template <class A>
void io(A& a, net::NetConfig& c) {
  a.enumeration(c.cc_algorithm, net::CcAlgorithm::kSwift);
  a(c.link_gbps, c.link_delay, c.mtu_bytes, c.header_bytes, c.control_pkt_bytes,
    c.pfc_xoff_bytes, c.pfc_xon_bytes, c.ecn_kmin_bytes, c.ecn_kmax_bytes, c.ecn_pmax,
    c.queue_cap_bytes, c.initial_ttl, c.telemetry_window, c.controller_delay, c.pfc_chase_hops);
  a.not_on_wire(c.telemetry, net::TelemetryParams{});
  a.not_on_wire(c.telemetry_retention, net::NetConfig{}.telemetry_retention);
}

template <class A>
void io(A& a, anomaly::InjectedFlow& f) {
  a(f.key, f.bytes, f.start);
}

template <class A>
void io(A& a, anomaly::StormSpec& s) {
  a(s.port, s.start, s.duration);
}

/// Ring all-gather over at least two distinct hosts of the fabric (host ids
/// are 0..k^3/4-1).
bool valid_participants(const TraceEnvelope& v) {
  if (!valid_fat_tree_k(v.fat_tree_k)) return false;
  const std::int32_t hosts = v.fat_tree_k * v.fat_tree_k * v.fat_tree_k / 4;
  std::vector<net::NodeId> ids = v.participants;
  std::sort(ids.begin(), ids.end());
  return ids.size() >= 2 && ids.front() >= 0 && ids.back() < hosts &&
         std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

template <class A>
void io(A& a, TraceEnvelope& v) {
  a.enumeration(v.system, RecordedSystem::kFullPolling);
  a.enumeration(v.scenario, RecordedScenario::kPfcBackpressure);
  a(v.case_id, v.seed, v.fat_tree_k, v.plan_kind);
  // A CRC proves the bytes arrived intact, not that they make sense: the
  // replay rebuilds the fabric and the plan from these fields, so values
  // that the simulator never records are rejected here.
  a.check(valid_fat_tree_k(v.fat_tree_k));
  a.check(v.plan_kind == 0);  // only ring all-gather exists in v1
  a(v.horizon, v.participants, v.cc_step_bytes);
  a.check(valid_participants(v) && v.cc_step_bytes > 0);
  a(v.netcfg, v.bg_flows, v.storms, v.expected_root);
}

template <class A>
void io(A& a, collective::StepRecord& v) {
  a(v.key, v.flow_index, v.step, v.bytes, v.src, v.dst, v.wait_src, v.dep_flow, v.dep_step,
    v.dep_ready_time, v.prev_done_time, v.start_time, v.end_time, v.expected_duration);
}

template <class A>
void io(A& a, PollRegistration& v) {
  a(v.poll_id, v.flow, v.step);
}

template <class A>
void io(A& a, telemetry::FlowEntry& e) {
  a(e.flow, e.pkts, e.bytes, e.first_seen, e.last_seen);
}

template <class A>
void io(A& a, telemetry::WaitEntry& e) {
  a(e.waiter, e.ahead, e.weight);
}

template <class A>
void io(A& a, telemetry::MeterEntry& m) {
  a(m.in_port, m.bytes);
}

template <class A>
void io(A& a, telemetry::PauseEvent& e) {
  a(e.start, e.end);
}

template <class A>
void io(A& a, telemetry::PortReport& p) {
  a(p.port, p.poll_time, p.qdepth_bytes, p.qdepth_pkts, p.currently_paused, p.total_pause_time,
    p.flows, p.waits, p.meters, p.pauses);
  a.not_on_wire(p.truncated, false);  // recordings are exact-lane
}

template <class A>
void io(A& a, telemetry::PauseCauseReport& c) {
  a(c.ingress_port, c.time, c.injected, c.contributions);
}

template <class A>
void io(A& a, telemetry::DropEntry& d) {
  a(d.flow, d.port, d.count, d.last_drop);
}

template <class A>
void io(A& a, telemetry::SwitchReport& v) {
  a(v.switch_id, v.poll_id, v.time, v.ports, v.causes, v.drops);
  a.not_on_wire(v.backend, net::TelemetryBackend::kExact);
}

template <class A>
void io(A& a, PollTriggerRecord& v) {
  a(v.time, v.host, v.flow, v.poll_id, v.step);
}

template <class A>
void io(A& a, NotificationRecord& v) {
  a(v.time, v.from, v.to, v.step, v.budget);
}

template <class A>
void io(A& a, PauseCauseRecord& v) {
  a(v.switch_id, v.cause);
}

template <class A>
void io(A& a, TtlDropRecord& v) {
  a(v.switch_id, v.drop);
}

template <class A>
void io(A& a, TraceFooter& v) {
  a(v.diagnosis_digest, v.diagnosis_json_bytes);
  a.enumeration(v.outcome, RecordedOutcome::kTruePositive);
  a(v.cc_completed, v.cc_time, v.record_counts);
}

template <class T>
void write(ByteWriter& w, const T& v) {
  Encoder e(w);
  e(const_cast<T&>(v));  // the encoder only reads the fields
}

/// A payload decodes only if every read was in bounds and valid and the
/// payload is consumed exactly.
template <class T>
bool read(ByteReader& r, T& v) {
  Decoder d(r);
  d(v);
  return r.ok() && r.remaining() == 0;
}

}  // namespace

void encode(ByteWriter& w, const TraceEnvelope& v) { write(w, v); }
void encode(ByteWriter& w, const collective::StepRecord& v) { write(w, v); }
void encode(ByteWriter& w, const PollRegistration& v) { write(w, v); }
void encode(ByteWriter& w, const telemetry::SwitchReport& v) { write(w, v); }
void encode(ByteWriter& w, const PollTriggerRecord& v) { write(w, v); }
void encode(ByteWriter& w, const NotificationRecord& v) { write(w, v); }
void encode(ByteWriter& w, const PauseCauseRecord& v) { write(w, v); }
void encode(ByteWriter& w, const TtlDropRecord& v) { write(w, v); }
void encode(ByteWriter& w, const TraceFooter& v) { write(w, v); }

bool decode(ByteReader& r, TraceEnvelope& v) { return read(r, v); }
bool decode(ByteReader& r, collective::StepRecord& v) { return read(r, v); }
bool decode(ByteReader& r, PollRegistration& v) { return read(r, v); }
bool decode(ByteReader& r, telemetry::SwitchReport& v) { return read(r, v); }
bool decode(ByteReader& r, PollTriggerRecord& v) { return read(r, v); }
bool decode(ByteReader& r, NotificationRecord& v) { return read(r, v); }
bool decode(ByteReader& r, PauseCauseRecord& v) { return read(r, v); }
bool decode(ByteReader& r, TtlDropRecord& v) { return read(r, v); }
bool decode(ByteReader& r, TraceFooter& v) { return read(r, v); }

std::string encode_file_header(std::uint16_t version) {
  ByteWriter w;
  w.bytes(std::string_view(kMagic, 4));
  w.u16(version);
  w.u16(0);  // flags, reserved
  const std::uint32_t crc = crc32(w.data());
  ByteWriter out;
  out.bytes(w.data());
  out.u32(crc);
  return out.take();
}

}  // namespace vedr::replay
