// Round-trip coverage for every .vtrc record type: encode a fully-populated
// instance, decode it, re-encode the decoded value, and require byte
// identity. Byte-level comparison proves field-by-field equality without
// needing operator== on every nested struct, and simultaneously proves the
// encoder is deterministic.
#include <gtest/gtest.h>

#include <string>

#include "replay/trace_format.h"
#include "replay/wire.h"

namespace vedr::replay {
namespace {

template <typename T>
std::string encoded(const T& v) {
  ByteWriter w;
  encode(w, v);
  return w.take();
}

/// encode → decode → encode must reproduce the original bytes, and the
/// decoder must consume the payload exactly.
template <typename T>
void expect_roundtrip(const T& v) {
  const std::string bytes = encoded(v);
  ASSERT_FALSE(bytes.empty());
  ByteReader r(bytes);
  T out;
  ASSERT_TRUE(decode(r, out));
  EXPECT_EQ(encoded(out), bytes);

  // Trailing garbage must be rejected: decoders own the whole payload.
  const std::string padded = bytes + std::string(1, '\0');
  ByteReader dirty(padded);
  T out2;
  EXPECT_FALSE(decode(dirty, out2));

  // A payload truncated anywhere must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader shortr(std::string_view(bytes).substr(0, cut));
    T out3;
    EXPECT_FALSE(decode(shortr, out3)) << "cut=" << cut;
  }
}

net::FlowKey flow(net::NodeId s, net::NodeId d) {
  net::FlowKey k;
  k.src = s;
  k.dst = d;
  k.sport = 104;
  k.dport = 204;
  return k;
}

telemetry::SwitchReport full_switch_report() {
  telemetry::SwitchReport rep;
  rep.switch_id = 17;
  rep.poll_id = 42;
  rep.time = 123456789;

  telemetry::PortReport port;
  port.port = {17, 3};
  port.poll_time = 123456000;
  port.qdepth_bytes = 65536;
  port.qdepth_pkts = 16;
  port.currently_paused = true;
  port.total_pause_time = 777;
  port.flows.push_back({flow(1, 5), 10, 40960, 100, 200});
  port.flows.push_back({flow(2, 5), 3, 12288, 150, 250});
  port.waits.push_back({flow(1, 5), flow(2, 5), 9});
  port.meters.push_back({2, 1 << 20});
  port.pauses.push_back({1000, 2000});
  port.pauses.push_back({3000, sim::kNever});
  rep.ports.push_back(port);
  telemetry::PortReport empty_port;  // empty port snapshot
  empty_port.port = {17, 0};
  rep.ports.push_back(empty_port);

  telemetry::PauseCauseReport cause;
  cause.ingress_port = {17, 1};
  cause.time = 5555;
  cause.injected = true;
  cause.contributions = {{0, 4096}, {3, 8192}};
  rep.causes.push_back(cause);

  rep.drops.push_back({flow(9, 4), {17, 2}, 7, 999});
  return rep;
}

TEST(TraceRoundtrip, Envelope) {
  TraceEnvelope env;
  env.system = RecordedSystem::kHawkeyeMinR;
  env.scenario = RecordedScenario::kPfcStorm;
  env.case_id = 12;
  env.seed = 0xDEADBEEFCAFEF00DULL;
  env.fat_tree_k = 4;
  env.plan_kind = 0;
  env.horizon = 987654321;
  env.participants = {2, 11, 9, 7};
  env.cc_step_bytes = 5898240;
  env.netcfg.cc_algorithm = net::CcAlgorithm::kSwift;
  env.netcfg.link_gbps = 25.5;
  env.netcfg.link_delay = 1234;
  env.netcfg.mtu_bytes = 1500;
  env.netcfg.pfc_xoff_bytes = 111111;
  env.netcfg.ecn_pmax = 0.125;
  env.netcfg.initial_ttl = 32;
  env.netcfg.pfc_chase_hops = 5;
  env.bg_flows.push_back({flow(10, 5), 1 << 22, 17});
  env.bg_flows.push_back({flow(14, 5), 1 << 20, 0});
  env.storms.push_back({{20, 1}, 100, 5000});
  env.expected_root = {20, 1};
  expect_roundtrip(env);
}

TEST(TraceRoundtrip, EnvelopeRejectsOutOfRangeEnums) {
  TraceEnvelope env;
  env.participants = {0, 1};
  env.cc_step_bytes = 1;
  std::string bytes = encoded(env);
  {
    // Valid as written, so the enum below is the only fault.
    ByteReader r(bytes);
    TraceEnvelope out;
    ASSERT_TRUE(decode(r, out));
  }
  // system is the first byte of the payload.
  bytes[0] = static_cast<char>(99);
  ByteReader r(bytes);
  TraceEnvelope out;
  EXPECT_FALSE(decode(r, out));
}

TEST(TraceRoundtrip, StepRecord) {
  collective::StepRecord rec;
  rec.key = flow(2, 11);
  rec.flow_index = 3;
  rec.step = 5;
  rec.bytes = 5898240;
  rec.src = 2;
  rec.dst = 11;
  rec.wait_src = 7;
  rec.dep_flow = 2;
  rec.dep_step = 4;
  rec.dep_ready_time = 1111;
  rec.prev_done_time = 2222;
  rec.start_time = 3333;
  rec.end_time = 4444;
  rec.expected_duration = 555;
  expect_roundtrip(rec);
}

TEST(TraceRoundtrip, PollRegistration) {
  PollRegistration reg;
  reg.poll_id = 0x123456789ABCULL;
  reg.flow = 6;
  reg.step = 2;
  expect_roundtrip(reg);
}

TEST(TraceRoundtrip, SwitchReport) { expect_roundtrip(full_switch_report()); }

TEST(TraceRoundtrip, PollTrigger) {
  PollTriggerRecord t;
  t.time = 424242;
  t.host = 3;
  t.flow = flow(3, 12);
  t.poll_id = 77;
  t.step = 1;
  expect_roundtrip(t);
}

TEST(TraceRoundtrip, Notification) {
  NotificationRecord n;
  n.time = 31337;
  n.from = 2;
  n.to = 9;
  n.step = 4;
  n.budget = 3;
  expect_roundtrip(n);
}

TEST(TraceRoundtrip, PauseCause) {
  PauseCauseRecord c;
  c.switch_id = 21;
  c.cause.ingress_port = {21, 2};
  c.cause.time = 8888;
  c.cause.injected = false;
  c.cause.contributions = {{1, 1024}};
  expect_roundtrip(c);
}

TEST(TraceRoundtrip, TtlDrop) {
  TtlDropRecord d;
  d.switch_id = 30;
  d.drop.flow = flow(6, 6);
  d.drop.port = {30, 3};
  d.drop.count = 12;
  d.drop.last_drop = 654321;
  expect_roundtrip(d);
}

TEST(TraceRoundtrip, Footer) {
  TraceFooter f;
  f.diagnosis_digest = 0x21E800075FE2267AULL;
  f.diagnosis_json_bytes = 4096;
  f.outcome = RecordedOutcome::kTruePositive;
  f.cc_completed = true;
  f.cc_time = 2138000;
  for (std::size_t i = 0; i < kNumRecordSlots; ++i)
    f.record_counts[i] = 100 + i;
  expect_roundtrip(f);
}

TEST(TraceRoundtrip, FileHeaderIsSelfChecking) {
  const std::string hdr = encode_file_header();
  ASSERT_EQ(hdr.size(), kFileHeaderBytes);
  EXPECT_EQ(hdr.substr(0, 4), std::string(kMagic, 4));
  // Stored CRC covers the first 8 bytes.
  const std::uint32_t stored = static_cast<std::uint8_t>(hdr[8]) |
                               (static_cast<std::uint32_t>(static_cast<std::uint8_t>(hdr[9])) << 8) |
                               (static_cast<std::uint32_t>(static_cast<std::uint8_t>(hdr[10])) << 16) |
                               (static_cast<std::uint32_t>(static_cast<std::uint8_t>(hdr[11])) << 24);
  EXPECT_EQ(stored, crc32(std::string_view(hdr).substr(0, 8)));
}

TEST(TraceRoundtrip, Crc32KnownVector) {
  // The classic check value for CRC-32/IEEE.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  // Streaming across split buffers must match the one-shot result.
  std::uint32_t st = crc32_update(kCrcInit, "1234");
  st = crc32_update(st, "56789");
  EXPECT_EQ(crc32_finish(st), 0xCBF43926U);
}

}  // namespace
}  // namespace vedr::replay
