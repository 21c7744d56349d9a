#pragma once

// The .vtrc trace wire format: a 12-byte file header followed by a stream of
// length-prefixed, CRC-32-checked frames. One trace holds everything the
// offline analyzer needs to reproduce a live diagnosis bit-for-bit — the
// scenario/ground-truth envelope, the analyzer's exact ingestion stream
// (step records, poll registrations, switch reports), informational monitor
// and switch-local events, and a footer carrying the live run's diagnosis
// digest for end-to-end verification.
//
//   file   := header frame*
//   header := magic "VTRC" | version u16 LE | flags u16 LE | crc32(bytes 0..7)
//   frame  := type u8 | payload_len u32 LE | payload | crc32(type+len+payload)
//
// Versioning rules (see DESIGN.md appendix): readers accept exactly one
// version; any layout or semantic change bumps kTraceVersion. Payloads are
// little-endian fixed-width scalars; sequences are u32-count-prefixed.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "common/tap.h"
#include "net/types.h"
#include "replay/wire.h"
#include "telemetry/records.h"

namespace vedr::replay {

inline constexpr char kMagic[4] = {'V', 'T', 'R', 'C'};
inline constexpr std::uint16_t kTraceVersion = 1;
inline constexpr std::size_t kFileHeaderBytes = 12;
inline constexpr std::size_t kFramePrefixBytes = 5;  ///< type u8 + payload_len u32
inline constexpr std::size_t kFrameCrcBytes = 4;
/// Upper bound on a single frame payload; a corrupt length field must not
/// trigger a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64U * 1024 * 1024;
/// Largest fat-tree radix a trace may name (k^3/4 = 8,192 hosts). It also
/// bounds every tool's `--k`, so every run can be recorded and replayed.
inline constexpr std::int32_t kMaxFatTreeK = 32;
inline constexpr bool valid_fat_tree_k(std::int32_t k) {
  return k >= 4 && k <= kMaxFatTreeK && k % 2 == 0;
}

enum class RecordType : std::uint8_t {
  kEnvelope = 1,
  kStepRecord = 2,
  kPollRegistration = 3,
  kSwitchReport = 4,
  kPollTrigger = 5,
  kNotification = 6,
  kPauseCause = 7,
  kTtlDrop = 8,
  kFooter = 9,
};
inline constexpr std::size_t kNumRecordSlots = 10;  ///< counts array size (index by type)

const char* to_string(RecordType t);

/// Mirrors eval::SystemKind (values asserted equal where both are visible);
/// replay cannot depend on eval without a cycle.
enum class RecordedSystem : std::uint8_t {
  kVedrfolnir = 0,
  kHawkeyeMaxR = 1,
  kHawkeyeMinR = 2,
  kFullPolling = 3,
};

/// Mirrors eval::ScenarioType.
enum class RecordedScenario : std::uint8_t {
  kFlowContention = 0,
  kIncast = 1,
  kPfcStorm = 2,
  kPfcBackpressure = 3,
};

/// First frame of every trace: enough to rebuild the topology, the
/// collective plan, and a fresh Analyzer, plus the scenario's ground truth
/// so offline tooling can score a replayed diagnosis.
struct TraceEnvelope {
  RecordedSystem system = RecordedSystem::kVedrfolnir;
  RecordedScenario scenario = RecordedScenario::kFlowContention;
  std::int32_t case_id = 0;
  std::uint64_t seed = 0;
  std::int32_t fat_tree_k = 4;
  std::uint8_t plan_kind = 0;  ///< 0 = ring all-gather (the only recorded shape today)
  sim::Tick horizon = 0;
  std::vector<net::NodeId> participants;
  std::int64_t cc_step_bytes = 0;
  net::NetConfig netcfg;
  std::vector<anomaly::InjectedFlow> bg_flows;   ///< ground truth
  std::vector<anomaly::StormSpec> storms;        ///< ground truth
  net::PortRef expected_root;
};

enum class RecordedOutcome : std::uint8_t { kFalseNegative = 0, kFalsePositive = 1, kTruePositive = 2 };

/// Last frame: the live run's diagnosis fingerprint and per-type frame
/// counts, so `vedr_replay --verify-digest` can prove the offline path
/// reproduces the online one and the reader can detect a frame-granular
/// truncation that leaves every remaining frame intact.
struct TraceFooter {
  std::uint64_t diagnosis_digest = 0;     ///< common::Digest over the live diagnosis JSON
  std::uint64_t diagnosis_json_bytes = 0;
  RecordedOutcome outcome = RecordedOutcome::kFalseNegative;
  bool cc_completed = false;
  sim::Tick cc_time = 0;
  std::uint64_t record_counts[kNumRecordSlots] = {};  ///< frames written before the footer
};

// The monitor and switch-local records are defined once, next to the tap
// interfaces that carry them (common/tap.h); the trace names them here.
using core::NotificationRecord;
using core::PollRegistration;
using core::PollTriggerRecord;
using telemetry::PauseCauseRecord;
using telemetry::TtlDropRecord;

/// One decoded frame.
struct TraceRecord {
  RecordType type = RecordType::kEnvelope;
  std::variant<std::monostate, TraceEnvelope, collective::StepRecord, PollRegistration,
               telemetry::SwitchReport, PollTriggerRecord, NotificationRecord, PauseCauseRecord,
               TtlDropRecord, TraceFooter>
      payload;
};

// --- payload codec (exposed for the round-trip tests) -----------------------
//
// Each payload's field list is written once (trace_format.cpp), and the
// encoder, the decoder and the per-element minimum sizes the decoder checks
// counts against are all derived from it.

void encode(ByteWriter& w, const TraceEnvelope& v);
void encode(ByteWriter& w, const collective::StepRecord& v);
void encode(ByteWriter& w, const PollRegistration& v);
void encode(ByteWriter& w, const telemetry::SwitchReport& v);
void encode(ByteWriter& w, const PollTriggerRecord& v);
void encode(ByteWriter& w, const NotificationRecord& v);
void encode(ByteWriter& w, const PauseCauseRecord& v);
void encode(ByteWriter& w, const TtlDropRecord& v);
void encode(ByteWriter& w, const TraceFooter& v);

/// Decoders return false on malformed payloads (short buffer, trailing
/// garbage, out-of-range enum, an envelope whose fabric or plan cannot be
/// built); the reader maps that to a typed kBadRecord. A decoder overwrites
/// every field of `v`, resetting the ones the wire does not carry
/// (SwitchReport::backend, PortReport::truncated, the NetConfig telemetry
/// knobs), so a value can be decoded into again and keeps its vectors'
/// storage.
bool decode(ByteReader& r, TraceEnvelope& v);
bool decode(ByteReader& r, collective::StepRecord& v);
bool decode(ByteReader& r, PollRegistration& v);
bool decode(ByteReader& r, telemetry::SwitchReport& v);
bool decode(ByteReader& r, PollTriggerRecord& v);
bool decode(ByteReader& r, NotificationRecord& v);
bool decode(ByteReader& r, PauseCauseRecord& v);
bool decode(ByteReader& r, TtlDropRecord& v);
bool decode(ByteReader& r, TraceFooter& v);

/// The 12-byte file header for `version`.
std::string encode_file_header(std::uint16_t version = kTraceVersion);

}  // namespace vedr::replay
