#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <type_traits>
#include <variant>
#include <vector>

#include "calibrate.h"
#include "common/digest.h"
#include "core/json_export.h"
#include "eval/experiment.h"
#include "metrics.h"
#include "net/routing.h"
#include "obs/metrics.h"
#include "replay/collector.h"
#include "replay/trace_format.h"
#include "replay/trace_reader.h"
#include "serve/server.h"
#include "serve/verdict.h"
#include "sim/shard_report.h"
#include "spans.h"

namespace pipebench {
namespace {

using namespace vedr;

// The golden corpus' shape: its traces were recorded at this scale on this
// fabric, so seed 0 must reproduce them byte for byte.
constexpr double kCorpusScale = 1.0 / 256.0;
constexpr int kFatTreeK = 4;

struct Scenario {
  const char* name;
  eval::ScenarioType type;
};
constexpr Scenario kScenarios[] = {
    {"contention", eval::ScenarioType::kFlowContention},
    {"incast", eval::ScenarioType::kIncast},
    {"storm", eval::ScenarioType::kPfcStorm},
    {"backpressure", eval::ScenarioType::kPfcBackpressure},
};

// Each scenario runs kCasesPerScenario cases. The first kFixedCases ids are
// the same under every seed; case 0 is the golden corpus' case, so every run
// checks it byte for byte. The seed draws the rest: seed s runs ids
// kFixedCases + s*kSeedCases onwards, so seed 0 runs ids 0..3. Trace
// composition varies by case id (one seed's traces replayed 20% slower than
// another's), and the fixed half keeps that from swamping the changes the
// benchmark compares, while the drawn half still gives every seed inputs of
// its own.
constexpr int kCasesPerScenario = 4;
constexpr int kFixedCases = 2;
constexpr int kSeedCases = kCasesPerScenario - kFixedCases;

int case_id(std::uint64_t seed, int j) {
  if (j < kFixedCases) return j;
  return kFixedCases + static_cast<int>(seed % (INT32_MAX / kSeedCases - 1)) * kSeedCases +
         (j - kFixedCases);
}

// Work sizing. A run does a fixed amount of work derived from --seconds, so
// counts and memory do not depend on how fast the code is. These are the
// seconds one round (every case once) takes on the reference machine
// (4 vCPU Xeon at 2.0 GHz, GCC 12.2, Release); a workload's own stage gets
// kHomeShare of the run and each of the other two stages kSideShare, but
// never fewer than kMinRounds rounds, so each case's median time has at
// least three samples.
//
// A replay round is kReplayBlock passes over the 16 traces, so that a
// round, like the other stages' rounds, lasts long enough to be bracketed
// by calibration samples (about 35 ms each) at little cost.
constexpr int kReplayBlock = 8;
constexpr std::size_t kSimulateChunk = 4;  // ~0.6 s of run_case calls
constexpr double kSimulateRoundS = 2.4;   // 16 run_case calls
constexpr double kReplayRoundS = 0.46;    // 8 x 16 trace replays
constexpr double kServeRoundS = 0.65;     // 8 tenants x 16 sessions
constexpr double kHomeShare = 0.5;
constexpr double kSideShare = 0.25;
constexpr int kMinRounds = 3;
constexpr int kSetupPasses = 3;           // setup_s is their median

// Traced runs pair each untraced unit of work with a traced one, the order
// alternating from pair to pair, and report the median traced/untraced
// ratio: every case kTracedSimulateRounds times, every trace
// kTracedReplayRounds times, and kTracedServePairs pairs of whole serve
// rounds (serve sessions overlap, so only a round has a wall time of its
// own). A traced serve round records ~270K spans, so the serve pairs are
// few. Run_case calls and serve rounds are each bracketed by calibration
// samples; a replay (~3 ms) is too short for that.
constexpr int kTracedSimulateRounds = 2;
constexpr int kTracedReplayRounds = 4;
constexpr int kTracedServePairs = 3;
constexpr int kAnalyzerReps = 3;
constexpr int kEncodeReps = 5;

// serve: tenant slots, each streaming every case's trace back to back.
constexpr int kServeTenants = 8;

int rounds_for(int seconds, double share, double round_s) {
  return std::max(kMinRounds, static_cast<int>(std::lround(seconds * share / round_s)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

struct CpuTime {
  double user_s = 0;
  double sys_s = 0;
};

CpuTime cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// A directory for the recorded traces, removed when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string tmpl = parent + "/tmp-XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- set-up ------------------------------------------------------------------

struct Trace {
  std::string path;
  std::uint64_t file_digest = 0;
  std::vector<replay::TraceRecord> records;  ///< pre-decoded
  std::vector<std::string> payloads;         ///< each record's encoded payload, for serve
  std::vector<std::uint64_t> offsets;        ///< frame offset of each record
  std::uint64_t bytes = 0;
  replay::TraceFooter footer;
  int steps = 0;                         ///< step verdicts a serve session emits
  std::vector<std::vector<int>> closes;  ///< per record: the steps its offer closes
};

struct Case {
  const Scenario* scenario = nullptr;
  eval::ScenarioSpec spec;
  std::string diagnosis_json;  ///< reference: the diagnosis recorded at set-up
  std::uint64_t sim_events = 0;
  Trace trace;
};

bool predecode(Trace& t, std::string& error) {
  replay::TraceReader reader(t.path);
  std::vector<int> steps;
  std::size_t footer = 0;
  bool have_footer = false;
  replay::TraceStatus status = replay::TraceStatus::kOk;
  for (;;) {
    const std::uint64_t offset = reader.bytes_read();
    replay::TraceRecord rec;
    status = reader.next(rec);
    if (status != replay::TraceStatus::kOk) break;
    steps.push_back(rec.type == replay::RecordType::kStepRecord
                        ? std::get<collective::StepRecord>(rec.payload).step
                        : -1);
    if (rec.type == replay::RecordType::kFooter) {
      footer = t.records.size();
      have_footer = true;
      t.footer = std::get<replay::TraceFooter>(rec.payload);
    }
    replay::ByteWriter w;
    std::visit(
        [&w](const auto& payload) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(payload)>, std::monostate>)
            replay::encode(w, payload);
        },
        rec.payload);
    t.payloads.push_back(w.take());
    t.records.push_back(std::move(rec));
    t.offsets.push_back(offset);
  }
  if (status != replay::TraceStatus::kEof || !have_footer) {
    error = t.path + ": " + reader.error().str();
    return false;
  }
  t.bytes = reader.bytes_read();
  const std::vector<std::size_t> closing = closing_records(steps, footer);
  t.steps = static_cast<int>(closing.size());
  t.closes.assign(t.records.size(), {});
  for (std::size_t s = 0; s < closing.size(); ++s)
    t.closes[closing[s]].push_back(static_cast<int>(s));
  return true;
}

/// Records one case (the recording run's diagnosis is the reference every
/// later run is checked against) and pre-decodes its trace.
bool record(Case& c, SpanLog& log, std::string& error) {
  const std::uint64_t group = log.new_group();
  eval::CaseResult live;
  std::string record_error;
  {
    ScopedSpan span(log, "sim.record_case", group);
    live = eval::record_case(c.spec, eval::SystemKind::kVedrfolnir, eval::RunConfig{},
                             c.trace.path, &record_error);
  }
  if (!record_error.empty()) {
    error = "recording " + c.trace.path + ": " + record_error;
    return false;
  }
  c.diagnosis_json = core::json::diagnosis_to_json(live.diagnosis);
  c.sim_events = live.sim_events;
  {
    ScopedSpan span(log, "replay.predecode", group);
    if (!predecode(c.trace, error)) return false;
  }
  c.trace.file_digest = common::Digest().mix(std::string_view(read_file(c.trace.path))).value();
  return true;
}

/// Generates and records the seed's cases.
bool set_up(std::uint64_t seed, const std::string& dir, SpanLog& log, std::vector<Case>& cases,
            std::string& error) {
  ScopedSpan frame(log, "bench.setup");
  cases.clear();
  eval::RunConfig cfg;
  eval::ScenarioParams params;
  params.scale = kCorpusScale;
  const net::Topology topo = net::make_fat_tree(kFatTreeK, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  for (int j = 0; j < kCasesPerScenario; ++j) {
    for (const Scenario& sc : kScenarios) {
      Case c;
      c.scenario = &sc;
      c.spec = eval::make_scenario(sc.type, case_id(seed, j), topo, routing, params);
      c.trace.path = dir + "/" + sc.name + "-" + std::to_string(c.spec.case_id) + ".vtrc";
      if (!record(c, log, error)) return false;
      cases.push_back(std::move(c));
    }
  }
  return true;
}

/// Case 0 of each scenario is the golden corpus' case: its recorded trace
/// and diagnosis must equal the stored ones byte for byte. Returns the
/// mismatches.
int check_corpus(const std::vector<Case>& cases, const std::string& corpus_dir) {
  int mismatches = 0;
  for (const Case& c : cases) {
    if (c.spec.case_id != 0) continue;
    const std::string base = corpus_dir + "/" + c.scenario->name;
    const std::string expected_json = read_file(base + ".expected.json");
    if (expected_json.empty() || c.diagnosis_json != expected_json) {
      std::fprintf(stderr, "check: %s diagnosis differs from %s.expected.json\n",
                   c.scenario->name, base.c_str());
      ++mismatches;
    }
    const std::string expected_trace = read_file(base + ".vtrc");
    if (expected_trace.empty() || read_file(c.trace.path) != expected_trace) {
      std::fprintf(stderr, "check: %s recorded trace differs from %s.vtrc\n", c.scenario->name,
                   base.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

// --- simulate ----------------------------------------------------------------

struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::int64_t pause_frames = 0;
  std::int64_t drops = 0;
  std::int64_t state_bytes_max = 0;
  std::int64_t collected_bytes = 0;
  std::int64_t bandwidth_bytes = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One run_case of `c`, its diagnosis checked against the set-up
/// reference. Returns the run_case time in ns; `counts` (traced runs)
/// collects the layer counters, which needs `cfg.capture_metrics`.
double simulate_case(const Case& c, const eval::RunConfig& cfg, SpanLog& log, Tally& tally,
                     SimCounts* counts) {
  const std::uint64_t group = log.new_group();
  ScopedSpan frame(log, "bench.simulate_case", group);
  eval::CaseResult r;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(log, "sim.run_case", group);
    r = eval::run_case(c.spec, eval::SystemKind::kVedrfolnir, cfg);
  }
  const auto ns = static_cast<double>(now_ns() - t0);
  ++tally.attempted;
  if (r.sim_events != c.sim_events ||
      core::json::diagnosis_to_json(r.diagnosis) != c.diagnosis_json) {
    ++tally.failed;
    std::fprintf(stderr, "check: simulate %s diagnosis differs from the set-up reference\n",
                 c.scenario->name);
  }
  if (counts != nullptr) {
    counts->events += r.sim_events;
    counts->packets += r.packets_delivered;
    if (r.metrics != nullptr) {
      const auto& ctr = r.metrics->counters;
      const auto get = [&ctr](const char* name) {
        const auto it = ctr.find(name);
        return it == ctr.end() ? std::int64_t{0} : it->second;
      };
      counts->pause_frames += get("pfc.pause_frames");
      counts->drops += get("switch.drops");
    }
    counts->state_bytes_max = std::max(counts->state_bytes_max, r.telemetry_state_bytes);
    counts->collected_bytes += r.telemetry_bytes;
    counts->bandwidth_bytes += r.bandwidth_bytes;
  }
  return ns;
}

// --- replay ------------------------------------------------------------------

struct ReplayCounts {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// Decodes one trace through TraceReader into a fresh StreamingCollector,
/// one frame at a time, and finalizes; the verdict must match the trace
/// footer's digest and the set-up reference. Returns the replay time in ns.
double replay_trace(const Case& c, SpanLog& log, Tally& tally, ReplayCounts& counts) {
  const std::uint64_t group = log.new_group();
  ScopedSpan frame(log, "bench.replay_trace", group);
  const std::int64_t t0 = now_ns();
  std::unique_ptr<replay::TraceReader> reader;
  {
    ScopedSpan span(log, "replay.open", group);
    reader = std::make_unique<replay::TraceReader>(c.trace.path);
  }
  replay::StreamingCollector collector;
  replay::TraceRecord rec;
  replay::TraceStatus status = replay::TraceStatus::kOk;
  for (;;) {
    const std::uint64_t offset = reader->bytes_read();
    {
      ScopedSpan span(log, "replay.decode", group);
      status = reader->next(rec);
    }
    if (status != replay::TraceStatus::kOk) break;
    ScopedSpan span(log, "core.ingest", group);
    collector.ingest(rec, offset);
  }
  const replay::TraceError end =
      status == replay::TraceStatus::kEof ? replay::TraceError{} : reader->error();
  replay::ReplayResult result;
  {
    ScopedSpan span(log, "core.diagnose", group);
    result = collector.finalize(end, reader->bytes_read());
  }
  const auto ns = static_cast<double>(now_ns() - t0);
  counts.frames += result.stats.frames;
  counts.bytes += result.stats.bytes;
  ++tally.attempted;
  if (!result.ok || !result.digest_matches || result.diagnosis_json != c.diagnosis_json) {
    ++tally.failed;
    std::fprintf(stderr, "check: replay of %s did not reproduce its footer digest\n",
                 c.scenario->name);
  }
  return ns;
}

/// One untraced replay round: every case's trace kReplayBlock times;
/// `trace_ns[i]` collects trace i's replay times.
void replay_round(const std::vector<Case>& cases, Tally& tally,
                  std::vector<std::vector<double>>& trace_ns) {
  SpanLog off(false);
  ReplayCounts counts;
  for (int pass = 0; pass < kReplayBlock; ++pass)
    for (std::size_t i = 0; i < cases.size(); ++i)
      trace_ns[i].push_back(replay_trace(cases[i], off, tally, counts));
}

// --- serve -------------------------------------------------------------------

/// The benchmark's verdict sink: counts verdicts, records which sessions
/// sent their final verdict and wakes the generator on each, and (when
/// lags are recorded) stamps each step verdict with its arrival time.
///
/// A session emits its final verdict before its state turns kFinished, so
/// the generator frees a tenant slot on the final verdict seen here, not on
/// Session::state().
class BenchSink : public serve::VerdictSink {
 public:
  explicit BenchSink(bool record_lags) : record_lags_(record_lags) {}

  void on_verdict(const std::string& line) override {
    const std::int64_t t = now_ns();
    const bool final = line.rfind("{\"type\":\"final\"", 0) == 0;
    StepVerdict v;
    v.session = field(line, "\"session\":");
    if (!final) v.step = static_cast<int>(field(line, ",\"step\":"));
    v.recv_ns = t;
    std::lock_guard<std::mutex> lock(mu_);
    ++verdicts_;
    if (final) {
      finished_.insert(v.session);
      cv_.notify_all();
    } else if (record_lags_) {
      steps_.push_back(v);
    }
  }

  std::uint64_t finals() {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_.size();
  }
  bool has_final(std::uint64_t session) {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_.count(session) != 0;
  }
  void wait_finals_above(std::uint64_t seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return finished_.size() > seen; });
  }
  std::uint64_t verdicts() {
    std::lock_guard<std::mutex> lock(mu_);
    return verdicts_;
  }
  std::vector<StepVerdict> take_steps() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(steps_);
  }

 private:
  /// The unsigned number after the first occurrence of `key`.
  static std::uint64_t field(const std::string& line, const char* key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? 0 : std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
  }

  const bool record_lags_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t verdicts_ = 0;
  std::set<std::uint64_t> finished_;
  std::vector<StepVerdict> steps_;
};

struct ServeRound {
  double seconds = 0;
  std::uint64_t records = 0;
  std::uint64_t verdicts = 0;
  CpuTime cpu;
  double rss_kb_per_session = 0;
  // Filled when `detail` is set.
  std::vector<double> lags_us;
  std::size_t unmatched_lags = 0;
  obs::Histogram step_diagnose_ns;
  std::int64_t queue_high_watermark = 0;
};

/// Decodes `bytes` with the public payload codec into a record of
/// `like`'s type. False when the payload does not decode.
bool decode_payload(const replay::TraceRecord& like, std::string_view bytes,
                    replay::TraceRecord& out) {
  out.type = like.type;
  return std::visit(
      [&](const auto& proto) {
        using T = std::decay_t<decltype(proto)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return false;
        } else {
          T value;
          replay::ByteReader r(bytes);
          if (!replay::decode(r, value)) return false;
          out.payload = std::move(value);
          return true;
        }
      },
      like.payload);
}

/// Offers every record of `t` to session `sid`, each decoded from its
/// encoded payload as the tail transport would decode it (minus file reads
/// and framing). `offers` (when set) receives the offer time of each record
/// that closes a step. False when a payload did not decode or the server
/// refused an offer.
bool feed_session(serve::Server& server, std::uint64_t sid, const Trace& t, SpanLog& log,
                  std::vector<std::int64_t>* offers) {
  bool ok = true;
  for (std::size_t r = 0; r < t.records.size(); ++r) {
    replay::TraceRecord rec;
    {
      ScopedSpan span(log, "replay.decode_payload", sid);
      ok = decode_payload(t.records[r], t.payloads[r], rec) && ok;
    }
    const std::int64_t offered_at = offers != nullptr && !t.closes[r].empty() ? now_ns() : 0;
    bool accepted = false;
    {
      ScopedSpan span(log, "serve.offer", sid);
      accepted = server.offer(sid, std::move(rec), t.offsets[r]);
    }
    ok = ok && accepted;
    if (offered_at != 0)
      for (const int s : t.closes[r]) (*offers)[static_cast<std::size_t>(s)] = offered_at;
  }
  return ok;
}

/// One serve round: a fresh in-process server (one shard worker, blocking
/// overflow) fed by this thread. Each tenant slot streams every case's trace
/// back to back, one session per trace, opening its next session only
/// after the previous one emitted its final verdict. The clock runs from
/// the first offer until the last final verdict.
ServeRound serve_round(const std::vector<Case>& cases, SpanLog& log, Tally& tally, bool detail) {
  serve::ServerConfig cfg;
  cfg.shards = 1;
  cfg.session.policy = serve::OverflowPolicy::kBlock;
  BenchSink sink(detail);
  serve::Server server(cfg, &sink);

  struct Slot {
    std::size_t next = 0;
    std::uint64_t sid = 0;
  };
  struct Fed {
    std::uint64_t sid = 0;
    const Case* c = nullptr;
    bool ok = false;  ///< every offer accepted
  };
  std::vector<Slot> slots(kServeTenants);
  std::vector<Fed> sessions;
  std::map<std::uint64_t, std::vector<std::int64_t>> offer_ns;

  ServeRound round;
  const double rss0 = current_rss_kb();
  const CpuTime cpu0 = cpu_now();
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan frame(log, "bench.serve_round");
    for (;;) {
      const std::uint64_t seen = sink.finals();
      bool busy = false;
      bool started = false;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.sid != 0 && !sink.has_final(slot.sid)) {
          busy = true;
          continue;
        }
        if (slot.next == cases.size()) continue;
        const Case& c = cases[slot.next++];
        const Trace& t = c.trace;
        {
          ScopedSpan span(log, "serve.open_session");
          slot.sid = server.open_session("tenant-" + std::to_string(i));
        }
        std::vector<std::int64_t>* offers = nullptr;
        if (detail) {
          offers = &offer_ns[slot.sid];
          offers->assign(static_cast<std::size_t>(t.steps), 0);
        }
        sessions.push_back({slot.sid, &c, feed_session(server, slot.sid, t, log, offers)});
        round.records += t.records.size();
        {
          ScopedSpan span(log, "serve.close_session", slot.sid);
          server.close_session(slot.sid, replay::TraceError{}, t.bytes);
        }
        busy = true;
        started = true;
      }
      if (!busy) break;
      if (!started) {
        ScopedSpan span(log, "serve.gen_wait");
        sink.wait_finals_above(seen);
      }
    }
  }
  round.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  const CpuTime cpu1 = cpu_now();
  round.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  round.rss_kb_per_session = (current_rss_kb() - rss0) / static_cast<double>(sessions.size());
  round.verdicts = sink.verdicts();
  server.wait_all_finished();  // every final verdict is in; let the states settle

  std::uint64_t expected_verdicts = 0;
  for (const Fed& fed : sessions) {
    const serve::Session* s = server.find_session(fed.sid);
    const auto want = static_cast<std::uint64_t>(fed.c->trace.steps) + 1;
    expected_verdicts += want;
    ++tally.attempted;
    if (!fed.ok || s == nullptr || s->state() != serve::SessionState::kFinished ||
        !s->digest_matched() || s->queue_stats().dropped != 0 || s->verdicts_emitted() != want) {
      ++tally.failed;
      std::fprintf(stderr, "check: serve session %llu (%s) did not finish cleanly\n",
                   static_cast<unsigned long long>(fed.sid), fed.c->scenario->name);
    }
  }
  if (round.verdicts != expected_verdicts) {
    ++tally.failed;
    std::fprintf(stderr, "check: serve sink saw %llu verdicts, expected %llu\n",
                 static_cast<unsigned long long>(round.verdicts),
                 static_cast<unsigned long long>(expected_verdicts));
  }
  if (detail) {
    round.lags_us = verdict_lags_us(offer_ns, sink.take_steps(), &round.unmatched_lags);
    const obs::MetricsSnapshot snap = server.metrics_snapshot();
    const auto hist = snap.hists.find("serve.step_diagnose_ns");
    if (hist != snap.hists.end()) round.step_diagnose_ns = hist->second;
    const auto hw = snap.counters.find("serve.queue_high_watermark");
    if (hw != snap.counters.end()) round.queue_high_watermark = hw->second;
  }
  server.shutdown();
  return round;
}

// --- traced-run extras -------------------------------------------------------

struct ShardedCounts {
  std::uint64_t windows = 0;
  std::uint64_t idle_gap_jumps = 0;
  std::int64_t events_per_window_p50 = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t spills = 0;
  double domain_skew = 0;
};

/// Runs each case once more on the sharded engine (2 workers) for its
/// deterministic counts; its wall clock is not reported.
ShardedCounts sharded_counts(const std::vector<Case>& cases, SpanLog& log) {
  ScopedSpan frame(log, "bench.sharded");
  eval::RunConfig cfg;
  cfg.shards = 2;
  cfg.capture_shard_report = true;
  ShardedCounts out;
  obs::Histogram per_window;
  std::vector<std::uint64_t> domain_events;
  for (const Case& c : cases) {
    eval::CaseResult r;
    {
      ScopedSpan span(log, "sim.run_case_sharded", log.new_group());
      r = eval::run_case(c.spec, eval::SystemKind::kVedrfolnir, cfg);
    }
    if (r.shard_report == nullptr) continue;
    const sim::ShardReport& rep = *r.shard_report;
    out.windows += rep.windows;
    out.idle_gap_jumps += rep.idle_gap_jumps;
    out.spills += rep.total_spills();
    for (const auto& lane : rep.lanes) out.handoffs += lane.pushed;
    if (domain_events.size() < rep.domains.size()) domain_events.resize(rep.domains.size());
    for (std::size_t d = 0; d < rep.domains.size(); ++d) {
      domain_events[d] += rep.domains[d].events;
      per_window.merge(rep.domains[d].events_per_window);
    }
  }
  out.events_per_window_p50 = per_window.value_at_quantile(0.5);
  if (!domain_events.empty()) {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (const std::uint64_t e : domain_events) {
      sum += e;
      max = std::max(max, e);
    }
    const double mean = static_cast<double>(sum) / static_cast<double>(domain_events.size());
    out.domain_skew = mean > 0 ? static_cast<double>(max) / mean : 0;
  }
  return out;
}

/// Median time to ingest and diagnose each case's pre-decoded trace, the
/// analyzer's share of a run_case.
std::vector<double> analyzer_ns(const std::vector<Case>& cases, SpanLog& log) {
  ScopedSpan frame(log, "bench.analyzer");
  std::vector<double> out;
  for (const Case& c : cases) {
    std::vector<double> reps;
    for (int rep = 0; rep < kAnalyzerReps; ++rep) {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(log, "core.analyzer_replay", log.new_group());
        replay::StreamingCollector collector;
        for (std::size_t r = 0; r < c.trace.records.size(); ++r)
          collector.ingest(c.trace.records[r], c.trace.offsets[r]);
        collector.finalize(replay::TraceError{}, c.trace.bytes);
      }
      reps.push_back(static_cast<double>(now_ns() - t0));
    }
    out.push_back(median(reps));
  }
  return out;
}

/// Re-encodes every decoded frame payload with the public codec.
double encode_mb_per_s(const std::vector<Case>& cases, SpanLog& log) {
  ScopedSpan frame(log, "bench.encode");
  std::uint64_t bytes = 0;
  std::int64_t ns = 0;
  for (int rep = 0; rep < kEncodeReps; ++rep) {
    for (const Case& c : cases) {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(log, "replay.encode", log.new_group());
        for (const replay::TraceRecord& rec : c.trace.records) {
          replay::ByteWriter w;
          std::visit(
              [&w](const auto& payload) {
                if constexpr (!std::is_same_v<std::decay_t<decltype(payload)>, std::monostate>)
                  replay::encode(w, payload);
              },
              rec.payload);
          bytes += w.data().size();
        }
      }
      ns += now_ns() - t0;
    }
  }
  return ns > 0 ? static_cast<double>(bytes) / 1e6 / (static_cast<double>(ns) * 1e-9) : 0;
}

// --- the run -----------------------------------------------------------------

double rate(double work, double seconds) { return seconds > 0 ? work / seconds : 0; }

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::uint64_t frames_per_round(const std::vector<Case>& cases) {
  std::uint64_t n = 0;
  for (const Case& c : cases) n += c.trace.records.size();
  return n;
}

std::uint64_t footer_count(const std::vector<Case>& cases, replay::RecordType type) {
  std::uint64_t n = 0;
  for (const Case& c : cases) n += c.trace.footer.record_counts[static_cast<std::size_t>(type)];
  return n;
}

/// The wall time of a typical round: the sum over cases of each case's
/// median time across rounds. A slow stretch of the shared host that hits
/// some cases of some rounds moves it less than it moves a round total.
double typical_round_s(const std::vector<std::vector<double>>& per_case_ns) {
  double ns = 0;
  for (const std::vector<double>& v : per_case_ns) ns += median(v);
  return ns * 1e-9;
}

/// One stage's untraced rounds and the samples its rate is taken from.
struct StageRun {
  Workload stage = Workload::kSimulate;
  std::vector<std::vector<double>> per_case_ns;  ///< simulate, replay
  std::vector<double> round_rates;               ///< serve

  /// Runs one round and scales its samples to the reference machine's
  /// speed by the calibration samples around them.
  void run_round(const std::vector<Case>& cases, Tally& tally, HostSpeed& host) {
    SpanLog off(false);
    switch (stage) {
      case Workload::kSimulate:
        // A whole round lasts long enough for the host's speed to change
        // within it, so every kSimulateChunk cases are bracketed apart.
        for (std::size_t first = 0; first < cases.size(); first += kSimulateChunk) {
          const std::size_t end = std::min(cases.size(), first + kSimulateChunk);
          std::vector<double> ns;
          for (std::size_t i = first; i < end; ++i)
            ns.push_back(simulate_case(cases[i], eval::RunConfig{}, off, tally, nullptr));
          const double slowdown = host.bracket();
          for (std::size_t i = first; i < end; ++i) per_case_ns[i].push_back(ns[i - first] / slowdown);
        }
        break;
      case Workload::kReplay: {
        std::vector<std::vector<double>> ns(cases.size());
        replay_round(cases, tally, ns);
        const double slowdown = host.bracket();
        for (std::size_t i = 0; i < cases.size(); ++i)
          for (const double x : ns[i]) per_case_ns[i].push_back(x / slowdown);
        break;
      }
      case Workload::kServe: {
        const ServeRound r = serve_round(cases, off, tally, false);
        round_rates.push_back(rate(static_cast<double>(r.records), r.seconds) * host.bracket());
        break;
      }
    }
  }

  /// cases/s (simulate), records/s (replay, serve) at the reference
  /// machine's speed. Serve sessions overlap, so a serve round is timed
  /// whole and its rate is the median over rounds.
  double rate_of(const std::vector<Case>& cases) const {
    switch (stage) {
      case Workload::kSimulate:
        return rate(static_cast<double>(cases.size()), typical_round_s(per_case_ns));
      case Workload::kReplay:
        return rate(static_cast<double>(frames_per_round(cases)),
                    typical_round_s(per_case_ns));
      case Workload::kServe:
        return median(round_rates);
    }
    return 0;
  }

  const char* metric() const {
    switch (stage) {
      case Workload::kSimulate: return "cases_per_s";
      case Workload::kReplay: return "replay_records_per_s";
      case Workload::kServe: return "serve_records_per_s";
    }
    return "";
  }
};

double stage_round_s(Workload w) {
  switch (w) {
    case Workload::kSimulate: return kSimulateRoundS;
    case Workload::kReplay: return kReplayRoundS;
    case Workload::kServe: return kServeRoundS;
  }
  return 1;
}

std::vector<Workload> stage_order(Workload home) {
  std::vector<Workload> order = {home};
  for (const Workload w : {Workload::kSimulate, Workload::kReplay, Workload::kServe})
    if (w != home) order.push_back(w);
  return order;
}

/// Runs the three stages one after another, each round bracketed by
/// calibration samples. A serve round retains ~0.35 MB per session, far
/// more memory than the other stages use, so serve runs last, and unless it
/// is the workload's own stage, peak_rss_mb is read before it.
void untraced_run(const Options& opt, const std::vector<Case>& cases, Tally& tally,
                  Report& report) {
  HostSpeed host;
  for (const Workload stage : {Workload::kSimulate, Workload::kReplay, Workload::kServe}) {
    const bool home = stage == opt.workload;
    if (stage == Workload::kServe && !home) report.metrics["peak_rss_mb"] = peak_rss_mb();
    StageRun run;
    run.stage = stage;
    run.per_case_ns.resize(cases.size());
    const int rounds = rounds_for(opt.seconds, home ? kHomeShare : kSideShare, stage_round_s(stage));
    for (int r = 0; r < rounds; ++r) run.run_round(cases, tally, host);
    report.metrics[run.metric()] = run.rate_of(cases);
  }
  if (opt.workload == Workload::kServe) report.metrics["peak_rss_mb"] = peak_rss_mb();
  std::fprintf(stderr, "host slowdown: median %.4f over %zu calibration samples\n",
               host.median_slowdown(), host.samples());
}

void traced_run(const Options& opt, const std::vector<Case>& cases, SpanLog& log, Tally& tally,
                Report& report) {
  SpanLog off(false);
  auto& m = report.metrics;
  // The home stage's traced/untraced time ratio, one per pair.
  std::vector<double> overhead;
  auto pair_ratio = [&](Workload stage, double untraced, double traced) {
    if (stage == opt.workload && untraced > 0) overhead.push_back(traced / untraced);
  };

  std::vector<double> case_ns(cases.size());
  SimCounts sim;
  ReplayCounts replay_counts;
  std::vector<double> lags_us;
  std::size_t unmatched_lags = 0;
  obs::Histogram step_diagnose;
  std::int64_t high_watermark = 0;
  CpuTime serve_cpu;
  std::uint64_t serve_records = 0;
  std::uint64_t serve_verdicts = 0;
  double rss_kb_per_session = 0;

  HostSpeed host;
  for (const Workload stage : stage_order(opt.workload)) {
    switch (stage) {
      case Workload::kSimulate: {
        // Both sides capture metrics, so the pair differs only in tracing.
        // The layer counts come from the first round's traced calls.
        eval::RunConfig cfg;
        cfg.capture_metrics = true;
        for (int round = 0; round < kTracedSimulateRounds; ++round) {
          for (std::size_t i = 0; i < cases.size(); ++i) {
            double ns[2] = {0, 0};  // untraced, traced
            for (const bool traced : {(i + round) % 2 == 1, (i + round) % 2 == 0}) {
              ns[traced] = simulate_case(cases[i], cfg, traced ? log : off, tally,
                                         traced && round == 0 ? &sim : nullptr);
              if (!traced && round == 0) case_ns[i] = ns[0];
              ns[traced] /= host.bracket();
            }
            pair_ratio(stage, ns[0], ns[1]);
          }
        }
        break;
      }
      case Workload::kReplay:
        for (int round = 0; round < kTracedReplayRounds; ++round) {
          for (std::size_t i = 0; i < cases.size(); ++i) {
            double ns[2] = {0, 0};
            ReplayCounts untraced_counts;
            for (const bool traced : {(i + round) % 2 == 1, (i + round) % 2 == 0})
              ns[traced] = replay_trace(cases[i], traced ? log : off, tally,
                                        traced ? replay_counts : untraced_counts);
            pair_ratio(stage, ns[0], ns[1]);
          }
        }
        break;
      case Workload::kServe:
        // The first serve round of a process runs on a cold heap and is
        // slower than the rest, so an untimed one goes first. Only it shows
        // the memory a session takes from the system; later rounds reuse
        // the heap it grew.
        rss_kb_per_session = serve_round(cases, off, tally, false).rss_kb_per_session;
        for (int pair = 0; pair < kTracedServePairs; ++pair) {
          double seconds[2] = {0, 0};
          for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
            const ServeRound r = serve_round(cases, traced ? log : off, tally, true);
            seconds[traced] = r.seconds / host.bracket();
            lags_us.insert(lags_us.end(), r.lags_us.begin(), r.lags_us.end());
            unmatched_lags += r.unmatched_lags;
            step_diagnose.merge(r.step_diagnose_ns);
            high_watermark = std::max(high_watermark, r.queue_high_watermark);
            serve_verdicts = r.verdicts;
            if (!traced) {
              // CPU cost per record is taken from the untraced rounds.
              serve_cpu.user_s += r.cpu.user_s;
              serve_cpu.sys_s += r.cpu.sys_s;
              serve_records += r.records;
            }
          }
          pair_ratio(stage, seconds[0], seconds[1]);
        }
        break;
    }
  }
  const ShardedCounts sharded = sharded_counts(cases, log);
  const std::vector<double> analyzer = analyzer_ns(cases, log);
  m["replay.encode_mb_per_s"] = encode_mb_per_s(cases, log);

  const SpanTotals t = totals(log.spans());
  const auto self_of = [&t](const char* name) {
    const auto it = t.self_by_name.find(name);
    return it == t.self_by_name.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto total_of = [&t](const char* name) {
    const auto it = t.total_by_name.find(name);
    return it == t.total_by_name.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto count_of = [&t](const char* name) {
    const auto it = t.count_by_name.find(name);
    return it == t.count_by_name.end() ? 0.0 : static_cast<double>(it->second);
  };

  // sim / net / telemetry (one traced run_case of every case)
  m["sim.events"] = static_cast<double>(sim.events);
  m["sim.events_per_s"] = ratio(static_cast<double>(sim.events) * kTracedSimulateRounds,
                                self_of("sim.run_case") * 1e-9);
  m["sim.sharded.windows"] = static_cast<double>(sharded.windows);
  m["sim.sharded.idle_gap_jumps"] = static_cast<double>(sharded.idle_gap_jumps);
  m["sim.sharded.events_per_window_p50"] = static_cast<double>(sharded.events_per_window_p50);
  m["sim.sharded.handoffs"] = static_cast<double>(sharded.handoffs);
  m["sim.sharded.spills"] = static_cast<double>(sharded.spills);
  m["sim.sharded.domain_skew"] = sharded.domain_skew;
  m["net.packets"] = static_cast<double>(sim.packets);
  m["net.events_per_packet"] = ratio(static_cast<double>(sim.events), static_cast<double>(sim.packets));
  m["net.pfc_pause_frames"] = static_cast<double>(sim.pause_frames);
  m["net.drops"] = static_cast<double>(sim.drops);
  m["telemetry.state_bytes"] = static_cast<double>(sim.state_bytes_max);
  m["telemetry.collected_bytes"] = static_cast<double>(sim.collected_bytes);
  m["telemetry.bandwidth_bytes"] = static_cast<double>(sim.bandwidth_bytes);

  // collective / core counts, from the recorded traces' footers
  const double polls = static_cast<double>(footer_count(cases, replay::RecordType::kPollTrigger));
  const double reports = static_cast<double>(footer_count(cases, replay::RecordType::kSwitchReport));
  m["collective.step_records"] =
      static_cast<double>(footer_count(cases, replay::RecordType::kStepRecord));
  m["core.polls"] = polls;
  m["core.notifications"] =
      static_cast<double>(footer_count(cases, replay::RecordType::kNotification));
  m["core.switch_reports"] = reports;
  m["core.reports_per_poll"] = ratio(reports, polls);
  double analyzer_sum = 0;
  double run_case_sum = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    analyzer_sum += analyzer[i];
    run_case_sum += case_ns[i];
  }
  m["core.analyzer_share"] = ratio(analyzer_sum, run_case_sum);

  // replay / core, from the traced replays
  const double replay_wall = total_of("bench.replay_trace");
  const double frames = static_cast<double>(replay_counts.frames);
  m["replay.frames"] = static_cast<double>(frames_per_round(cases));
  m["replay.bytes"] = static_cast<double>(replay_counts.bytes) / kTracedReplayRounds;
  m["replay.decode_ns_per_frame"] = ratio(self_of("replay.decode"), frames);
  m["replay.decode_mb_per_s"] =
      ratio(static_cast<double>(replay_counts.bytes) / 1e6, self_of("replay.decode") * 1e-9);
  m["replay.decode_share"] = ratio(self_of("replay.decode"), replay_wall);
  m["core.ingest_ns_per_record"] = ratio(self_of("core.ingest"), frames);
  m["core.ingest_share"] = ratio(self_of("core.ingest"), replay_wall);
  m["core.diagnose_us_per_trace"] = ratio(self_of("core.diagnose") / 1e3, count_of("core.diagnose"));
  m["core.diagnose_share"] = ratio(self_of("core.diagnose"), replay_wall);

  // serve
  const double serve_wall = total_of("bench.serve_round");
  m["serve.offer_ns_mean"] = ratio(self_of("serve.offer"), count_of("serve.offer"));
  m["serve.cpu_us_per_record"] =
      ratio((serve_cpu.user_s + serve_cpu.sys_s) * 1e6, static_cast<double>(serve_records));
  m["serve.sys_cpu_share"] = ratio(serve_cpu.sys_s, serve_cpu.user_s + serve_cpu.sys_s);
  m["serve.gen_decode_share"] = ratio(self_of("replay.decode_payload"), serve_wall);
  m["serve.gen_offer_share"] = ratio(self_of("serve.offer"), serve_wall);
  m["serve.gen_wait_share"] = ratio(self_of("serve.gen_wait"), serve_wall);
  const Percentiles lag = percentiles(lags_us, 99);
  if (lag.tail_pct != 99 || unmatched_lags != 0)
    std::fprintf(stderr, "note: verdict lag tail is p%g over %zu samples (%zu unmatched)\n",
                 lag.tail_pct, lag.n, unmatched_lags);
  m["serve.verdict_lag_us_p50"] = lag.p50;
  m["serve.verdict_lag_us_p99"] = lag.tail;
  m["serve.verdict_lag_n"] = static_cast<double>(lag.n);
  m["serve.step_diagnose_ns_p50"] = static_cast<double>(step_diagnose.value_at_quantile(0.50));
  m["serve.step_diagnose_ns_p99"] = static_cast<double>(step_diagnose.value_at_quantile(0.99));
  m["serve.queue_high_watermark"] = static_cast<double>(high_watermark);
  m["serve.rss_kb_per_session"] = rss_kb_per_session;
  m["serve.verdicts"] = static_cast<double>(serve_verdicts);

  m["bench.trace_overhead_pct"] = (median(overhead) - 1) * 100;
  std::fprintf(stderr, "trace overhead: median of %zu traced/untraced pairs\n", overhead.size());
  // Coverage of the workload's own traced frames: the share of their wall
  // time that layer spans account for, the rest being the benchmark's own
  // code (checks, loop, bookkeeping).
  const char* home_frame = opt.workload == Workload::kSimulate ? "bench.simulate_case"
                           : opt.workload == Workload::kReplay ? "bench.replay_trace"
                                                               : "bench.serve_round";
  const auto layer_ns_under = [&t](const std::string& root) {
    const auto it = t.layer_ns_by_root.find(root);
    return it == t.layer_ns_by_root.end() ? 0.0 : static_cast<double>(it->second);
  };
  m["bench.span_coverage_pct"] = ratio(layer_ns_under(home_frame), total_of(home_frame)) * 100;

  for (const auto& [layer, ns] : t.self_by_layer)
    std::fprintf(stderr, "layer %-10s self %9.3f ms (%5.1f%% of traced wall)\n", layer.c_str(),
                 static_cast<double>(ns) / 1e6,
                 ratio(static_cast<double>(ns), static_cast<double>(t.root_ns)) * 100);
  for (const auto& [root, ns] : t.total_by_name)
    if (t.layer_ns_by_root.count(root) != 0)
      std::fprintf(stderr, "frame %-22s %9.3f ms, layer spans cover %5.1f%%\n", root.c_str(),
                   static_cast<double>(ns) / 1e6,
                   ratio(layer_ns_under(root), static_cast<double>(ns)) * 100);
}

}  // namespace

Report run_workload(const Options& opt) {
  Report report;
  ScratchDir scratch(opt.work_dir);
  if (scratch.path().empty()) {
    report.error = "cannot create a scratch directory under " + opt.work_dir;
    return report;
  }

  SpanLog log(opt.trace);
  SpanLog off(false);
  std::vector<Case> cases;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> first_digests;
  Tally tally;
  HostSpeed setup_host;
  for (int pass = 0; pass < (opt.trace ? 1 : kSetupPasses); ++pass) {
    const std::int64_t t0 = now_ns();
    if (!set_up(opt.seed, scratch.path(), pass == 0 ? log : off, cases, report.error))
      return report;
    const double seconds = (now_ns() - t0) * 1e-9;
    setup_s.push_back(seconds / setup_host.bracket());
    // Every pass must record the same traces.
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (pass == 0) {
        first_digests.push_back(cases[i].trace.file_digest);
      } else if (cases[i].trace.file_digest != first_digests[i]) {
        ++tally.failed;
        std::fprintf(stderr, "check: set-up pass %d recorded a different %s trace\n", pass,
                     cases[i].scenario->name);
      }
    }
  }
  tally.failed += static_cast<std::uint64_t>(check_corpus(cases, opt.corpus_dir));

  if (opt.trace) {
    traced_run(opt, cases, log, tally, report);
    const std::string path = opt.work_dir + "/spans-" +
                             (opt.workload == Workload::kSimulate ? "simulate"
                              : opt.workload == Workload::kReplay ? "replay"
                                                                  : "serve") +
                             ".tsv";
    if (!write_spans_tsv(path, log.spans())) {
      report.error = "cannot write " + path;
      return report;
    }
    std::fprintf(stderr, "spans: %zu written to %s\n", log.spans().size(), path.c_str());
  } else {
    report.metrics["setup_s"] = median(setup_s);
    std::fprintf(stderr, "set-up host slowdown: median %.4f over %zu calibration samples\n",
                 setup_host.median_slowdown(), setup_host.samples());
    untraced_run(opt, cases, tally, report);
  }
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.correct = tally.failed == 0;
  return report;
}

}  // namespace pipebench
