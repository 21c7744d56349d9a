// Self-test for the benchmark's own helpers: the percentile rule, span
// self-time arithmetic, verdict-lag matching and the calibration kernel's
// fixed work. Exits 1 when an expectation fails. (run.py --selftest also
// checks that pipebench's catalogue matches BENCHMARK.json.)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "calibrate.h"
#include "metrics.h"
#include "spans.h"

namespace {

using namespace pipebench;

int g_failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is rank 990 with ten samples beyond it; p99.9 has one.
  Percentiles p = percentiles(iota(1000), 99.99);
  EXPECT(p.n == 1000);
  EXPECT(near(p.p50, 500));
  EXPECT(near(p.tail_pct, 99));
  EXPECT(near(p.tail, 990));

  // 999 samples: p99 leaves only nine beyond, so the rule falls to p95.
  p = percentiles(iota(999), 99);
  EXPECT(near(p.tail_pct, 95));
  EXPECT(near(p.tail, 950));

  // 100000 samples reach p99.99 (exactly ten beyond); one fewer does not.
  EXPECT(near(percentiles(iota(100000), 99.99).tail_pct, 99.99));
  EXPECT(near(percentiles(iota(99999), 99.99).tail_pct, 99.9));
  EXPECT(near(percentiles(iota(99999), 99).tail_pct, 99));

  // Too few samples for any tail; the median and the count still report.
  p = percentiles(iota(15), 99);
  EXPECT(p.n == 15);
  EXPECT(near(p.p50, 8));
  EXPECT(p.tail_pct == 0);

  // Order does not matter.
  std::vector<double> shuffled = iota(20);
  std::swap(shuffled[0], shuffled[19]);
  EXPECT(near(percentiles(shuffled, 99).tail, 10));

  EXPECT(near(median({3, 1, 2}), 2));
  EXPECT(near(median({4, 1, 2, 3}), 2.5));
  EXPECT(median({}) == 0);
}

Span make(const char* name, std::uint32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void span_self_time() {
  // root [0,100) has children [10,30) and [50,60); the first child has a
  // grandchild [12,20). Overlapping children [70,80) and [75,90) count once,
  // and a child running past its parent's end is clipped.
  std::vector<Span> spans = {
      make("bench.round", kNoParent, 0, 100),  // 0
      make("replay.decode", 0, 10, 30),        // 1
      make("core.ingest", 1, 12, 20),          // 2
      make("core.ingest", 0, 50, 60),          // 3
      make("serve.offer", 0, 70, 80),          // 4
      make("serve.offer", 0, 75, 90),          // 5
      make("serve.gen_wait", 0, 95, 120),      // 6
  };
  const std::vector<std::int64_t> self = self_times(spans);
  // Children cover [10,30) + [50,60) + [70,90) + [95,100) = 55.
  EXPECT(self[0] == 45);
  EXPECT(self[1] == 12);
  EXPECT(self[2] == 8);
  EXPECT(self[3] == 10);
  EXPECT(self[6] == 25);

  const SpanTotals t = totals(spans);
  EXPECT(t.root_ns == 100);
  EXPECT(t.self_by_layer.at("core") == 18);
  EXPECT(t.self_by_layer.at("replay") == 12);
  EXPECT(t.self_by_name.at("core.ingest") == 18);
  EXPECT(t.count_by_name.at("core.ingest") == 2);
  EXPECT(t.self_by_layer.count("bench") == 0);
  EXPECT(t.layer_ns_by_root.at("bench.round") == 80);
  EXPECT(layer_of("bench.round").empty());
  EXPECT(layer_of("sim.run_case") == "sim");

  // The recorder nests by call stack.
  SpanLog log(true);
  {
    ScopedSpan outer(log, "bench.round", 7);
    ScopedSpan inner(log, "sim.run_case", 7);
  }
  EXPECT(log.spans().size() == 2);
  EXPECT(log.spans()[1].parent == 0);
  EXPECT(log.spans()[0].parent == kNoParent);
  EXPECT(log.spans()[1].group == 7);
  SpanLog off(false);
  { ScopedSpan s(off, "sim.run_case"); }
  EXPECT(off.spans().empty());
}

void verdict_lag_matching() {
  // Records: envelope, step 0 x2, a report, step 1, step 1, step 3, footer.
  // Step 0 closes at the first step-1 record (index 4); steps 1 and 2 at
  // the step-3 record (index 6); step 3 at the footer (index 7).
  const std::vector<int> steps = {-1, 0, 0, -1, 1, 1, 3, -1};
  const std::vector<std::size_t> closing = closing_records(steps, 7);
  EXPECT((closing == std::vector<std::size_t>{4, 6, 6, 7}));

  // A late record of an earlier step neither closes nor reopens anything.
  EXPECT((closing_records({-1, 0, 1, 0, -1}, 4) == std::vector<std::size_t>{2, 4}));
  // No step records: no step verdicts.
  EXPECT(closing_records({-1, -1}, 1).empty());

  const std::map<std::uint64_t, std::vector<std::int64_t>> offers = {
      {1, {1000, 5000}},
      {2, {2000}},
  };
  const std::vector<StepVerdict> verdicts = {
      {1, 0, 4000}, {1, 1, 6500}, {2, 0, 2500}, {2, 1, 9999}, {3, 0, 1},
  };
  std::size_t unmatched = 0;
  const std::vector<double> lags = verdict_lags_us(offers, verdicts, &unmatched);
  EXPECT((lags == std::vector<double>{3.0, 1.5, 0.5}));
  EXPECT(unmatched == 2);
}

void calibration_kernel_is_fixed() {
  const std::uint64_t sum = calibration_kernel();
  if (sum != kCalibrationChecksum)
    std::fprintf(stderr, "calibration kernel checksum %llu\n", static_cast<unsigned long long>(sum));
  EXPECT(sum == kCalibrationChecksum);
  EXPECT(calibration_kernel() == sum);
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  verdict_lag_matching();
  calibration_kernel_is_fixed();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
