#pragma once

// Statistics and matching rules the benchmark reports with. Kept apart from
// the workloads so the self-test can check them on synthetic input.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace pipebench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// The percentile rule: a timing is reported as its median and as the
/// highest percentile, no higher than `max_pct`, that still has at least
/// ten samples beyond it, together with the sample count. Percentiles are
/// nearest-rank and taken from the ladder 99.99, 99.9, 99, 95, 90, 75, 50.
struct Percentiles {
  std::size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  ///< 0 when even the median has fewer than ten samples beyond it
  double tail = 0;
};

Percentiles percentiles(std::vector<double> samples, double max_pct);

/// Verdict-lag matching for one trace, mirroring the serve session's rule
/// that step s is closed once a StepRecord of a later step arrives, or the
/// footer ends the stream. `steps[i]` is record i's StepRecord step (-1 for
/// any other record) and `footer` the footer's index. Returns, for every
/// step 0..max step, the index of the record whose offer closes it.
std::vector<std::size_t> closing_records(const std::vector<int>& steps, std::size_t footer);

/// One step verdict as the benchmark's sink received it.
struct StepVerdict {
  std::uint64_t session = 0;
  int step = -1;
  std::int64_t recv_ns = 0;
};

/// Joins received step verdicts with `offer_ns[session][step]`, the time
/// the record closing that step was offered, into lags in microseconds.
/// Verdicts with no matching offer are counted in `*unmatched`.
std::vector<double> verdict_lags_us(const std::map<std::uint64_t, std::vector<std::int64_t>>& offer_ns,
                                    const std::vector<StepVerdict>& verdicts,
                                    std::size_t* unmatched);

}  // namespace pipebench
