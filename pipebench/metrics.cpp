#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace pipebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

namespace {

/// 1-based nearest rank of percentile `pct` among `n` samples.
std::size_t nearest_rank(double pct, std::size_t n) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

Percentiles percentiles(std::vector<double> samples, double max_pct) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 95, 90, 75, 50};
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = samples[nearest_rank(50, p.n) - 1];
  for (const double pct : kLadder) {
    if (pct > max_pct) continue;
    const std::size_t rank = nearest_rank(pct, p.n);
    if (p.n - rank >= 10) {
      p.tail_pct = pct;
      p.tail = samples[rank - 1];
      break;
    }
  }
  return p;
}

std::vector<std::size_t> closing_records(const std::vector<int>& steps, std::size_t footer) {
  std::vector<std::size_t> closing;
  int max_step = -1;
  for (std::size_t i = 0; i < steps.size() && i < footer; ++i) {
    if (steps[i] <= max_step) continue;
    // Raising the frontier to steps[i] closes every step below it.
    for (int s = std::max(max_step, 0); s < steps[i]; ++s) closing.push_back(i);
    max_step = steps[i];
  }
  while (static_cast<int>(closing.size()) <= max_step) closing.push_back(footer);
  return closing;
}

std::vector<double> verdict_lags_us(const std::map<std::uint64_t, std::vector<std::int64_t>>& offer_ns,
                                    const std::vector<StepVerdict>& verdicts,
                                    std::size_t* unmatched) {
  std::vector<double> lags;
  lags.reserve(verdicts.size());
  std::size_t missing = 0;
  for (const StepVerdict& v : verdicts) {
    const auto it = offer_ns.find(v.session);
    if (it == offer_ns.end() || v.step < 0 ||
        static_cast<std::size_t>(v.step) >= it->second.size() ||
        it->second[static_cast<std::size_t>(v.step)] == 0) {
      ++missing;
      continue;
    }
    lags.push_back(static_cast<double>(v.recv_ns - it->second[static_cast<std::size_t>(v.step)]) /
                   1e3);
  }
  if (unmatched != nullptr) *unmatched = missing;
  return lags;
}

}  // namespace pipebench
