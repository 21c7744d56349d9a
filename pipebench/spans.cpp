#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace pipebench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  std::string layer = dot == nullptr ? std::string(name) : std::string(name, dot);
  return layer == "bench" ? std::string() : layer;
}

SpanTotals totals(const std::vector<Span>& spans) {
  SpanTotals t;
  const std::vector<std::int64_t> self = self_times(spans);
  // Parents precede their children in the log, so one forward pass finds
  // every span's top-level ancestor.
  std::vector<std::uint32_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent == kNoParent ? static_cast<std::uint32_t>(i) : root[s.parent];
    t.self_by_name[s.name] += self[i];
    t.total_by_name[s.name] += s.end_ns - s.start_ns;
    t.count_by_name[s.name] += 1;
    if (s.parent == kNoParent) t.root_ns += s.end_ns - s.start_ns;
    const std::string layer = layer_of(s.name);
    if (!layer.empty()) {
      t.self_by_layer[layer] += self[i];
      t.layer_ns += self[i];
      t.layer_ns_by_root[spans[root[i]].name] += self[i];
    }
  }
  return t;
}

bool write_spans_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("index\tparent\tgroup\tname\tstart_ns\tend_ns\tself_ns\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\t%lld\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.name,
                 static_cast<long long>(s.start_ns - t0), static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace pipebench
