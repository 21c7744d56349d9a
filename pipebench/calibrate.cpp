#include "calibrate.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <memory_resource>
#include <new>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "metrics.h"
#include "spans.h"

namespace pipebench {
namespace {

constexpr int kEvents = 150000;
constexpr std::uint32_t kRingSize = 64 * 1024;  // 256 KiB of uint32 links
constexpr int kChaseSteps = 1500000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct Event {
  std::uint64_t time;
  std::uint32_t id;
  bool operator>(const Event& o) const { return time > o.time || (time == o.time && id > o.id); }
};

struct Payload {
  std::uint64_t words[6] = {};
};

/// The event loop allocates from a private buffer, never the process heap,
/// so its time does not depend on how the code under test left the heap.
/// The loop needs about 2 MiB; pages the loop never reaches stay untouched.
constexpr std::size_t kArenaBytes = 4u << 20;

std::byte* arena() {
  static const std::unique_ptr<std::byte[]> buffer(new std::byte[kArenaBytes]);
  return buffer.get();
}

std::uint64_t event_loop() {
  std::pmr::monotonic_buffer_resource upstream(arena(), kArenaBytes,
                                               std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  std::pmr::vector<Event> heap(&pool);
  heap.reserve(4096);
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> queue(std::greater<>{},
                                                                           std::move(heap));
  std::pmr::unordered_map<std::uint32_t, Payload*> live(&pool);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 2048; ++i) queue.push({i, i});
  for (int i = 0; i < kEvents; ++i) {
    const Event e = queue.top();
    queue.pop();
    const std::uint64_t r = xorshift(x);
    Payload*& p = live[e.id & 16383];
    if (p == nullptr) {
      p = new (pool.allocate(sizeof(Payload), alignof(Payload))) Payload;
    } else if ((r & 7) == 0) {
      pool.deallocate(p, sizeof(Payload), alignof(Payload));
      p = nullptr;
    }
    if (p != nullptr) {
      p->words[r & 3] += e.time;
      acc += p->words[0];
    }
    queue.push({e.time + 1 + (r & 1023), static_cast<std::uint32_t>(r >> 40)});
  }
  return acc;
}

/// One cycle through kRingSize slots in a fixed shuffled order.
const std::vector<std::uint32_t>& ring() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kRingSize);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = kRingSize - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::uint32_t>(xorshift(x) % (i + 1))]);
    std::vector<std::uint32_t> links(kRingSize);
    for (std::uint32_t i = 0; i < kRingSize; ++i) links[order[i]] = order[(i + 1) % kRingSize];
    return links;
  }();
  return next;
}

std::uint64_t chase() {
  const std::vector<std::uint32_t>& next = ring();
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = next[at];
  return at;
}

}  // namespace

std::uint64_t calibration_kernel() { return event_loop() * 31 + chase(); }

namespace {
volatile std::uint64_t g_kernel_sink;  // keeps the kernel's result live
}  // namespace

HostSpeed::HostSpeed() {
  g_kernel_sink = calibration_kernel();
  sample();
}

double HostSpeed::sample() {
  const std::int64_t t0 = now_ns();
  g_kernel_sink = calibration_kernel();
  slowdowns_.push_back(static_cast<double>(now_ns() - t0) * 1e-9 / kReferenceKernelS);
  return slowdowns_.back();
}

double HostSpeed::bracket() {
  const double before = slowdowns_.back();
  return (before + sample()) / 2;
}

double HostSpeed::median_slowdown() const { return median(slowdowns_); }

}  // namespace pipebench
