// Steady-state allocation audit: once the engine's pools (event slots,
// packet slab, ring queues, telemetry maps) have grown to a workload's
// high-water mark, continuing that workload must perform ZERO heap
// allocations. Verified by overriding global operator new/delete with
// counting wrappers and running a congestion-heavy DCQCN scenario — data
// flows, ECN marking, CNPs, rate timers — through a warm-up phase and then a
// measured window.
//
// Under sanitizers the interposed allocator changes what "an allocation" is
// (ASan's quarantine, TSan's shadow) and the engine deliberately trades this
// guarantee away; the assertion is skipped there but the scenario still runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "collective/plan.h"
#include "collective/runner.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/sharded_engine.h"

// The override must not exist under sanitizers: their runtimes interpose the
// allocator themselves, and GCC's -Wmismatched-new-delete flags our
// free()-backed delete against their new.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VEDR_ALLOC_OVERRIDE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VEDR_ALLOC_OVERRIDE 0
#else
#define VEDR_ALLOC_OVERRIDE 1
#endif
#else
#define VEDR_ALLOC_OVERRIDE 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
constexpr bool kSanitized = VEDR_ALLOC_OVERRIDE == 0;

}  // namespace

#if VEDR_ALLOC_OVERRIDE
// Counting global allocator. Only the counter is added; allocation behavior
// is unchanged (malloc/free underneath, as libstdc++ does by default).
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // VEDR_ALLOC_OVERRIDE

namespace vedr {
namespace {

TEST(SteadyStateAlloc, CongestedDcqcnWorkloadAllocatesNothing) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  // A 2-tier fat-tree with an incast-prone ring AllGather: enough ECN
  // marking and CNP traffic to keep every hot path (host tx, switch queues,
  // PFC accounting, DCQCN timers, ACK/CNP control packets) exercised.
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto hosts = network.hosts();
  ASSERT_GE(hosts.size(), 8u);

  // Ring AllGather over 8 participants; repeated steps give the run a long
  // steady phase after the first few steps have warmed every pool.
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  collective::CollectivePlan plan = collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, participants, 64 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  runner.start(0);

  // Warm-up: run the first stretch, letting pools/rings/maps reach their
  // high-water marks.
  sim.run(2 * sim::kMillisecond);
  ASSERT_FALSE(sim.idle()) << "warm-up consumed the whole collective; shrink the window";

  // Measured window: steady-state forwarding must not allocate.
  g_allocs.store(0);
  g_counting.store(true);
  const std::uint64_t executed_before = sim.events_executed();
  sim.run(4 * sim::kMillisecond);
  g_counting.store(false);
  const std::uint64_t executed = sim.events_executed() - executed_before;

  ASSERT_GT(executed, 10'000u) << "window too small to call this steady state";
  if (kSanitized) {
    GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  }
  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state hot path allocated (" << g_allocs.load() << " allocations over "
      << executed << " events)";
}

}  // namespace
}  // namespace vedr
