#pragma once

// Counting global allocator for the allocation audits. Replacing operator
// new/delete affects the whole program, so include this from one source
// file of a test binary of its own. Only the counter is added; allocation
// behavior is unchanged (malloc/free underneath, as libstdc++ does by
// default). Count between `g_allocs.store(0); g_counting.store(true);` and
// `g_counting.store(false);`.
//
// The override does not exist under sanitizers (alloc_override.h): there
// kSanitized is true and nothing is counted; tests skip their bound but
// still run.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_override.h"

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::uint64_t> g_allocs{0};

#if VEDR_ALLOC_OVERRIDE
// Every replacement is out of line. Inlined into an allocation site, GCC's
// -Wmismatched-new-delete would see either the free() of memory from
// operator new or the operator delete of memory from malloc().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // VEDR_ALLOC_OVERRIDE
