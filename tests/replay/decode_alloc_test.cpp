// Heap allocations of trace decoding: a warm TraceReader loop, one reused
// TraceRecord, must stay under 1.5 allocations per frame on every corpus
// trace. next() decodes in place, so a switch report decoded over another
// keeps its vectors. What is left is the variant changing type between
// frames (a step record between two reports frees the report) and a report
// with more ports or entries than the one before it.
//
// Under sanitizers the interposed allocator changes what "an allocation"
// is; the bound is skipped there, as in steady_state_alloc_test, but the
// loop still runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "counting_allocator.h"
#include "replay/trace_reader.h"

#ifndef VEDR_REPLAY_CORPUS_DIR
#error "VEDR_REPLAY_CORPUS_DIR must be defined by the build"
#endif

namespace vedr::replay {
namespace {

constexpr double kMaxAllocsPerFrame = 1.5;

TEST(DecodeAlloc, WarmReaderAllocatesUnderOneAndAHalfTimesPerFrame) {
  for (const char* name : {"contention", "incast", "storm", "backpressure"}) {
    const std::string path = std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + name + ".vtrc";
    // Warm-up: one pass grows the reused record to this trace's shapes.
    TraceRecord rec;
    {
      TraceReader warm(path);
      while (warm.next(rec) == TraceStatus::kOk) {
      }
      ASSERT_EQ(warm.error().status, TraceStatus::kOk) << warm.error().str();
    }
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error().str();
    g_allocs.store(0);
    g_counting.store(true);
    std::uint64_t frames = 0;
    while (reader.next(rec) == TraceStatus::kOk) ++frames;
    g_counting.store(false);
    ASSERT_EQ(reader.error().status, TraceStatus::kOk) << reader.error().str();
    ASSERT_GT(frames, 0U);
    if (kSanitized) continue;  // nothing was counted
    const double per_frame = static_cast<double>(g_allocs.load()) / static_cast<double>(frames);
    std::printf("%-12s %6llu frames  %.2f allocations per frame\n", name,
                static_cast<unsigned long long>(frames), per_frame);
    EXPECT_LT(per_frame, kMaxAllocsPerFrame) << name;
  }
  if (kSanitized) GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
}

}  // namespace
}  // namespace vedr::replay
