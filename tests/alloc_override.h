#pragma once

// Whether a test binary may replace global operator new/delete. Not under
// sanitizers: their runtimes interpose the allocator themselves, and an
// interposed allocator changes what "an allocation" is (ASan's quarantine,
// TSan's shadow). There kSanitized is true, and tests that need their own
// allocator skip their checks.

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

constexpr bool kSanitized = VEDR_ALLOC_OVERRIDE == 0;
