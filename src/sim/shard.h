#pragma once

namespace vedr::sim {

/// Thread-local shard (domain) identity for the sharded engine.
///
/// Shard-aware components (Network's per-domain contexts: simulator, stats
/// registry, packet pool) resolve "which domain am I running in?" through
/// this value instead of threading a domain id through every call
/// signature. A one-domain run reads 0 throughout.
///
/// The engine's worker threads set it with ShardScope around every domain's
/// event window and boundary hook. Pre-run bootstrap code that constructs
/// per-domain state from the main thread (device construction, monitor
/// wiring, collective start) uses ShardScope the same way; nesting restores
/// the previous value, so scopes compose.
namespace internal {
inline thread_local int tls_domain = 0;
}  // namespace internal

/// The domain the calling thread is currently executing on behalf of
/// (0 on any thread outside a ShardScope).
inline int current_domain() { return internal::tls_domain; }

/// RAII domain marker. Cheap enough for per-event-window use: two
/// thread-local stores.
class ShardScope {
 public:
  explicit ShardScope(int domain) : prev_(internal::tls_domain) {
    internal::tls_domain = domain;
  }
  ~ShardScope() { internal::tls_domain = prev_; }

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int prev_;
};

}  // namespace vedr::sim
